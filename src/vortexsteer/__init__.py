"""Loss-tolerant quantum steering with rotation-invariant vector vortex qubits."""

from .qmath import (
    DensityMatrix,
    StateVector,
    fidelity_pure,
    purity,
)
from .encoding import receiver, singlet_pol
from .steering import (
    MeasurementSet,
    SteeringEstimate,
    platonic_set,
    steering_parameter_counts,
    steering_parameter_exact,
)
from .bounds import (
    BoundCurve,
    CheatStrategy,
    bound_curve,
    deterministic_bound,
    loss_tolerant_bound,
)
from .experiment import (
    ChannelModel,
    NoiseModel,
    SteeringRunResult,
    ThetaPolicy,
    dynamic_rotation_run,
    prepare_state,
    run_experiment,
    sweep_theta,
    visibility_for_fidelity,
    werner_state,
)
from .tomography import (
    ReconstructionReport,
    TomographySpec,
    reconstruct,
    simulate_counts,
    standard_settings,
)

__version__ = "0.1.0"

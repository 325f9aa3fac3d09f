"""Reference timings that track the speed of a shared machine.

The 2-core machine the benchmark was defined on drifts in speed by +-20%
over tens of seconds, far more than the changes the benchmark should
resolve.  The benchmark therefore times fixed reference work next to the
program's work and reports the program's times scaled to the references'
nominal speed: figures read as if the machine always ran the references in
their nominal times.  A change to the program leaves the references alone,
so the scaling cancels the machine and keeps the program.

Two references, for the two kinds of work:

* ``kernel()``: interpreter work plus small numpy eigen-solves, the
  package's own mix.  It scales in-process operations.  On the machine
  above it cut the variation of 10 s window medians of bound and
  tomography timings from +-15% to +-3%.
* ``process()``: a fresh interpreter importing numpy, i.e. start-up work.
  Together with the kernel it scales command-line processes, and alone it
  scales set-up.  For cli-cold it cut the 10-seed spread of the throughput
  from 0.085 (kernel only) to 0.038.
"""

from __future__ import annotations

import subprocess
import sys
import time

# median times on the machine the benchmark was defined on
KERNEL_S = 0.0042
PROCESS_S = 0.18


def kernel() -> float:
    import numpy as np
    start = time.perf_counter()
    a = np.arange(16.0).reshape(4, 4)
    total = 0.0
    for i in range(200):
        b = a + i
        total += float(np.linalg.eigvalsh(b + b.T)[0])
    total += sum(j * j for j in range(20_000))
    return time.perf_counter() - start


def process() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def slowness(with_process: bool) -> float:
    """Reference time over nominal: 1 at nominal speed, 1.2 when 20% slow."""
    ratio = kernel() / KERNEL_S
    if with_process:
        ratio = (ratio + process() / PROCESS_S) / 2
    return ratio

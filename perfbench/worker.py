"""One benchmark process: set up a workload, run whole rounds, check every
output and print one JSON line.

run.py starts it in a fresh interpreter, so the ``ready`` time it reports
includes interpreter start-up and ``import vortexsteer``.

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

Untraced, it repeats rounds until ``--seconds`` have passed.  Traced, it
runs the workload's fixed number of rounds once untraced and then again,
with the same inputs, under the layer tracer; the counts therefore repeat
exactly for a fixed seed, and the ratio of the two timings is the tracing
overhead.

Each round's time is also reported scaled to reference speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import speed

MAX_MESSAGES = 5


class Tally:
    """Attempted and failed operations, program time and check messages."""

    def __init__(self, with_process: bool):
        self.with_process = with_process   # see speed.slowness
        self.attempted = 0
        self.failed = 0
        self.program_s = 0.0
        self.slowness = 0.0   # summed over operations, see speed.slowness
        self.round_s: list[float] = []   # program time of each whole round
        self.scaled_round_s: list[float] = []   # the same at reference speed
        self.wrong: list[str] = []    # ordinary operations whose output is wrong
        self.faults: list[str] = []   # raised, exited non-zero, or a known fault
        self.times: dict[str, list[float]] = {}

    def run(self, op, checks) -> None:
        self.attempted += op.count
        self.slowness += speed.slowness(self.with_process)
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the run goes on
            self.program_s += time.perf_counter() - start
            self.failed += op.count
            self._note(self.faults, f"{op.label}: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        self.program_s += elapsed
        self.times.setdefault(op.label, []).append(elapsed)
        try:
            op.check(out)
        except checks.CheckFailed as exc:
            self.failed += op.count
            self._note(self.faults if op.known_fault else self.wrong, str(exc))

    @staticmethod
    def _note(messages: list[str], text: str) -> None:
        if len(messages) < MAX_MESSAGES:
            messages.append(text)


def _run_rounds(rounds, tally: Tally, checks) -> None:
    for ops in rounds:
        before, slowness_before = tally.program_s, tally.slowness
        for op in ops:
            tally.run(op, checks)
        took = tally.program_s - before
        tally.round_s.append(took)
        tally.scaled_round_s.append(
            took * len(ops) / (tally.slowness - slowness_before))


def _timed_rounds(workload, first, seconds: float):
    deadline = time.monotonic() + seconds
    yield first
    r = 1
    while time.monotonic() < deadline:
        yield workload.round(r)
        r += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import vortexsteer  # first numpy/scipy import, so theirs is charged to it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(vortexsteer.__file__).startswith(src + os.sep):
        print(f"error: vortexsteer came from {vortexsteer.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import checks
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    first = workload.round(0)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        rounds = [first] + [workload.round(r) for r in range(1, workload.trace_rounds)]
        untraced = Tally(workload.runs_processes)
        _run_rounds(rounds, untraced, checks)
        tracer = tracing.Tracer()
        if workload.runs_processes:
            workload.tracer = tracer   # traced child processes report back
        else:
            tracer.install()
        tally = Tally(workload.runs_processes)
        _run_rounds(rounds, tally, checks)
        layers = tracer.metrics()
        layers["trace.overhead_pct"] = (
            100 * (sum(tally.scaled_round_s) / sum(untraced.scaled_round_s) - 1), "%")
        out["layers"] = layers
        out["top_functions"] = tracer.top_functions()
        for field in ("attempted", "failed", "program_s", "round_s",
                      "scaled_round_s", "wrong", "faults"):
            setattr(tally, field, getattr(untraced, field) + getattr(tally, field))
    else:
        tally = Tally(workload.runs_processes)
        _run_rounds(_timed_rounds(workload, first, args.seconds), tally, checks)

    rss_kb = getattr(workload, "peak_rss_kb", 0) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(
        attempted=tally.attempted, failed=tally.failed,
        round_s=tally.round_s, scaled_round_s=tally.scaled_round_s,
        correct=not tally.wrong, wrong=tally.wrong, faults=tally.faults,
        peak_rss_mb=rss_kb / 1024,
        op_median_s={label: statistics.median(t) for label, t in tally.times.items()},
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of vortexsteer from outside the package.

``Tracer.install()`` wraps every module-level function and every dataclass
constructor of each layer module and re-points every reference to them
inside the package, so calls between layers pass through the wrappers.  A
span's self time is its duration minus the durations of the spans it
encloses; each layer's self time is the sum over its spans.  The source
tree is not modified.

Run as a script, it executes one traced command-line invocation:

    python perfbench/tracer.py STATS.json bound --n 3 --xi 0.4 --output c.csv

and writes the layer statistics to STATS.json.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("qmath", "encoding", "steering", "bounds", "experiment",
          "tomography", "cli")

# Counters read at one function's boundary: (counter, function, reader of
# its result).  A function that a later version no longer has leaves its
# counter at zero instead of failing the run.
COUNTERS = (
    ("steering.born_tables", "steering._joint_probabilities", None),
    ("bounds.solves", "bounds.loss_tolerant_bound", None),
    ("bounds.strategies_enumerated", "bounds.enumerate_strategies",
     lambda result: len(result[0])),
    ("tomography.mle_iterations", "tomography.reconstruct",
     lambda result: result.iterations),
    ("tomography.not_converged", "tomography.reconstruct",
     lambda result: int(not result.converged)),
)


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.functions: dict[str, list] = {}   # key -> [calls, self seconds]
        self._stack: list[float] = []          # child time of open spans

    def _wrap(self, layer: str, key: str, fn):
        hooks = [(name, read) for name, target, read in COUNTERS if target == key]
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts
        stat = self.functions.setdefault(key, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[layer] += own
                calls[layer] += 1
                stat[0] += 1
                stat[1] += own
            for name, read in hooks:
                counts[name] += 1 if read is None else int(read(result))
            return result

        return traced

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"vortexsteer.{layer}")
            except ModuleNotFoundError:
                continue
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(layer, key, obj)
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    obj.__init__ = self._wrap(layer, key, obj.__init__)
        for module_name, module in list(sys.modules.items()):
            if module_name != "vortexsteer" and not module_name.startswith("vortexsteer."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, name, replaced[obj])

    def merge(self, stats: dict) -> None:
        """Add the statistics another traced process wrote."""
        for layer in LAYERS:
            self.self_s[layer] += stats["self_s"][layer]
            self.calls[layer] += stats["calls"][layer]
        for name in self.counts:
            self.counts[name] += stats["counts"][name]
        for key, (calls, own) in stats["functions"].items():
            stat = self.functions.setdefault(key, [0, 0.0])
            stat[0] += calls
            stat[1] += own

    def stats(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls,
                "counts": self.counts, "functions": self.functions}

    def metrics(self) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in LAYERS}
        for layer in ("qmath", "encoding"):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        out.update((name, (value, "count")) for name, value in self.counts.items())
        return out

    def top_functions(self, count: int = 12) -> list[str]:
        ranked = sorted(self.functions.items(), key=lambda kv: -kv[1][1])
        return [f"{key:45s} {calls:9d} calls {own:9.4f} s self"
                for key, (calls, own) in ranked[:count] if calls]


def import_times(stderr_text: str) -> dict:
    """import.vortexsteer_s and import.scipy_s from ``-X importtime`` output.

    Each is the cumulative time of the outermost imports of that package,
    that is, imports whose importer is not itself part of the package.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"vortexsteer": 0, "scipy": 0}
    parents: list[str] = []
    # importtime prints a module after everything it imported, so walking
    # backwards meets each importer before its imports
    for depth, name, cumulative in reversed(entries):
        del parents[depth:]
        parent = parents[-1] if parents else ""
        parents.append(name)
        for package in totals:
            inside = name == package or name.startswith(package + ".")
            parent_inside = parent == package or parent.startswith(package + ".")
            if inside and not parent_inside:
                totals[package] += cumulative
    return {f"import.{package}_s": (us / 1e6, "s") for package, us in totals.items()}


def _main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    from vortexsteer import cli
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    with open(stats_path, "w") as fh:
        json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))

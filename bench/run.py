"""Benchmark for spectriple: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Workloads, metrics and bounds are
listed in BENCHMARK.json; bench/METRICS.md gives the rationale and which
per-layer metric should move which end-to-end metric.

--trace 0 measures the end-to-end metrics: whole passes of the workload run
back to back, each item starting when the previous one finished, until S
seconds have elapsed.  --trace 1 measures the per-layer metrics: passes run
in pairs, first untraced and then traced on the same inputs, until S/2
seconds have elapsed; the ratio of the two gives trace.overhead_ratio.

Every answer is checked exactly; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The lines
before it repeat the metrics with their units and record the environment,
the failure ratio and data that is not a pass condition.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

from tracer import PACKAGE, ROOT_SPAN, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "fuzz", "realpart", "scalars", "standard_model", "triple", "twist")
# Fresh-interpreter imports per run for setup_s; the median is reported.
SETUP_REPEATS = 15
# Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10
# The import a user pays before the first answer: a fresh interpreter
# importing the command-line module, which imports every other module.
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    f"import {PACKAGE}.cli; print(time.perf_counter() - t)"
)


class SetupError(RuntimeError):
    pass


def load_package() -> types.SimpleNamespace:
    """Import the package from ./src (and nothing else) and return its modules."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def timed_import() -> float:
    """Seconds a fresh interpreter spends importing the package."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise SetupError(f"importing {PACKAGE} failed: {done.stderr.strip()}")
    return float(done.stdout)


def setup(factory, pkg, seed: int, workdir: str):
    """Import and input generation, SETUP_REPEATS times; returns the last
    workload and the median set-up time."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        t_import = timed_import()
        start = time.perf_counter()
        wl = factory(pkg, seed, workdir)
        times.append(t_import + time.perf_counter() - start)
    return wl, statistics.median(times)


class Outcome:
    """Items attempted and failed, with the first failure's traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = ""


def run_pass(wl, index: int, outcome: Outcome, tracer=None) -> tuple[float, list]:
    """One pass of the workload; returns its wall time and per-item times."""
    clock = time.perf_counter
    item_times = []
    start = clock()
    for item in wl.pass_items(index):
        t0 = clock()
        if tracer is not None:
            tracer.begin_item(outcome.attempted)
        try:
            ok = wl.run_item(item)
        except Exception:  # a crash is a wrong answer: count it, keep measuring
            ok = False
            outcome.first_error = outcome.first_error or traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.end_item()
        item_times.append(clock() - t0)
        outcome.attempted += 1
        outcome.failed += not ok
    return clock() - start, item_times


def tail(values: list) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: value,
    percentile and sample count.  With too few samples there is none, and
    the maximum (percentile 100) stands in for it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples above it
    return ordered[rank - 1], 100.0 * rank / n, n


def measure_end_to_end(wl, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    """Whole passes back to back until `seconds` have elapsed.

    The median item latency is a note, not a gated metric: where a pass is
    one item it repeats wall_s, and on the fuzz campaign the median falls
    between the cheap and the expensive half of the random case sizes, so
    it jumps with the seed's case mix."""
    passes, items = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, item_times = run_pass(wl, len(passes), outcome)
        passes.append(wall)
        items.extend(item_times)
    value, pct, n = tail(items)
    values = {
        "wall_s": statistics.median(passes),
        "items_per_s": len(items) / sum(items),
        "item_tail_ms": 1000 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "item_p50_ms": {"value": 1000 * statistics.median(items), "unit": "ms"},
        "tail": {"percentile": pct, "samples": n, "passes": len(passes)},
    }
    return values, notes


def measure_per_layer(wl, seconds: float, outcome: Outcome, names: list) -> tuple[dict, dict]:
    """Pairs of passes, untraced then traced on the same inputs, until
    `seconds`/2 have elapsed; per-layer values are per traced item."""
    tracer = Tracer()
    untraced_s = []
    start = time.perf_counter()
    while not untraced_s or time.perf_counter() - start < seconds / 2:
        index = len(untraced_s)
        untraced_s.append(sum(run_pass(wl, index, outcome)[1]))
        tracer.install()
        try:
            run_pass(wl, index, outcome, tracer)
        finally:
            tracer.restore()
    values = {name: tracer.per_item(name) for name in names}
    values["trace.overhead_ratio"] = tracer.wall_s / sum(untraced_s)
    module_self_s = sum(v for k, v in tracer.self_s.items() if k != ROOT_SPAN)
    return values, {"trace": {"traced_items": tracer.items, "traced_wall_s": tracer.wall_s,
                              "module_self_s": module_self_s}}


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def read_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool, factory=None) -> dict:
    """Set up, measure and check one workload.  Returns the result object,
    the report lines that precede it, and the notes behind them.  `factory`
    replaces the workload's constructor (the self-test runs at smoke size)."""
    group = read_spec()["per_layer" if trace else "end_to_end"]
    pkg = load_package()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_build")
    try:
        wl, setup_s = setup(factory or WORKLOADS[workload], pkg, seed, workdir)
        outcome = Outcome()
        if trace:
            values, notes = measure_per_layer(wl, seconds, outcome, [m["name"] for m in group])
        else:
            values, notes = measure_end_to_end(wl, seconds, outcome)
            values["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    notes["fail_ratio"] = {"value": outcome.failed / outcome.attempted, "unit": "ratio",
                           "failed": outcome.failed, "attempted": outcome.attempted}
    notes["data"] = {k: {str(v): c for v, c in counts.items()} for k, counts in wl.data.items()}
    lines = [f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}",
             "environment " + json.dumps(environment(seed))]
    lines += [f"{name} {m['value']} {m['unit']}" for name, m in metrics.items()]
    lines += [f"{key} {json.dumps(value)}" for key, value in notes.items()]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return {"result": result, "lines": lines, "notes": notes, "first_error": outcome.first_error}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if out["first_error"]:
        print(out["first_error"], file=sys.stderr)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one gobsec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-prni --seed 1 --seconds 30 --trace 0

Workloads: corpus-prni, fuzz-eval, typing (see perfbench/README.md). The
program under test is the gobsec package in the checkout's `src/`,
imported afresh during set-up; nothing is installed.

With `--trace 0` the run sets up once in this process, then
SETUP_REPEATS times more, each in a fresh child process, timed for
`setup_s`; then it runs the timed phase for `--seconds` and reports the
end-to-end metrics. With `--trace 1` it runs the workload's
fixed unit of work once untraced and once with every public gobsec
function wrapped in a span, reports the per-layer metrics and the
tracing overhead, and writes the spans under `.perfbench-out/`.

The next-to-last line of output is a JSON `detail` object (provenance,
workload-specific metric names, sample counts, seeds); the last line is
the result: `{"correct", "attempted", "failed", "metrics"}`. The exit
status is 1 when any output check failed, and 2, with no result, when
`src/gobsec` is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
#: `setup_s` is set-up time scaled to a host on which the reference loop
#: takes this long (it took 3.1-6.7 ms on the 2-vCPU VM the benchmark was
#: built on), like a ratio to a reference machine.
REF_NOMINAL_S = 0.005
REF_PER_SETUP = 3

sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, time_reference  # noqa: E402

#: End-to-end metrics (BENCHMARK.json) and their units. Apart from set-up,
#: they are in units of `ref`, the time of a fixed reference loop measured
#: around each timed span (workloads.HostSpeed). `setup_s` is the median
#: over set-ups of set-up seconds times REF_NOMINAL_S/ref, ref timed around
#: each set-up.
END_TO_END = {"setup_s": "s", "p50_ref": "ref", "tail_ref": "ref", "ops_per_ref": "1/ref", "steps_per_ref": "1/ref"}


class MissingProgram(Exception):
    pass


def load_gobsec() -> tuple[SimpleNamespace, object]:
    """Import gobsec afresh from the checkout's `src/`, dropping any
    earlier import, and return its layer modules and the package."""
    if not (SRC / "gobsec" / "__init__.py").is_file():
        raise MissingProgram(f"no gobsec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gobsec" or m.startswith("gobsec.")]:
        del sys.modules[name]
    package = importlib.import_module("gobsec")
    if Path(package.__file__).resolve().parent != SRC / "gobsec":
        raise MissingProgram(f"gobsec was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"gobsec.{layer}") for layer in LAYERS}), package


def set_up(workload: str, seed: int):
    t0 = time.perf_counter()
    g, package = load_gobsec()
    w = WORKLOADS[workload](g, seed)
    return time.perf_counter() - t0, w, g, package


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def layer_unit(name: str) -> str:
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def time_setups(args) -> tuple[list[float], list[float]]:
    """(set-up seconds, reference-loop seconds) of SETUP_REPEATS set-ups,
    each in a fresh child process as a user's `gobsec` would start. Each
    child times the reference loop just before and just after its set-up,
    since the host's speed can change within seconds."""
    setup_s, ref_s = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed in a child process:\n{proc.stderr}")
        setup, ref = proc.stdout.split()[-2:]
        setup_s.append(float(setup))
        ref_s.append(float(ref))
    return setup_s, ref_s


def setup_only(args) -> None:
    """A child's part of `time_setups`: one set-up, bracketed by reference
    loops."""
    before = [time_reference() for _ in range(REF_PER_SETUP)]
    dt = set_up(args.workload, args.seed)[0]
    after = [time_reference() for _ in range(REF_PER_SETUP)]
    print(dt, statistics.median(before + after))


def run_timed(args) -> tuple[dict, dict]:
    # The first set-up, in this process, compiles any missing bytecode and
    # gives the workload; the timed set-ups follow in child processes.
    first_s, w, _, _ = set_up(args.workload, args.seed)
    setup_s, setup_ref_s = time_setups(args)
    setup_scaled = statistics.median(t / r for t, r in zip(setup_s, setup_ref_s)) * REF_NOMINAL_S
    t0 = time.perf_counter()
    r = w.measure(args.seconds)
    timed_s = time.perf_counter() - t0
    gated = dict(r.in_ref, setup_s=setup_scaled)
    units = {"p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s", "steps_per_s": "1/s"}
    detail = {
        "phases": {"first_setup_s": first_s, "setup_s": setup_s, "setup_ref_s": setup_ref_s,
                   "timed_s": timed_s},
        "ref": {"median_s": statistics.median(r.host.samples), "n": len(r.host.samples),
                "min_s": min(r.host.samples), "max_s": max(r.host.samples)},
        "measured": {k: {"value": v, "unit": units[k]} for k, v in r.measured.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in r.named.items()},
        "fail_ratio": r.failed / r.attempted,
        "samples": r.samples,
        "seeds": r.seeds,
    }
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": gated[k], "unit": u} for k, u in END_TO_END.items()},
    }
    return detail, result


def run_traced(args) -> tuple[dict, dict]:
    setup_s, w, g, package = set_up(args.workload, args.seed)
    files = sorted(p.name for p in g.cli.corpus_dir().glob("*.gobsec"))
    t0 = time.perf_counter()
    attempted, failed = w.unit()
    untraced_s = time.perf_counter() - t0

    modules = {layer: getattr(g, layer) for layer in LAYERS}
    modules["gobsec"] = package
    tracer = Tracer(modules, {name: i for i, name in enumerate(files)})
    tracer.install()
    try:
        t0 = time.perf_counter()
        a, f = w.unit()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    leftovers = tracer.leftover_wrappers()
    attempted += a + 1
    failed += f + bool(leftovers)

    metrics, per_file = tracer.metrics(files)
    metrics.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1,
    })
    spans = tracer.write(OUT, f"trace-{args.workload}")
    detail = {
        "phases": {"setup_s": [setup_s], "untraced_unit_s": untraced_s, "traced_unit_s": traced_s},
        "prni_per_file": per_file,
        "wrapped_functions": len(tracer.names),
        "wrappers_left_after_uninstall": leftovers,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    try:
        detail, result = (run_traced if args.trace else run_timed)(args)
    except MissingProgram as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    detail["provenance"] = provenance(args)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Repeat each workload over several seeds and report, per end-to-end
metric, the median, quartiles and spread (quartile distance over median)
against the bound BENCHMARK.json fixes.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 30] [--first-seed 1]
        [--workload NAME ...] [--out perfbench/results/NAME.json] [--against EARLIER.json]

Runs are sequential, one `perfbench/run.py` process each. With `--against`,
each median is also compared with the same metric's median in an earlier
report. Exits 1 if a run fails its output checks, a spread exceeds its
bound, or a median is worse than the earlier one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from table import run  # noqa: E402


def summarize(values: list[float], bound: float | None = None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    if bound is not None:
        out.update(bound=bound, spread_over_bound=out["spread"] / bound)
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    report = {"runs": args.runs, "seconds": args.seconds, "seeds": [], "workloads": {}}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        measured: dict[str, list[float]] = {}
        provenance = None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            detail, result = run(workload, seed, args.seconds)
            provenance = detail["provenance"]
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, m in detail["measured"].items():
                measured.setdefault(name, []).append(m["value"])
            measured.setdefault("setup_s", []).append(statistics.median(detail["phases"]["setup_s"]))
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        stats = {name: summarize(v, bounds[name]) for name, v in values.items()}
        for name, s in stats.items():
            steady = s["spread"] <= s["bound"]
            verdict = "ok" if steady else "TOO WIDE"
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                worse = (s["median"] - before) / before * (1 if lower_is_better[name] else -1)
                s["worse_than_earlier"] = worse
                steady &= worse <= s["bound"]
                verdict += f" worse_than_earlier={worse:+.4f}" + ("" if worse <= s["bound"] else " REGRESSED")
            ok &= steady
            print(f"  {workload:12} {name:12} median={s['median']:.5g} q1={s['q1']:.5g} q3={s['q3']:.5g} "
                  f"spread={s['spread']:.4f} bound={s['bound']} {verdict}")
        # The same runs in seconds, before dividing by the host's speed: for
        # comparison only, not gated.
        raw = {name: summarize(v) for name, v in measured.items()}
        for name, s in raw.items():
            print(f"  {workload:12} {name:12} (seconds, not gated) median={s['median']:.5g} spread={s['spread']:.4f}")
        report["workloads"][workload] = {"metrics": stats, "measured": raw, "provenance": provenance}
    report["seeds"] = list(range(args.first_seed, args.first_seed + args.runs))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

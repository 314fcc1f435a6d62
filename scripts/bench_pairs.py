"""Compare the working tree with a parent commit on the gobsec benchmark
and write the before/after summary as JSON.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_11.json --seeds 1101-1110

The parent commit's files are exported with `git archive` into a
temporary directory; the change is the working tree this script sits in,
committed or not. The script stops if the parent's tracked files equal
the working tree's, since both sides would then run the same code. For
each workload that BENCHMARK.json lists and each seed it runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

once on each side, the parent first at the 1st, 3rd, 5th ... seed and
the change first at the others, so a drift of the machine's speed falls
on both sides alike. Each side gets its own fresh bytecode cache
(PYTHONPYCACHEPREFIX), so neither reads bytecode the other compiled.

Per workload the output holds the seeds, failed and attempted
operations per side, the exit codes seen, and per gated metric of
BENCHMARK.json: each side's median and quartiles (inclusive method), the
change's median over the parent's, the pairs the change wins, the
parent's quartile distance, and `worse_by` (the relative change in the
metric's bad direction). The `typing` workload also reports how many law
samples each side drew against its sample pool, so a gain from revisited
samples shows. The run length is BENCHMARK.json's `run_seconds`. The
report records the command line that wrote it. Nothing under perfbench/
is changed or patched.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """`1101-1110` or `3,5,9`."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def export_commit(rev: str, dest: Path) -> str:
    """Write the files of commit `rev` under `dest`; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha


def same_tree(sha: str) -> bool:
    """True when the tracked files of the working tree equal commit `sha`'s."""
    return subprocess.run(["git", "diff", "--quiet", sha, "--"], cwd=ROOT).returncode == 0


def run_once(tree: Path, pycache: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its exit code, `detail` and result."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed no result (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"exit": proc.returncode, "detail": detail, "result": result}


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Summary of one workload's pairs.

    `pairs` holds one entry per seed: {"seed", "parent", "change"}, each
    side a run as `run_once` returns it. `better` maps each gated metric
    to "lower" or "higher".
    """
    out = {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "failed": {side: sum(p[side]["result"]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["result"]["attempted"] for p in pairs) for side in SIDES},
        "exit_codes": sorted({p[side]["exit"] for p in pairs for side in SIDES}),
        "metrics": {},
    }
    for name, direction in better.items():
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        ratio = change["median"] / parent["median"]
        if direction == "lower":
            wins = sum(c < b for b, c in zip(values["parent"], values["change"]))
            worse_by = ratio - 1
        else:
            wins = sum(c > b for b, c in zip(values["parent"], values["change"]))
            worse_by = 1 - ratio
        out["metrics"][name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_over_parent": round(ratio, 3),
            "change_wins": wins,
            "parent_iqr": round(parent["q3"] - parent["q1"], 6),
            "worse_by": round(worse_by, 3),
        }
    samples = [p[side]["detail"].get("samples", {}) for p in pairs for side in SIDES]
    if all("law_samples" in s for s in samples):
        out["law_samples"] = {
            side: [p[side]["detail"]["samples"]["law_samples"] for p in pairs] for side in SIDES
        }
        out["sample_pool"] = samples[0]["sample_pool"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--parent", required=True, help="commit to compare the working tree against")
    ap.add_argument("--seeds", default="1101-1110", type=parse_seeds, help="one pair per seed")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": ROOT}
        sha = export_commit(args.parent, trees["parent"])
        if same_tree(sha):
            ap.error(f"the working tree's tracked files equal {args.parent}'s; name the commit before the change")
        caches = {side: tmp / f"pycache-{side}" for side in SIDES}
        workloads = {}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], caches[side], workload, seed, seconds)
                    m = pair[side]["result"]["metrics"]
                    print(f"{workload} seed {seed} {side}: exit {pair[side]['exit']}, "
                          + ", ".join(f"{n} {m[n]['value']:.4g}" for n in better), file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = summarize(pairs, better)

    report = {
        "command": ["python3", "scripts/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)],
        "parent": sha,
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0 "
            f"on the parent commit (exported with git archive) and on the working tree, one pair per "
            f"seed, the parent first at the 1st, 3rd, ... seed; each side with its own bytecode cache. "
            f"Per metric: median and quartiles (inclusive method) of each side's runs, change median "
            f"over parent median, pairs the change wins, the parent's quartile distance."
        ),
        "host": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

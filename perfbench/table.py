"""Run every workload once and print the end-to-end metrics under their
workload-specific names, one row per workload.

    python3 perfbench/table.py [--seed 1] [--seconds 30]

Each workload runs in its own `perfbench/run.py` process, one after the
other. Exits 1 if any output check fails or any run does not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: (column, unit, workload or None for every workload)
COLUMNS = [
    ("setup_s", "s", None),
    ("wall_s", "s", None),
    ("fail_ratio", "failed/attempted", None),
    ("verdict_p50_ms", "ms", "corpus-prni"),
    ("verdict_tail_ms", "ms", "corpus-prni"),
    ("contractions_per_s", "1/s", "fuzz-eval"),
    ("eval_p50_us", "us", "fuzz-eval"),
    ("eval_p99_ms", "ms", "fuzz-eval"),
    ("check_pass_ms", "ms", "typing"),
    ("equiv_laws_per_s", "1/s", "typing"),
    ("subtype_goals_per_s", "1/s", "typing"),
]


def run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(detail, result) of one `run.py` process with tracing off. A run
    whose output checks failed (exit status 1) still gives its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise subprocess.CalledProcessError(proc.returncode, cmd, proc.stdout, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def row(workload: str, detail: dict, result: dict) -> dict[str, str]:
    named = detail["named"]
    samples = detail["samples"]
    cells = {
        "setup_s": f"{result['metrics']['setup_s']['value']:.3f}",
        "wall_s": f"{detail['phases']['timed_s']:.1f}",
        "fail_ratio": f"{result['failed']}/{result['attempted']}",
    }
    for name, _, owner in COLUMNS[3:]:
        if owner == workload:
            cells[name] = f"{named[name]['value']:.4g}"
    if workload == "corpus-prni":
        cells["verdict_tail_ms"] += f" (p{samples['verdict_tail_percentile']}, n={samples['verdict_n']})"
    if workload == "fuzz-eval":
        cells["eval_p99_ms"] += f" (p{samples['eval_tail_percentile']}, n={samples['eval_n']})"
    return cells


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    rows = {}
    ok = True
    for workload in WORKLOADS:
        try:
            detail, result = run(workload, args.seed, args.seconds)
        except (subprocess.CalledProcessError, ValueError, IndexError) as ex:
            print(f"{workload}: run failed: {ex}", file=sys.stderr)
            ok = False
            continue
        ok &= result["correct"]
        rows[workload] = row(workload, detail, result)
    headers = ["workload"] + [f"{name} [{unit}]" for name, unit, _ in COLUMNS]
    table = [headers] + [[w] + [cells.get(name, "-") for name, _, _ in COLUMNS] for w, cells in rows.items()]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

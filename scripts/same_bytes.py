"""Check that the working tree prints the same bytes as a parent commit.

    python3 scripts/same_bytes.py --parent HEAD~1

The parent commit's files are exported with `git archive` into a
temporary directory (`bench_pairs.export_commit`); the change is the
working tree this script sits in, committed or not. Both sides run

    python3 -m gobsec corpus --json --seed 1
    python3 -m gobsec prni FILE --json --seed S      for S in 1 and 7

at the default 1000 pairs, with FILE each program of the shipped corpus
(`src/gobsec/corpus/`) and of `tests/programs/`. A command's output is
its exit code and its standard output. For each command whose output
differs, the script prints the first differing line of each side; it
exits 1 if any command differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_commit  # noqa: E402

SEEDS = (1, 7)
JOBS = 2  # commands run at once
PROGRAM_DIRS = ("src/gobsec/corpus", "tests/programs")


def commands(tree: Path) -> list[list[str]]:
    """The gobsec arguments of every command, with the program files that
    `tree` holds, as paths relative to it."""
    files = [f.relative_to(tree).as_posix() for d in PROGRAM_DIRS for f in sorted((tree / d).glob("*.gobsec"))]
    return [["corpus", "--json", "--seed", "1"]] + [
        ["prni", f, "--json", "--seed", str(seed)] for f in files for seed in SEEDS
    ]


def run(tree: Path, args: list[str]) -> str:
    """`python3 -m gobsec ARGS` on the sources of `tree`, run there: its
    exit code on the first line, then its standard output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "gobsec", *args], cwd=tree, env=env, capture_output=True, text=True)
    return f"exit {proc.returncode}\n{proc.stdout}"


def first_difference(parent: str, change: str) -> tuple[int, str | None, str | None] | None:
    """The first line (1-based) where the two outputs differ, and that line
    on each side (None past a side's end); None when they are equal."""
    if parent == change:
        return None
    lines = itertools.zip_longest(parent.splitlines(keepends=True), change.splitlines(keepends=True))
    for n, (a, b) in enumerate(lines, 1):
        if a != b:
            return n, a, b
    raise AssertionError("unequal outputs with equal lines")


def report(args: list[str], diff: tuple[int, str | None, str | None]) -> str:
    """What the script prints for one differing command."""
    n, a, b = diff
    shown = {side: "(no line)" if line is None else repr(line) for side, line in (("parent", a), ("change", b))}
    return (
        f"gobsec {' '.join(args)}: differs at line {n}\n"
        f"  parent: {shown['parent']}\n"
        f"  change: {shown['change']}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare the working tree against")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        parent = Path(tmp) / "parent"
        sha = export_commit(args.parent, parent)
        todo = commands(ROOT)
        with ThreadPoolExecutor(JOBS) as pool:
            outputs = list(pool.map(lambda c: (run(parent, c), run(ROOT, c)), todo))

    differing = 0
    for c, (a, b) in zip(todo, outputs):
        diff = first_difference(a, b)
        if diff is not None:
            differing += 1
            print(report(c, diff))
    print(f"{len(todo)} commands against {sha[:12]}: {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden output: the CLI's JSON output on the shipped corpus and on
`tests/programs`, and every command's exit code, stdout and stderr on the
one-fault programs of `tests/errors`, byte for byte.

A refactoring that keeps behaviour must keep these bytes. A change that
means to alter them rewrites the files with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

(all of them when no NAME such as `errors.txt` is given), and the diff of
`tests/golden/` shows what moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from gobsec.cli import corpus_dir, main
from gobsec.syntax import fresh

GOLDEN = Path(__file__).parent / "golden"


PROGRAMS = Path(__file__).parent / "programs"
ERRORS = Path(__file__).parent / "errors"


def _prni(f: str) -> list[str]:
    return ["prni", f, "--seed", "1", "--pairs", "25", "--json"]


def _prni_seeds(f: str) -> list[list[str]]:
    # More seeds and two step indices: the RNG order of generation and
    # probing shows in every witness.
    return [
        ["prni", f, "--seed", str(seed), "--k", str(k), "--pairs", "25", "--json"]
        for seed in range(2, 7)
        for k in (2, 6)
    ]


def _errors(f: str) -> list[list[str]]:
    return [["check", f], ["check", "--simple", f], ["check", "--json", f], ["prni", f, "--seed", "1", "--pairs", "25"]]


# golden file name -> the argument lists built from a program path (None: one
# run over the whole corpus)
COMMANDS = {
    "check.txt": lambda f: [["check", f, "--json"]],
    "check_simple.txt": lambda f: [["check", "--simple", f, "--json"]],
    "prni.txt": lambda f: [_prni(f)],
    "prni_programs.txt": lambda f: [_prni(f)],
    "prni_seeds.txt": _prni_seeds,
    "corpus.txt": None,
    "corpus_1000.txt": None,
    "errors.txt": _errors,
}

# golden file name -> the one run over the whole corpus; at the default 1000
# pairs the probes reach budgets that 25 pairs do not
CORPUS_RUNS = {
    "corpus.txt": ["corpus", "--json", "--seed", "42", "--pairs", "25"],
    "corpus_1000.txt": ["corpus", "--json", "--seed", "1"],
}

# golden file name -> the directories whose programs it runs, where that is
# not the shipped corpus
PROGRAM_DIRS = {
    "prni_programs.txt": [PROGRAMS],
    "prni_seeds.txt": [corpus_dir(), PROGRAMS],
    "errors.txt": [ERRORS],
}

# golden file name -> one more run, over its whole directory, after the runs
# per program; these files also record stderr
DIR_RUNS = {"errors.txt": ["corpus", "--json", "--seed", "1", "--pairs", "25", str(ERRORS)]}


def _run(args: list[str], stderr: bool = False) -> str:
    res = CliRunner().invoke(main, args)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    err = f"-- stderr\n{res.stderr}" if stderr and res.stderr else ""
    return f"== {' '.join(Path(a).name for a in args)} -> exit {res.exit_code}\n{res.stdout}{err}"


def render(name: str) -> str:
    build = COMMANDS[name]
    if build is None:
        return _run(CORPUS_RUNS[name])
    dirs = PROGRAM_DIRS.get(name) or [corpus_dir()]
    programs = [p for d in dirs for p in sorted(d.glob("*.gobsec"))]
    stderr = name in DIR_RUNS
    out = "".join(_run(args, stderr) for p in programs for args in build(str(p)))
    return out + (_run(DIR_RUNS[name], stderr) if stderr else "")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name):
    assert render(name) == (GOLDEN / name).read_text(encoding="utf-8")


def _fresh_count() -> int:
    return int(fresh().split("%")[1])


@pytest.mark.parametrize(
    "path",
    [corpus_dir() / "subject_fst.gobsec", PROGRAMS / "list_tail_leak.gobsec"],
    ids=lambda p: p.name,
)
def test_prni_output_does_not_depend_on_earlier_fresh_names(path):
    # `syntax.fresh` is one counter for the whole process; printed names
    # must not show how many names earlier work drew. A verdict draws its
    # names once, for its templates, so the counter is also moved by hand.
    first = _run(_prni(str(path)))
    before = _fresh_count()
    _run(_prni(str(corpus_dir() / "list_concat_mixed.gobsec")))
    assert _fresh_count() > before
    for _ in range(1000):
        fresh()
    assert _fresh_count() > before + 1000
    assert _run(_prni(str(path))) == first


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or COMMANDS:
        (GOLDEN / name).write_text(render(name), encoding="utf-8")

"""Golden output: the CLI's JSON output on the shipped corpus and on
`tests/programs`, byte for byte.

A refactoring that keeps behaviour must keep these bytes. A change that
means to alter them rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of `tests/golden/` shows what moved.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from gobsec.cli import corpus_dir, main
from gobsec.syntax import fresh

GOLDEN = Path(__file__).parent / "golden"


def _prni(f: str) -> list[str]:
    return ["prni", f, "--seed", "1", "--pairs", "25", "--json"]


# golden file name -> argument list built from a program path (None: one run
# over the whole corpus)
COMMANDS = {
    "check.txt": lambda f: ["check", f, "--json"],
    "check_simple.txt": lambda f: ["check", "--simple", f, "--json"],
    "prni.txt": _prni,
    "prni_programs.txt": _prni,
    "corpus.txt": None,
}

# golden file name -> the directory whose programs it runs, where that is not
# the shipped corpus
PROGRAM_DIRS = {"prni_programs.txt": Path(__file__).parent / "programs"}


def _run(args: list[str]) -> str:
    res = CliRunner().invoke(main, args)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    return f"== {' '.join(Path(a).name for a in args)} -> exit {res.exit_code}\n{res.stdout}"


def render(name: str) -> str:
    build = COMMANDS[name]
    if build is None:
        return _run(["corpus", "--json", "--seed", "42", "--pairs", "25"])
    programs = PROGRAM_DIRS.get(name) or corpus_dir()
    return "".join(_run(build(str(p))) for p in sorted(programs.glob("*.gobsec")))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name):
    assert render(name) == (GOLDEN / name).read_text(encoding="utf-8")


def _fresh_count() -> int:
    return int(fresh().split("%")[1])


@pytest.mark.parametrize(
    "path",
    [corpus_dir() / "subject_fst.gobsec", PROGRAM_DIRS["prni_programs.txt"] / "list_tail_leak.gobsec"],
    ids=lambda p: p.name,
)
def test_prni_output_does_not_depend_on_earlier_fresh_names(path):
    # `syntax.fresh` is one counter for the whole process; printed names
    # must not show how many names earlier work drew.
    first = _run(_prni(str(path)))
    before = _fresh_count()
    _run(_prni(str(corpus_dir() / "list_concat_mixed.gobsec")))
    assert _fresh_count() > before + 1000
    assert _run(_prni(str(path))) == first


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in COMMANDS:
        (GOLDEN / name).write_text(render(name), encoding="utf-8")

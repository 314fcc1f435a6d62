"""Seeded mutation test of the command line: corpus and `tests/programs`
files, edited by fixed-seed token and byte edits, run through the click
CLI in-process. Whatever the edit, every command ends in a documented exit
code (0-5), never in a Python exception."""

import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from gobsec.cli import corpus_dir, main
from gobsec.parser import _KEYWORDS, _PUNCT

HERE = Path(__file__).parent
SOURCES = [p.read_text() for d in (corpus_dir(), HERE / "programs") for p in sorted(d.glob("*.gobsec"))]
# Inputs that once escaped as an exception, run as they are.
FIXED = [
    (HERE / "errors" / "empty_interval.gobsec").read_text(),
    "expect secure\n²\n",  # a digit that is not decimal
    "expect secure\n" + "9" * 5000,  # more digits than `int` converts at once
]
TOKENS = sorted(_KEYWORDS) + _PUNCT + ["x", "h", "a", "X", "Int", "String", "Bool", "Unit", "0", "7", '"ab"', "\n"]
MUTANTS = 1000

COMMANDS = {
    "check": lambda f, d: ["check", f],
    "check --simple": lambda f, d: ["check", "--simple", f],
    "prni": lambda f, d: ["prni", f, "--seed", "1", "--pairs", "5"],
    "corpus": lambda f, d: ["corpus", d, "--seed", "1", "--pairs", "5"],
}


def mutate(text: str, rng: random.Random) -> str:
    """One to three edits, each an inserted token, a deleted span or a
    duplicated span, at random offsets."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        edit = rng.choice(("insert", "delete", "duplicate"))
        if edit == "insert":
            text = f"{text[:i]} {rng.choice(TOKENS)} {text[i:]}"
        elif edit == "delete":
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def mutants(seed: int) -> list[str]:
    rng = random.Random(seed)
    return FIXED + [mutate(rng.choice(SOURCES), rng) for _ in range(MUTANTS)]


@pytest.mark.parametrize("seed, command", enumerate(sorted(COMMANDS)))
def test_mutants_end_in_a_documented_exit_code(tmp_path, seed, command):
    runner = CliRunner()
    path = tmp_path / "mutant.gobsec"
    for text in mutants(seed):
        path.write_text(text)
        res = runner.invoke(main, COMMANDS[command](str(path), str(tmp_path)))
        escaped = res.exception if not isinstance(res.exception, SystemExit) else None
        assert escaped is None, f"{command} raised {escaped!r} on:\n{text}"
        assert 0 <= res.exit_code <= 5, f"{command} exited {res.exit_code} on:\n{text}"

"""The comparison and report of scripts/same_bytes.py, on fixed strings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "scripts" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_equal_outputs_have_no_difference():
    assert same_bytes.first_difference("exit 0\n{}\n", "exit 0\n{}\n") is None
    assert same_bytes.first_difference("", "") is None


def test_the_first_differing_line_of_each_side():
    parent = "exit 5\n{\"trial\":1}\n{\"x\":2}\n"
    change = "exit 5\n{\"trial\":3}\n{\"x\":4}\n"
    assert same_bytes.first_difference(parent, change) == (2, "{\"trial\":1}\n", "{\"trial\":3}\n")
    assert same_bytes.first_difference("exit 0\n", "exit 5\n") == (1, "exit 0\n", "exit 5\n")


def test_a_side_that_ends_early_or_lacks_a_newline():
    assert same_bytes.first_difference("exit 0\nok\n", "exit 0\n") == (2, "ok\n", None)
    assert same_bytes.first_difference("exit 0\n", "exit 0\nextra\n") == (2, None, "extra\n")
    assert same_bytes.first_difference("exit 0\nok", "exit 0\nok\n") == (2, "ok", "ok\n")


def test_report_of_a_difference():
    got = same_bytes.report(["prni", "a.gobsec", "--json", "--seed", "7"], (2, "{\"trial\":1}\n", None))
    assert got == (
        "gobsec prni a.gobsec --json --seed 7: differs at line 2\n"
        "  parent: '{\"trial\":1}\\n'\n"
        "  change: (no line)"
    )


def test_commands_cover_the_corpus_and_test_programs_at_two_seeds():
    commands = same_bytes.commands(ROOT)
    files = sorted({c[1] for c in commands if c[0] == "prni"})
    assert commands[0] == ["corpus", "--json", "--seed", "1"]
    assert len(files) == len(list((ROOT / "src/gobsec/corpus").glob("*.gobsec"))) + len(
        list((ROOT / "tests/programs").glob("*.gobsec"))
    )
    assert "src/gobsec/corpus/list_concat_mixed.gobsec" in files
    assert "tests/programs/list_tail_leak.gobsec" in files
    assert [c for c in commands if c[1] == files[0]] == [
        ["prni", files[0], "--json", "--seed", "1"],
        ["prni", files[0], "--json", "--seed", "7"],
    ]

"""The command-line interface: exit codes, JSON output, corpus runner."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gobsec.cli import corpus_dir, main

LOGIN = """
type StringEq = Obj(a)[ eq : String! -> Bool! ]
var guess : String!
var password : String<StringEq>
if password.eq(guess) then "Login Successful" else "Login failed"
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def write(tmp_path):
    def go(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return go


class TestCheck:
    def test_welltyped_prints_type(self, runner, write):
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["check", f])
        assert res.exit_code == 0
        assert res.output.strip() == "String!"

    def test_type_error_exit_1(self, runner, write):
        src = LOGIN.replace(
            'if password.eq(guess) then "Login Successful" else "Login failed"',
            "expect secure at String!\npassword",
        )
        f = write("leak.gobsec", src)
        res = runner.invoke(main, ["check", f])
        assert res.exit_code == 1

    def test_wf_error_exit_2(self, runner, write):
        f = write("bad.gobsec", "var x : Bool<Int>\nx")
        res = runner.invoke(main, ["check", f])
        assert res.exit_code == 2

    def test_parse_error_exit_2(self, runner, write):
        f = write("syntax.gobsec", "var x :\nx")
        res = runner.invoke(main, ["check", f])
        assert res.exit_code == 2

    def test_simple_flag(self, runner, write):
        # Simply typed even though security-rejected at Bool!.
        src = 'type StringLen = Obj(a)[ length : Unit! -> Int! ]\nvar x : String<StringLen>\nx.eq("a")'
        f = write("eq.gobsec", src)
        res = runner.invoke(main, ["check", f, "--simple"])
        assert res.exit_code == 0 and res.output.strip() == "Bool"

    def test_json_shape(self, runner, write):
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["check", f, "--json"])
        payload = json.loads(res.output)
        assert payload == {"status": "ok", "type": "String!"}


class TestRun:
    def test_value(self, runner, write):
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["run", f, "--input", 'guess="a"', "--input", 'password="a"'])
        assert res.exit_code == 0 and res.output.strip() == '"Login Successful"'
        res = runner.invoke(main, ["run", f, "--input", 'guess="x"', "--input", 'password="secret"'])
        assert res.exit_code == 0 and res.output.strip() == '"Login failed"'

    def test_timeout_exit_3(self, runner, write):
        f = write("omega.gobsec", str((corpus_dir() / "omega.gobsec").read_text()))
        res = runner.invoke(main, ["run", f, "--fuel", "100"])
        assert res.exit_code == 3

    def test_missing_input_exit_2(self, runner, write):
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["run", f, "--input", 'guess="a"'])
        assert res.exit_code == 2

    def test_ill_typed_input_exit_2(self, runner, write):
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["run", f, "--input", "guess=1", "--input", 'password="a"'])
        assert res.exit_code == 2

    def test_object_input(self, runner, write):
        src = (
            "type Thunk = Obj(a)[ get : Unit! -> Int! ]\n"
            "var t : Thunk!\n"
            "t.get()"
        )
        f = write("thunk.gobsec", src)
        value = "new { z : Obj(a)[ get : Unit! -> Int! ]! get(u) => 7 }"
        res = runner.invoke(main, ["run", f, "--input", f"t={value}"])
        assert res.exit_code == 0 and res.output.strip() == "7"

    def test_printed_closure_shows_its_bound_input(self, runner, write):
        # The input is bound in the machine's environment; the closure the
        # body returns reads back with the input's value in its place.
        src = (
            "type Thunk = Obj(a)[ get : Unit! -> Int! ]\n"
            "var n : Int!\n"
            "new { z : Thunk! get(u) => n.+(1) }"
        )
        f = write("thunk.gobsec", src)
        res = runner.invoke(main, ["run", f, "--input", "n=41", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["steps"] == 0 and "41.+(1)" in payload["value"]


class TestPrniCommand:
    def test_no_counterexample_exit_0(self, runner, write):
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["prni", f, "--observe", "String!", "--pairs", "200", "--seed", "42"])
        assert res.exit_code == 0, res.output

    def test_counterexample_exit_5(self, runner, write):
        src = "var h : String?\nh"
        f = write("leak.gobsec", src)
        res = runner.invoke(main, ["prni", f, "--observe", "String!", "--seed", "42"])
        assert res.exit_code == 5
        assert "counterexample" in res.output

    def test_seed_required(self, runner, write, monkeypatch):
        monkeypatch.delenv("GOBSEC_SEED", raising=False)
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["prni", f])
        assert res.exit_code == 2

    def test_seed_from_environment(self, runner, write, monkeypatch):
        monkeypatch.setenv("GOBSEC_SEED", "42")
        f = write("login.gobsec", LOGIN)
        res = runner.invoke(main, ["prni", f, "--observe", "String!", "--pairs", "50"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("command", ["prni", "corpus"])
    def test_non_integer_seed_from_environment_exit_2(self, runner, write, monkeypatch, tmp_path, command):
        monkeypatch.setenv("GOBSEC_SEED", "4x2")
        f = write("login.gobsec", LOGIN + "expect secure at String!\n")
        res = runner.invoke(main, [command, f if command == "prni" else str(tmp_path)])
        assert res.exit_code == 2
        assert "GOBSEC_SEED" in res.stderr and "'4x2'" in res.stderr

    def test_json_is_seed_deterministic(self, runner, write):
        src = "var h : String?\nh"
        f = write("leak.gobsec", src)
        args = ["prni", f, "--observe", "String!", "--seed", "7", "--json"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["verdict"] == "counterexample"
        assert set(payload["witness"]) == {"sigma", "gamma1", "gamma2", "observation", "outputs"}

    def test_closed_program_reports_the_one_trial_it_ran(self, runner):
        omega = str(corpus_dir() / "omega.gobsec")
        res = runner.invoke(main, ["prni", omega, "--seed", "1", "--json"])
        assert res.exit_code == 0, res.output
        verdict = json.loads(res.output)
        assert verdict["trials"] == 1
        # The one trial diverges, so nothing was compared.
        assert verdict["compared"] == 0


class TestCorpusCommand:
    def test_shipped_corpus_passes_typing(self, runner):
        res = runner.invoke(main, ["corpus", "--typing-only"])
        assert res.exit_code == 0, res.output

    def test_flipped_expectation_fails(self, runner, write, tmp_path):
        (tmp_path / "bad.gobsec").write_text(LOGIN + "expect illtyped\n")
        res = runner.invoke(main, ["corpus", str(tmp_path), "--typing-only"])
        assert res.exit_code == 1
        assert "bad.gobsec" in res.output

    def test_empty_directory(self, runner, tmp_path):
        res = runner.invoke(main, ["corpus", str(tmp_path)])
        assert res.exit_code == 0
        assert "0/0" in res.output

    def test_json_output(self, runner, tmp_path, write):
        (tmp_path / "one.gobsec").write_text("var x : Int!\nexpect secure at Int!\nx")
        res = runner.invoke(main, ["corpus", str(tmp_path), "--typing-only", "--json"])
        payload = json.loads(res.output)
        assert payload["passed"] == 1 and payload["failed"] == 0

    def test_insecure_mismatch_reports_the_pairs_run(self, runner, tmp_path):
        # A closed program runs once, whatever --pairs asks for.
        (tmp_path / "closed.gobsec").write_text("expect insecure at Int!\n(1 : Int?)")
        res = runner.invoke(main, ["corpus", str(tmp_path), "--seed", "1", "--json"])
        assert res.exit_code == 1
        [result] = json.loads(res.output)["results"]
        assert result["detail"] == "no counterexample found in 1 pairs (1 compared)"

    def test_test_programs_meet_their_expectations(self, runner):
        # Object- and list-input programs kept out of the shipped corpus.
        programs = Path(__file__).parent / "programs"
        res = runner.invoke(main, ["corpus", str(programs), "--json", "--seed", "1", "--pairs", "50"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert (payload["passed"], payload["failed"]) == (5, 0)


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("prni", "--pairs", "-3"),
        ("prni", "--substs", "0"),
        ("prni", "--k", "0"),
        ("prni", "--fuel", "0"),
        ("corpus", "--pairs", "0"),
        ("run", "--fuel", "-1"),
    ],
)
def test_counts_below_one_exit_2(runner, write, tmp_path, command, option, value):
    f = write("leak.gobsec", "var h : String?\nh")
    target = str(tmp_path) if command == "corpus" else f
    extra = ["--seed", "1"] if command == "prni" else []
    res = runner.invoke(main, [command, target, option, value, *extra])
    assert res.exit_code == 2
    assert "is not in the range" in res.output


def test_deep_nesting_exits_2_without_traceback(runner, write):
    paren = write("paren.gobsec", "(" * 600 + "1" + ")" * 600)
    chain = write("chain.gobsec", "var x : Int!\nx" + ".+(1)" * 600)
    for args in (["check", paren], ["check", chain]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        assert res.stderr.strip() == "input nests too deeply"
        assert not isinstance(res.exception, RecursionError)


@pytest.mark.parametrize("n, fuel", [(2000, None), (100_000, 1_000_000)])
def test_deep_recursion_runs_without_python_recursion(runner, write, n, fuel):
    down = write(
        "down.gobsec",
        "var n : Int!\n"
        "new { f : Obj(a)[ down : Int! -> Int! ]!\n"
        "  down(n) => if n.eq(0) then 0 else f.down(n.-(1)).+(1)\n"
        "}.down(n)",
    )
    res = runner.invoke(main, ["run", down, "--input", f"n={n}"] + (["--fuel", str(fuel)] if fuel else []))
    assert res.exit_code == 0, res.output
    assert res.stdout.strip() == str(n)
    assert not isinstance(res.exception, RecursionError)

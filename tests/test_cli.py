"""The command-line interface: exit codes, JSON output, corpus runner."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import gobsec
from gobsec import cli, typecheck
from gobsec.cli import corpus_dir, main, run_corpus_file

LOGIN = """
type StringEq = Obj(a)[ eq : String! -> Bool! ]
var guess : String!
var password : String<StringEq>
if password.eq(guess) then "Login Successful" else "Login failed"
"""

RECURSIVE_BOUNDED = """
type A = Obj(s)[ p<X : Bool .. Top> : s? -> s? ]
type B = Obj(s)[ p<X : Bool .. Top> : s! -> Top? ]
var x : A!
expect illtyped at B!
x
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

    def test_non_decimal_digit_is_a_parse_error(self, runner, write):
        # `²` is a digit to `str.isdigit` but not a decimal one.
        f = write("superscript.gobsec", "expect secure\n²\n")
        res = runner.invoke(main, ["check", f])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        assert res.stderr == "parse error: 2:1: unexpected character '²'\n"

    def test_backslash_before_a_line_end_is_one_line_of_error(self, runner, write):
        f = write("escape.gobsec", 'var s : String!\ns.concat("ab\\\n")\n')
        # Every command reports an exit 2 on stderr, in one line.
        for args in (["check", f], ["run", f, "--input", 's="a"'], ["prni", f, "--seed", "1"]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2
            assert res.stdout == ""
            assert res.stderr == "parse error: 2:10: unterminated string escape\n"
        # A JSON payload stays on stdout.
        res = runner.invoke(main, ["run", f, "--json"])
        assert res.exit_code == 2 and res.stderr == ""
        assert json.loads(res.stdout)["outcome"] == "error"

    def test_recursive_subtyping_goal_revisited_under_a_bounded_parameter(self, runner, tmp_path):
        # Deciding A <: B meets B <: A and then A <: B again, each time one
        # signature parameter deeper; the revisit must close the loop.
        (tmp_path / "loop.gobsec").write_text(RECURSIVE_BOUNDED)
        (tmp_path / "login.gobsec").write_text((corpus_dir() / "login.gobsec").read_text())
        res = runner.invoke(main, ["check", str(tmp_path / "loop.gobsec")])
        assert res.exit_code == 1, res.output
        assert res.stdout.startswith("error [TSub]") and res.stderr == ""
        res = runner.invoke(main, ["corpus", str(tmp_path), "--seed", "1"])
        assert res.exit_code == 0, res.output
        assert res.stdout.endswith("2/2 passed\n")

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

    def test_observe_help_names_the_expectation_before_the_synthesized_type(self, runner):
        res = runner.invoke(main, ["prni", "--help"])
        assert "defaults to `expect ... at`, else the synthesized type" in " ".join(res.output.split())

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

    @pytest.mark.parametrize(
        "name, message",
        [
            ("wf_eq_bad.gobsec", "variable p: method eq: a standard signature over a primitive"),
            ("wf_bool_int.gobsec", "variable x: declassification facet Int does not match safety facet Bool"),
        ],
    )
    def test_ill_formed_environment_exit_2(self, runner, name, message):
        res = runner.invoke(main, ["prni", str(corpus_dir() / name), "--seed", "1", "--pairs", "25", "--json"])
        assert res.exit_code == 2
        assert res.stderr == ""
        payload = json.loads(res.stdout)
        assert set(payload) == {"error", "verdict"} and payload["verdict"] == "error"
        assert payload["error"].startswith(f"ill-formed environment: {message}")

    def test_json_error_on_stdout(self, runner, write, monkeypatch):
        # Every exit 2 of `prni --json` prints one JSON line on stdout and
        # nothing on stderr: a missing seed, a parse error (the error that
        # `run --json` prints), a bad --observe.
        monkeypatch.delenv("GOBSEC_SEED", raising=False)
        login = write("login.gobsec", LOGIN)
        bad = write("bad.gobsec", "var x : String!\n")
        parse_error = json.loads(runner.invoke(main, ["run", bad, "--json"]).stdout)["error"]
        cases = [
            ([login], "a seed is required: pass --seed or set GOBSEC_SEED"),
            ([bad, "--seed", "1"], parse_error),
            ([login, "--seed", "1", "--observe", "String<"], "bad --observe: "),
        ]
        for args, message in cases:
            res = runner.invoke(main, ["prni", *args, "--json"])
            assert res.exit_code == 2
            assert res.stderr == ""
            assert res.stdout.count("\n") == 1
            payload = json.loads(res.stdout)
            assert payload["verdict"] == "error" and payload["error"].startswith(message)

    def test_ill_formed_observation_exit_2(self, runner):
        # Int is not above String, so `String<Int>` relates no pair the
        # program could leak through: testing at it would pass a leaky file.
        leak_high = str(corpus_dir() / "leak_high.gobsec")
        args = ["prni", leak_high, "--seed", "1", "--pairs", "25"]
        res = runner.invoke(main, [*args, "--observe", "String<Int>"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "ill-formed observation type: declassification facet Int does not match safety facet String\n"
        assert runner.invoke(main, [*args, "--observe", "String!"]).exit_code == 5

    def test_k_1_at_an_object_observation_exit_2(self, runner):
        # Method results are compared at k - 1 = 0, which relates everything.
        subject_fst = str(corpus_dir() / "subject_fst.gobsec")
        res = runner.invoke(main, ["prni", subject_fst, "--seed", "1", "--k", "1", "--pairs", "200"])
        assert res.exit_code == 2
        assert "--k 2 or more" in res.stderr
        res = runner.invoke(main, ["prni", subject_fst, "--seed", "1", "--k", "2", "--pairs", "200"])
        assert res.exit_code == 5

    @pytest.mark.parametrize(
        "bounds, exit_code_at_k_1",
        [("StrFstLen .. StringLen", 2), ("String .. Top", 2), ("String .. String", 5)],
    )
    def test_k_1_at_a_type_variable_facet(self, runner, write, bounds, exit_code_at_k_1):
        # The guard reads the facet under every substitution the harness can
        # draw: one object instantiation makes `--k 1` vacuous. At a
        # primitive facet, `--k 1` compares the secret itself and refutes.
        f = write(
            "tvar_facet.gobsec",
            "type StringLen = Obj(a)[ length : Unit! -> Int! ]\n"
            "type StrFstLen = Obj(a)[ first : Unit! -> String!, length : Unit! -> Int! ]\n"
            f"tvar X : {bounds}\nvar h : String?\nh",
        )
        args = ["prni", f, "--observe", "String<X>", "--seed", "1", "--pairs", "50"]
        res = runner.invoke(main, [*args, "--k", "1"])
        assert res.exit_code == exit_code_at_k_1, res.output
        if exit_code_at_k_1 == 2:
            assert "--k 2 or more" in res.stderr
            assert runner.invoke(main, [*args, "--k", "2"]).exit_code == 5

    def test_k_1_at_a_primitive_observation_runs(self, runner, write):
        f = write("leak.gobsec", "var h : String?\nh")
        res = runner.invoke(main, ["prni", f, "--observe", "String!", "--seed", "1", "--k", "1"])
        assert res.exit_code == 5

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

    @pytest.mark.parametrize("expect", ["insecure at String<StringFst>", "secure"])
    def test_harness_error_is_a_failed_result(self, runner, tmp_path, expect):
        # No type lies within X's bounds, so the harness cannot instantiate
        # the program: the file fails with its message, not a traceback.
        text = (Path(__file__).parent / "errors" / "empty_interval.gobsec").read_text()
        (tmp_path / "empty.gobsec").write_text(text.replace("insecure at String<StringFst>", expect))
        res = runner.invoke(main, ["corpus", str(tmp_path), "--seed", "1", "--json"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        [result] = json.loads(res.output)["results"]
        assert result["detail"] == "no candidate type lies within the bounds of X"
        assert not result["passed"]

    def test_ill_formed_at_is_a_failed_result(self, runner, tmp_path):
        # Typing rejects the file for its ill-formed `at`; the differential
        # test must not then run at that type as if it were a policy.
        (tmp_path / "bad_at.gobsec").write_text("var h : String?\nexpect insecure at String<Int>\nh")
        res = runner.invoke(main, ["corpus", str(tmp_path), "--seed", "1", "--json"])
        assert res.exit_code == 1
        [result] = json.loads(res.output)["results"]
        assert result["detail"] == (
            "ill-formed observation type: declassification facet Int does not match safety facet String"
        )

    def test_test_programs_meet_their_expectations(self, runner):
        # Object- and list-input programs kept out of the shipped corpus.
        programs = Path(__file__).parent / "programs"
        res = runner.invoke(main, ["corpus", str(programs), "--json", "--seed", "1", "--pairs", "50"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert (payload["passed"], payload["failed"]) == (5, 0)


@pytest.fixture
def body_typings(monkeypatch):
    """Counts the `sec_synth` and `simple_synth` calls whose term is the body
    of a program the CLI parsed; calls on its sub-terms are not counted."""
    bodies, calls = [], Counter()
    parse = cli.parse_program

    def parse_and_remember(text):
        prog = parse(text)
        bodies.append(prog.body)
        return prog

    monkeypatch.setattr(cli, "parse_program", parse_and_remember)
    for name in ("sec_synth", "simple_synth"):
        real = getattr(typecheck, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += any(args[-1] is body for body in bodies)
            return _real(*args)

        for module in (cli, typecheck):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestEachPhaseRunsOnce:
    @pytest.mark.parametrize(
        "args",
        [
            ["check", "login.gobsec"],
            ["check", "leak_high.gobsec"],
            ["prni", "login.gobsec", "--seed", "1", "--pairs", "5"],
            ["prni", "list_cons.gobsec", "--seed", "1", "--pairs", "5"],
            ["prni", "leak_high.gobsec", "--seed", "1", "--pairs", "5"],
        ],
        ids=" ".join,
    )
    def test_command(self, runner, body_typings, args):
        res = runner.invoke(main, [args[0], str(corpus_dir() / args[1]), *args[2:]])
        assert res.exit_code in (0, 1, 5), res.output
        assert body_typings["sec_synth"] <= 1 and body_typings["simple_synth"] <= 1, body_typings

    def test_check_simple_runs_no_security_typing(self, runner, body_typings):
        res = runner.invoke(main, ["check", "--simple", str(corpus_dir() / "login.gobsec")])
        assert res.exit_code == 0
        assert body_typings == {"simple_synth": 1}

    @pytest.mark.parametrize("name", ["login.gobsec", "leak_high.gobsec", "login_leak.gobsec"])
    @pytest.mark.parametrize("typing_only", [False, True])
    def test_corpus_file(self, body_typings, name, typing_only):
        result = run_corpus_file(corpus_dir() / name, 1, typing_only, 5)
        assert result.passed, result
        assert body_typings["sec_synth"] == 1 and body_typings["simple_synth"] <= 1, body_typings


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


def test_python_m_gobsec_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(Path(gobsec.__file__).parent.parent)}
    res = subprocess.run(
        [sys.executable, "-m", "gobsec", "check", str(corpus_dir() / "login.gobsec")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "String!\n"

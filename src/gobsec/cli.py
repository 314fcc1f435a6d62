"""Command-line front door: check, run, and differentially test GObSec
programs, plus a corpus runner for expectation-annotated files.

Exit codes are a stable contract:

    0  success (well-typed / value / no counterexample / corpus passed)
    1  security type error (or corpus mismatch)
    2  parse, well-formedness, input, or configuration error (input that
       nests too deeply included)
    3  evaluation timed out
    4  evaluation got stuck
    5  a noninterference counterexample was found
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import click

from .interp import DEFAULT_FUEL, Timeout, Value, bind, evaluate
from .parser import (
    ParseError,
    SourceProgram,
    parse_expr,
    parse_program,
    parse_sectype,
    pretty_print,
)
from .prni import Counterexample, NoCounterexample, PrniConfig, default_pool, prni_test, substitutions, verdict_to_json
from .syntax import GobsecError, ObjType, is_value, subst_type_vars
from .typecheck import TypeError_, sec_check, sec_synth, simple_synth
from .wellformed import WfIssue, wf_term_env, wf_tvar_env

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_BAD_INPUT = 2
EXIT_TIMEOUT = 3
EXIT_STUCK = 4
EXIT_COUNTEREXAMPLE = 5

POSITIVE = click.IntRange(min=1)


def corpus_dir() -> Path:
    """Location of the corpus shipped inside the package."""
    return Path(str(resources.files("gobsec") / "corpus"))


class _Group(click.Group):
    """The command group: input that nests past Python's recursion limit
    (deep parentheses, long receiver chains, deep evaluation) is a bad
    input, not a crash."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except RecursionError:
            click.echo("input nests too deeply", err=True)
            sys.exit(EXIT_BAD_INPUT)


@click.group(cls=_Group)
def main() -> None:
    """Typecheck, run, and differentially test GObSec programs."""


def _load(path: str) -> SourceProgram:
    text = Path(path).read_text(encoding="utf-8")
    return parse_program(text)


def _wf_envs(prog: SourceProgram) -> list[WfIssue]:
    issues: list[WfIssue] = []
    wf_tvar_env(prog.tvars, issues)
    wf_term_env(prog.tvars, prog.vars, issues)
    return issues


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        click.echo(text)


@main.command("check")
@click.argument("file", type=click.Path(exists=True))
@click.option("--simple", "simple_only", is_flag=True, help="Run the single-facet type system only.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def cmd_check(file: str, simple_only: bool, as_json: bool) -> None:
    """Typecheck FILE; print the synthesized type of its body."""
    try:
        prog = _load(file)
    except ParseError as ex:
        _emit({"status": "error", "error": str(ex)}, as_json, f"parse error: {ex}")
        sys.exit(EXIT_BAD_INPUT)
    issues = _wf_envs(prog)
    errors = [i for i in issues if i.severity == "error"]
    for i in issues:
        if not as_json:
            click.echo(str(i), err=True)
    if errors:
        _emit(
            {"status": "error", "diagnostics": [str(i) for i in issues]},
            as_json,
            "environment is ill-formed",
        )
        sys.exit(EXIT_BAD_INPUT)
    if simple_only:
        try:
            t = simple_synth(prog.vars, prog.body)
        except TypeError_ as ex:
            _emit({"status": "type-error", "diagnostics": [ex.diag.to_dict()]}, as_json, ex.diag.render())
            sys.exit(EXIT_TYPE_ERROR)
        _emit({"status": "ok", "type": pretty_print(t)}, as_json, pretty_print(t))
        sys.exit(EXIT_OK)
    target = prog.expect.at if prog.expect and prog.expect.at else None
    try:
        synthesized = sec_synth(prog.tvars, prog.vars, prog.body)
    except TypeError_ as ex:
        _emit({"status": "type-error", "diagnostics": [ex.diag.to_dict()]}, as_json, ex.diag.render())
        sys.exit(EXIT_TYPE_ERROR)
    if target is not None:
        ok, diags = sec_check(prog.tvars, prog.vars, prog.body, target)
        if not ok:
            _emit(
                {"status": "type-error", "diagnostics": [d.to_dict() for d in diags]},
                as_json,
                "\n".join(d.render() for d in diags),
            )
            sys.exit(EXIT_TYPE_ERROR)
    _emit({"status": "ok", "type": pretty_print(synthesized)}, as_json, pretty_print(synthesized))
    sys.exit(EXIT_OK)


@main.command("run")
@click.argument("file", type=click.Path(exists=True))
@click.option("--input", "inputs", multiple=True, metavar="NAME=EXPR", help="Value for a declared variable.")
@click.option("--fuel", default=DEFAULT_FUEL, show_default=True, type=POSITIVE, help="Step budget.")
@click.option("--json", "as_json", is_flag=True)
def cmd_run(file: str, inputs: tuple[str, ...], fuel: int, as_json: bool) -> None:
    """Evaluate FILE's body with --input values bound to its variables."""
    try:
        prog = _load(file)
    except ParseError as ex:
        _emit({"outcome": "error", "error": str(ex)}, as_json, f"parse error: {ex}")
        sys.exit(EXIT_BAD_INPUT)
    bindings = {}
    for item in inputs:
        if "=" not in item:
            _emit({"outcome": "error", "error": f"bad --input {item!r}"}, as_json, f"bad --input {item!r}")
            sys.exit(EXIT_BAD_INPUT)
        name, text = item.split("=", 1)
        try:
            value = parse_expr(text, prog.aliases, list(prog.tvars))
        except ParseError as ex:
            _emit({"outcome": "error", "error": str(ex)}, as_json, f"bad --input {name}: {ex}")
            sys.exit(EXIT_BAD_INPUT)
        bindings[name.strip()] = value
    missing = sorted(set(prog.vars) - set(bindings))
    if missing:
        msg = f"missing --input for {', '.join(missing)}"
        _emit({"outcome": "error", "error": msg}, as_json, msg)
        sys.exit(EXIT_BAD_INPUT)
    from .interp import erase_surface
    from .subtyping import simple_sub_type

    for name, value in bindings.items():
        if name not in prog.vars:
            msg = f"--input {name} is not declared"
            _emit({"outcome": "error", "error": msg}, as_json, msg)
            sys.exit(EXIT_BAD_INPUT)
        value = erase_surface(value)
        if not is_value(value):
            msg = f"--input {name} is not a value"
            _emit({"outcome": "error", "error": msg}, as_json, msg)
            sys.exit(EXIT_BAD_INPUT)
        try:
            got = simple_synth({}, value)
        except TypeError_ as ex:
            _emit({"outcome": "error", "error": f"--input {name}: {ex}"}, as_json, f"--input {name}: {ex}")
            sys.exit(EXIT_BAD_INPUT)
        if not simple_sub_type(got, prog.vars[name].safety):
            msg = f"--input {name} does not typecheck at {pretty_print(prog.vars[name].safety)}"
            _emit({"outcome": "error", "error": msg}, as_json, msg)
            sys.exit(EXIT_BAD_INPUT)
        bindings[name] = value
    out = evaluate(prog.body, fuel, bind(bindings))
    if isinstance(out, Value):
        _emit(
            {"outcome": "value", "value": pretty_print(out.expr), "steps": out.steps},
            as_json,
            pretty_print(out.expr),
        )
        sys.exit(EXIT_OK)
    if isinstance(out, Timeout):
        _emit({"outcome": "timeout", "steps": out.steps}, as_json, f"timeout after {out.steps} steps")
        sys.exit(EXIT_TIMEOUT)
    _emit(
        {"outcome": "stuck", "reason": out.reason, "steps": out.steps},
        as_json,
        f"stuck: {out.reason}",
    )
    sys.exit(EXIT_STUCK)


def _resolve_seed(seed: int | None) -> int | None:
    if seed is not None:
        return seed
    env = os.environ.get("GOBSEC_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        click.echo(f"GOBSEC_SEED must be an integer, got {env!r}", err=True)
        sys.exit(EXIT_BAD_INPUT)


@main.command("prni")
@click.argument("file", type=click.Path(exists=True))
@click.option("--observe", "observe", default=None, metavar="SECTYPE", help="Observation type (defaults to the synthesized type of the body).")
@click.option("--pairs", default=1000, show_default=True, type=POSITIVE)
@click.option("--substs", default=10, show_default=True, type=POSITIVE)
@click.option(
    "--k",
    "k",
    default=6,
    show_default=True,
    type=POSITIVE,
    help="Observation depth; at least 2 for an object observation type.",
)
@click.option("--fuel", default=10_000, show_default=True, type=POSITIVE)
@click.option("--seed", default=None, type=int, help="Required (or set GOBSEC_SEED).")
@click.option("--json", "as_json", is_flag=True)
def cmd_prni(file: str, observe: str | None, pairs: int, substs: int, k: int, fuel: int, seed: int | None, as_json: bool) -> None:
    """Differentially test FILE for noninterference at an observation type."""
    seed = _resolve_seed(seed)
    if seed is None:
        click.echo("a seed is required: pass --seed or set GOBSEC_SEED", err=True)
        sys.exit(EXIT_BAD_INPUT)
    try:
        prog = _load(file)
    except ParseError as ex:
        click.echo(f"parse error: {ex}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    issues = [i for i in _wf_envs(prog) if i.severity == "error"]
    if issues:
        click.echo(f"ill-formed environment: {issues[0].message}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    try:
        simple_synth(prog.vars, prog.body)
    except TypeError_ as ex:
        click.echo(f"program is not simply well-typed: {ex}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    if observe is not None:
        try:
            observe_at = parse_sectype(observe, prog.aliases, list(prog.tvars))
        except ParseError as ex:
            click.echo(f"bad --observe: {ex}", err=True)
            sys.exit(EXIT_BAD_INPUT)
    elif prog.expect and prog.expect.at is not None:
        observe_at = prog.expect.at
    else:
        try:
            observe_at = sec_synth(prog.tvars, prog.vars, prog.body)
        except TypeError_:
            click.echo("body has no synthesizable security type; pass --observe", err=True)
            sys.exit(EXIT_BAD_INPUT)
    # The facet as the harness sees it: under each substitution it can draw.
    if k < 2 and any(
        isinstance(subst_type_vars(observe_at.decl, sigma), ObjType)
        for sigma in substitutions(prog.tvars, default_pool(prog))
    ):
        click.echo("--k 1 relates every pair at an object observation type; use --k 2 or more", err=True)
        sys.exit(EXIT_BAD_INPUT)
    config = PrniConfig(pairs=pairs, substs=substs, k=k, fuel=fuel, seed=seed)
    try:
        verdict = prni_test(prog, observe_at, config)
    except GobsecError as ex:
        click.echo(str(ex), err=True)
        sys.exit(EXIT_BAD_INPUT)
    if as_json:
        click.echo(verdict_to_json(verdict))
    elif isinstance(verdict, NoCounterexample):
        click.echo(
            f"no counterexample in {verdict.pairs_tested} pairs "
            f"({verdict.compared} compared, {verdict.substs_tested} substitutions, k={verdict.max_k})"
        )
    else:
        click.echo("counterexample found:")
        click.echo(json.dumps(verdict.to_dict()["witness"], indent=2, sort_keys=True))
    sys.exit(EXIT_OK if isinstance(verdict, NoCounterexample) else EXIT_COUNTEREXAMPLE)


@dataclass
class CorpusResult:
    file: str
    expect: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"file": self.file, "expect": self.expect, "passed": self.passed, "detail": self.detail}


def run_corpus_file(path: Path, seed: int, typing_only: bool = False, pairs: int = 1000) -> CorpusResult:
    """Evaluate one corpus file against its `expect` annotation."""
    name = path.name
    try:
        prog = parse_program(path.read_text(encoding="utf-8"))
    except ParseError as ex:
        return CorpusResult(name, "?", False, f"parse error: {ex}")
    if prog.expect is None or prog.expect.kind is None:
        return CorpusResult(name, "?", False, "missing expect annotation")
    kind = prog.expect.kind
    issues = [i for i in _wf_envs(prog) if i.severity == "error"]
    if issues:
        ok = kind == "illtyped"
        return CorpusResult(name, kind, ok, f"ill-formed environment: {issues[0].message}")
    target = prog.expect.at
    try:
        synthesized = sec_synth(prog.tvars, prog.vars, prog.body)
    except TypeError_ as ex:
        synthesized = None
        synth_error = str(ex)
    else:
        synth_error = None
    if prog.expect.exact is not None:
        from .algebra import sectype_equiv

        if synthesized is None or not sectype_equiv(synthesized, prog.expect.exact):
            got = pretty_print(synthesized) if synthesized is not None else synth_error
            return CorpusResult(name, kind, False, f"expected exact type {pretty_print(prog.expect.exact)}, got {got}")
    if target is not None and synthesized is not None:
        checked, diags = sec_check(prog.tvars, prog.vars, prog.body, target)
    elif synthesized is not None:
        checked, diags = True, []
    else:
        checked, diags = False, []
    if kind == "illtyped":
        if checked:
            return CorpusResult(name, kind, False, "expected a type error, but the program checks")
        detail = diags[0].message if diags else (synth_error or "rejected")
        return CorpusResult(name, kind, True, detail)
    if kind == "secure":
        if not checked:
            detail = diags[0].message if diags else (synth_error or "type error")
            return CorpusResult(name, kind, False, f"expected well-typed: {detail}")
        if typing_only:
            return CorpusResult(name, kind, True, f"checks at {pretty_print(target or synthesized)}")
        observe = target if target is not None else synthesized
        verdict = prni_test(prog, observe, PrniConfig(pairs=pairs, seed=seed))
        if isinstance(verdict, Counterexample):
            return CorpusResult(name, kind, False, f"unexpected counterexample at trial {verdict.trial}")
        return CorpusResult(
            name, kind, True, f"checks; no counterexample in {verdict.pairs_tested} pairs ({verdict.compared} compared)"
        )
    if kind == "insecure":
        if target is None:
            return CorpusResult(name, kind, False, "insecure expectation needs `at SECTYPE`")
        if checked:
            return CorpusResult(name, kind, False, "expected rejection, but the program checks")
        try:
            simple_synth(prog.vars, prog.body)
        except TypeError_ as ex:
            return CorpusResult(name, kind, False, f"not simply well-typed: {ex}")
        if typing_only:
            return CorpusResult(name, kind, True, "rejected by the checker (differential test skipped)")
        verdict = prni_test(prog, target, PrniConfig(pairs=pairs, seed=seed))
        if isinstance(verdict, NoCounterexample):
            return CorpusResult(
                name, kind, False, f"no counterexample found in {verdict.pairs_tested} pairs ({verdict.compared} compared)"
            )
        return CorpusResult(name, kind, True, f"counterexample at trial {verdict.trial}")
    return CorpusResult(name, kind, False, f"unknown expectation {kind}")


@main.command("corpus")
@click.argument("directory", type=click.Path(exists=True, file_okay=False), required=False)
@click.option("--seed", default=None, type=int)
@click.option("--typing-only", is_flag=True, help="Check expectations by typing alone (fast).")
@click.option("--pairs", default=1000, show_default=True, type=POSITIVE)
@click.option("--json", "as_json", is_flag=True)
def cmd_corpus(directory: str | None, seed: int | None, typing_only: bool, pairs: int, as_json: bool) -> None:
    """Run every .gobsec file in DIRECTORY (default: the shipped corpus)
    against its expectation annotation."""
    seed = _resolve_seed(seed)
    if seed is None:
        seed = 42
    root = Path(directory) if directory else corpus_dir()
    results = [run_corpus_file(p, seed, typing_only, pairs) for p in sorted(root.glob("*.gobsec"))]
    failed = [r for r in results if not r.passed]
    if as_json:
        click.echo(
            json.dumps(
                {
                    "results": [r.to_dict() for r in results],
                    "passed": len(results) - len(failed),
                    "failed": len(failed),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    else:
        width = max((len(r.file) for r in results), default=4)
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            click.echo(f"{mark}  {r.file:<{width}}  [{r.expect}] {r.detail}")
        click.echo(f"{len(results) - len(failed)}/{len(results)} passed")
    sys.exit(EXIT_OK if not failed else EXIT_TYPE_ERROR)


if __name__ == "__main__":
    main()

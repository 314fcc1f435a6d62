"""Command-line front door: check, run, and differentially test GObSec
programs, plus a corpus runner for expectation-annotated files.

`check`, `prni` and the corpus runner run one pipeline. Its phases, each
written once, run in this order, and the first that fails stops the run:

    parse            exit 2
    well-formedness  exit 2 on an error in the environments
    security typing  exit 1: the body's type is synthesized once, then
                     checked at `expect ... at` by TSub (`check --simple`
                     types it simply instead; `prni` skips this phase)
    observation and  exit 2: the type is --observe, else `expect ... at`
    PRNI             (either must be well formed), else the synthesized
                     type; then the --k guard and `prni_test`, which
                     requires simple typing

A corpus file that stops passes only if it is `illtyped` and typing or
well-formedness stopped it; any failed file makes `corpus` exit 1.

Exit codes are a stable contract:

    0  success (well-typed / value / no counterexample / corpus passed)
    1  security type error (or corpus mismatch)
    2  parse, well-formedness, input, or configuration error (input that
       nests too deeply included)
    3  evaluation timed out
    4  evaluation got stuck
    5  a noninterference counterexample was found

The message of an exit 2 goes to stderr, as do `check`'s well-formedness
issues; with --json, `check`, `run` and `prni` print theirs, as JSON, on
stdout instead (`prni` as `{"error": ..., "verdict": "error"}`), except
for a bad `GOBSEC_SEED`. Results and type errors go to stdout.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import click

from .algebra import _equiv_sec
from .interp import DEFAULT_FUEL, Timeout, Value, bind, erase_surface, evaluate
from .parser import (
    ParseError,
    SourceProgram,
    parse_expr,
    parse_program,
    parse_sectype,
    pretty_print,
)
from .prni import Counterexample, NoCounterexample, PrniConfig, default_pool, prni_test, substitutions, verdict_to_json
from .subtyping import simple_sub_type
from .syntax import Faceted, GobsecError, ObjType, is_value, subst_type_vars
from .typecheck import Diagnostic, TypeError_, sec_synth, simple_synth, subsume
from .wellformed import WfIssue, wf_sectype, wf_term_env, wf_tvar_env

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


class _Stop(Exception):
    """A phase failed, and the run stops there. `message` is the one-line
    reason (a corpus result's detail; the error `run --json` and `prni
    --json` print, unless `payload` has one); `text` is what a command
    prints without --json (the message unless it says more); `payload` is
    what `check --json` prints, and its status ("error" or "type-error")
    picks exit 2 or 1."""

    def __init__(self, message: str, text: str | None = None, payload: dict | None = None):
        super().__init__(message)
        self.message = message
        self.text = message if text is None else text
        self.payload = payload


def _rejected(message: str, diags: list[Diagnostic]) -> _Stop:
    payload = {"status": "type-error", "diagnostics": [d.to_dict() for d in diags]}
    return _Stop(message, "\n".join(d.render() for d in diags), payload)


def _load(path: str | Path) -> SourceProgram:
    """Parse: a parse error stops the run."""
    try:
        return parse_program(Path(path).read_text(encoding="utf-8"))
    except ParseError as ex:
        raise _Stop(f"parse error: {ex}", payload={"status": "error", "error": str(ex)}) from None


def _wf(prog: SourceProgram, echo: bool = False) -> None:
    """Well-formedness of the environments: an error stops the run. With
    `echo`, every issue (warnings too) goes to stderr, and the stop's text
    says only that the environment is ill-formed."""
    issues: list[WfIssue] = []
    wf_tvar_env(prog.tvars, issues)
    wf_term_env(prog.tvars, prog.vars, issues)
    for i in issues if echo else ():
        click.echo(str(i), err=True)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        payload = {"status": "error", "diagnostics": [str(i) for i in issues]}
        text = "environment is ill-formed" if echo else None
        raise _Stop(f"ill-formed environment: {errors[0].message}", text, payload)


def _simple_type(prog: SourceProgram):
    """Simple typing, where no PRNI follows (`prni_test` does its own)."""
    try:
        return simple_synth(prog.vars, prog.body)
    except TypeError_ as ex:
        raise _rejected(f"not simply well-typed: {ex}", [ex.diag]) from None


def _synth(prog: SourceProgram) -> Faceted:
    """Security typing, first half: the body's type, synthesized once."""
    try:
        return sec_synth(prog.tvars, prog.vars, prog.body)
    except TypeError_ as ex:
        raise _rejected(str(ex), [ex.diag]) from None


def _subsume(prog: SourceProgram, got: Faceted) -> Faceted:
    """Security typing, second half: the synthesized type `got` checked at
    `expect ... at`, where there is one."""
    at = prog.expect.at if prog.expect else None
    diags = subsume(prog.tvars, prog.body, got, at) if at is not None else []
    if diags:
        raise _rejected(diags[0].message, diags)
    return got


def _well_formed(prog: SourceProgram, at: Faceted) -> Faceted:
    """A given observation type, which must be well formed under the
    program's type variables: an ill-formed one stops the run."""
    issues: list[WfIssue] = []
    if not wf_sectype(prog.tvars, at, issues):
        raise _Stop(f"ill-formed observation type: {issues[0].message}")
    return at


def _prni(
    prog: SourceProgram, config: PrniConfig, observe: str | None = None, got: Faceted | None = None
) -> Counterexample | NoCounterexample:
    """Observation and PRNI: test at `observe` (a --observe type), else at
    `expect ... at`, else at the synthesized type `got` (synthesized here
    when not given). The harness's own errors stop the run."""
    try:
        if observe is not None:
            try:
                at = _well_formed(prog, parse_sectype(observe, prog.aliases, list(prog.tvars)))
            except ParseError as ex:
                raise _Stop(f"bad --observe: {ex}") from None
        elif prog.expect and prog.expect.at is not None:
            at = _well_formed(prog, prog.expect.at)
        elif got is not None:
            at = got
        else:
            try:
                at = _synth(prog)
            except _Stop:
                simple_synth(prog.vars, prog.body)  # a simple type error says more
                raise _Stop("body has no synthesizable security type; pass --observe") from None
        # The facet as the harness sees it: under each substitution it can draw.
        if config.k < 2 and any(
            isinstance(subst_type_vars(at.decl, sigma), ObjType)
            for sigma in substitutions(prog.tvars, default_pool(prog))
        ):
            raise _Stop("--k 1 relates every pair at an object observation type; use --k 2 or more")
        return prni_test(prog, at, config)
    except TypeError_ as ex:  # from simple typing, which `prni_test` requires
        raise _Stop(f"not simply well-typed: {ex}", f"program is not simply well-typed: {ex}") from None
    except GobsecError as ex:
        raise _Stop(str(ex)) from None


def _emit(payload: dict, as_json: bool, text: str, err: bool = False) -> None:
    """The JSON payload on stdout, or else `text`: on stderr when `err`
    (the message of an exit 2), on stdout otherwise."""
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        click.echo(text, err=err)


@main.command("check")
@click.argument("file", type=click.Path(exists=True))
@click.option("--simple", "simple_only", is_flag=True, help="Run the single-facet type system only.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def cmd_check(file: str, simple_only: bool, as_json: bool) -> None:
    """Typecheck FILE; print the synthesized type of its body."""
    try:
        prog = _load(file)
        _wf(prog, echo=not as_json)
        t = _simple_type(prog) if simple_only else _subsume(prog, _synth(prog))
    except _Stop as stop:
        bad_input = stop.payload["status"] == "error"
        _emit(stop.payload, as_json, stop.text, err=bad_input)
        sys.exit(EXIT_BAD_INPUT if bad_input else EXIT_TYPE_ERROR)
    _emit({"status": "ok", "type": pretty_print(t)}, as_json, pretty_print(t))
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
        bindings = {}
        for item in inputs:
            if "=" not in item:
                raise _Stop(f"bad --input {item!r}")
            name, text = item.split("=", 1)
            try:
                bindings[name.strip()] = parse_expr(text, prog.aliases, list(prog.tvars))
            except ParseError as ex:
                raise _Stop(str(ex), f"bad --input {name}: {ex}") from None
        missing = sorted(set(prog.vars) - set(bindings))
        if missing:
            raise _Stop(f"missing --input for {', '.join(missing)}")
        for name, value in bindings.items():
            if name not in prog.vars:
                raise _Stop(f"--input {name} is not declared")
            value = erase_surface(value)
            if not is_value(value):
                raise _Stop(f"--input {name} is not a value")
            try:
                got = simple_synth({}, value)
            except TypeError_ as ex:
                raise _Stop(f"--input {name}: {ex}") from None
            if not simple_sub_type(got, prog.vars[name].safety):
                raise _Stop(f"--input {name} does not typecheck at {pretty_print(prog.vars[name].safety)}")
            bindings[name] = value
    except _Stop as stop:
        error = stop.payload["error"] if stop.payload else stop.message
        _emit({"outcome": "error", "error": error}, as_json, stop.text, err=True)
        sys.exit(EXIT_BAD_INPUT)
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
@click.option("--observe", "observe", default=None, metavar="SECTYPE", help="Observation type (defaults to `expect ... at`, else the synthesized type of the body).")
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
    try:
        if seed is None:
            raise _Stop("a seed is required: pass --seed or set GOBSEC_SEED")
        prog = _load(file)
        _wf(prog)
        verdict = _prni(prog, PrniConfig(pairs=pairs, substs=substs, k=k, fuel=fuel, seed=seed), observe)
    except _Stop as stop:
        error = (stop.payload or {}).get("error", stop.message)
        _emit({"verdict": "error", "error": error}, as_json, stop.text, err=True)
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
    name, kind = path.name, "?"
    try:
        prog = _load(path)
        expect = prog.expect
        if expect is None or expect.kind is None:
            return CorpusResult(name, kind, False, "missing expect annotation")
        kind = expect.kind
        _wf(prog)
    except _Stop as stop:
        return CorpusResult(name, kind, kind == "illtyped", stop.message)
    got = rejected = None
    try:
        got = _synth(prog)
        _subsume(prog, got)
    except _Stop as stop:
        rejected = stop.message
    if expect.exact is not None and (got is None or not _equiv_sec(got, expect.exact, frozenset())):
        shown = rejected if got is None else pretty_print(got)
        return CorpusResult(name, kind, False, f"expected exact type {pretty_print(expect.exact)}, got {shown}")
    if kind == "illtyped":
        if rejected is None:
            return CorpusResult(name, kind, False, "expected a type error, but the program checks")
        return CorpusResult(name, kind, True, rejected)
    if kind == "secure" and rejected is not None:
        return CorpusResult(name, kind, False, f"expected well-typed: {rejected}")
    if kind == "insecure":
        if expect.at is None:
            return CorpusResult(name, kind, False, "insecure expectation needs `at SECTYPE`")
        if rejected is None:
            return CorpusResult(name, kind, False, "expected rejection, but the program checks")
    if typing_only and kind == "secure":
        return CorpusResult(name, kind, True, f"checks at {pretty_print(expect.at or got)}")
    try:
        if typing_only:
            _simple_type(prog)
            return CorpusResult(name, kind, True, "rejected by the checker (differential test skipped)")
        verdict = _prni(prog, PrniConfig(pairs=pairs, seed=seed), got=got)
    except _Stop as stop:
        return CorpusResult(name, kind, False, stop.message)
    secure = kind == "secure"
    if isinstance(verdict, Counterexample):
        found = f"counterexample at trial {verdict.trial}"
        return CorpusResult(name, kind, not secure, f"unexpected {found}" if secure else found)
    tested = f"{verdict.pairs_tested} pairs ({verdict.compared} compared)"
    if secure:
        return CorpusResult(name, kind, True, f"checks; no counterexample in {tested}")
    return CorpusResult(name, kind, False, f"no counterexample found in {tested}")


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
    failed = sum(not r.passed for r in results)
    width = max((len(r.file) for r in results), default=4)
    rows = [f"{'PASS' if r.passed else 'FAIL'}  {r.file:<{width}}  [{r.expect}] {r.detail}" for r in results]
    payload = {"results": [r.to_dict() for r in results], "passed": len(results) - failed, "failed": failed}
    _emit(payload, as_json, "\n".join([*rows, f"{len(results) - failed}/{len(results)} passed"]))
    sys.exit(EXIT_OK if not failed else EXIT_TYPE_ERROR)


if __name__ == "__main__":
    main()

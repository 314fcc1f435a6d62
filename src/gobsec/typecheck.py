"""The security type checker and the single-facet (simple) type system.

`sec_synth` computes a minimal security type algorithmically; subsumption
is applied only at checking positions (arguments, method bodies,
ascriptions, branch joins). Method invocation dispatches on where the
method lives: in the declassification facet the result keeps the
signature's declassification (instantiated at the type arguments), while
a method found only in the safety facet yields a private result. Calls to
primitive-signature methods resolve their publicness per argument at the
use site.

`simple_synth` types the safety facets alone and ignores declassification
entirely; it is the judgment under which the evaluator is safe, and the
one the differential harness requires of programs it runs (which may very
well fail security typing - that is what the harness is for).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    NoSuchMethod,
    has_method,
    in_interval,
    msig,
    rdecl_many,
    type_equiv,
)
from .subtyping import simple_sub_type, sub_wf_sectype
from .syntax import (
    TOP,
    Ascribe,
    DeclType,
    Expr,
    Faceted,
    GenericSig,
    GobsecError,
    If,
    Invoke,
    Let,
    ObjType,
    ObjectLit,
    Prim,
    PrimLit,
    PrimSig,
    Span,
    TermEnv,
    TypeVar,
    TypeVarEnv,
    Var,
    instantiate_tparams,
    subst_type_vars,
)
from .wellformed import WfIssue, wf_sectype


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    rule: str
    message: str
    span: Span = None

    def render(self) -> str:
        loc = f" @{self.span[0]}..{self.span[1]}" if self.span else ""
        return f"{self.severity} [{self.rule}]{loc}: {self.message}"

    def to_dict(self) -> dict:
        return {"severity": self.severity, "rule": self.rule, "message": self.message, "span": self.span}


class TypeError_(GobsecError):
    """Security (or simple) typing failure, carrying a diagnostic."""

    def __init__(self, diag: Diagnostic):
        super().__init__(diag.render())
        self.diag = diag


def _err(rule: str, message: str, span: Span = None) -> TypeError_:
    return TypeError_(Diagnostic("error", rule, message, span))


@dataclass
class CheckerContext:
    delta: TypeVarEnv
    gamma: TermEnv


# ---------------------------------------------------------------------------
# Pretty type names for messages (import cycle avoided via local import)
# ---------------------------------------------------------------------------


def _show(t) -> str:
    from .parser import pretty_print

    return pretty_print(t)


# ---------------------------------------------------------------------------
# Security typing
# ---------------------------------------------------------------------------


def sec_synth(delta: TypeVarEnv, gamma: TermEnv, e: Expr) -> Faceted:
    """Synthesize the minimal security type of `e`, or raise TypeError_."""
    ctx = CheckerContext(dict(delta), dict(gamma))
    return _synth(ctx, e)


def sec_check(
    delta: TypeVarEnv, gamma: TermEnv, e: Expr, expected: Faceted
) -> tuple[bool, list[Diagnostic]]:
    """Synthesize then check against `expected` by subsumption."""
    try:
        diags = subsume(delta, e, sec_synth(delta, gamma, e), expected)
    except TypeError_ as ex:
        diags = [ex.diag]
    return not diags, diags


def subsume(delta: TypeVarEnv, e: Expr, got: Faceted, expected: Faceted) -> list[Diagnostic]:
    """The errors, if any, that keep `e`, synthesized at `got`, from
    checking at `expected`: `expected` ill-formed, or TSub failing."""
    wf: list[WfIssue] = []
    if not wf_sectype(delta, expected, wf):
        return [Diagnostic("error", "WF", str(i)) for i in wf]
    if sub_wf_sectype(delta, got, expected):
        return []
    message = f"synthesized type {_show(got)} is not a subtype of {_show(expected)}"
    return [Diagnostic("error", "TSub", message, _span(e))]


def _span(e: Expr) -> Span:
    return getattr(e, "span", None)


def _synth(ctx: CheckerContext, e: Expr) -> Faceted:
    if isinstance(e, Var):
        if e.name not in ctx.gamma:
            raise _err("TVar", f"unbound variable {e.name}", e.span)
        return ctx.gamma[e.name]
    if isinstance(e, PrimLit):
        return Faceted(Prim(e.kind), Prim(e.kind))
    if isinstance(e, ObjectLit):
        return _synth_object(ctx, e)
    if isinstance(e, Invoke):
        return _synth_invoke(ctx, e)
    if isinstance(e, Ascribe):
        ok, diags = sec_check(ctx.delta, ctx.gamma, e.expr, e.at)
        if not ok:
            detail = "; ".join(d.message for d in diags)
            raise _err("TSub/AscriptionFailure", f"expression does not check at {_show(e.at)}: {detail}", e.span)
        return e.at
    if isinstance(e, If):
        return _synth_if(ctx, e)
    if isinstance(e, Let):
        bound = _synth(ctx, e.bound)
        inner = CheckerContext(ctx.delta, {**ctx.gamma, e.name: bound})
        return _synth(inner, e.body)
    raise _err("TVar", f"cannot type {type(e).__name__}", _span(e))


def _synth_object(ctx: CheckerContext, e: ObjectLit) -> Faceted:
    wf: list[WfIssue] = []
    if not wf_sectype(ctx.delta, e.sectype, wf):
        raise _err("TObj/WF", "; ".join(str(i) for i in wf), e.span)
    safety = e.sectype.safety
    if not isinstance(safety, ObjType):
        raise _err("TObj", f"object literal ascribed non-object safety type {_show(safety)}", e.span)
    declared = {name for name, _ in safety.methods}
    implemented = {m.name for m in e.methods}
    if declared != implemented:
        missing = declared - implemented
        extra = implemented - declared
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"undeclared {sorted(extra)}")
        raise _err("TObj", f"object methods do not match interface: {', '.join(parts)}", e.span)
    for mdef in e.methods:
        sig = msig({}, safety, mdef.name)
        if isinstance(sig, PrimSig):
            raise _err("TObj", f"method {mdef.name} has a primitive signature; object literals cannot implement it", e.span)
        if len(mdef.params) != len(sig.args):
            raise _err(
                "TObj",
                f"method {mdef.name} takes {len(mdef.params)} parameters but its signature has {len(sig.args)}",
                e.span,
            )
        inner_delta = dict(ctx.delta)
        for tp in sig.tparams:
            inner_delta[tp.name] = (tp.lower, tp.upper)
        inner_gamma = dict(ctx.gamma)
        inner_gamma[e.self_name] = e.sectype
        for p, s in zip(mdef.params, sig.args):
            inner_gamma[p] = s
        ok, diags = sec_check(inner_delta, inner_gamma, mdef.body, sig.ret)
        if not ok:
            detail = "; ".join(d.message for d in diags)
            raise _err("TObj", f"body of method {mdef.name} does not check at {_show(sig.ret)}: {detail}", e.span)
    return e.sectype


def _synth_invoke(ctx: CheckerContext, e: Invoke) -> Faceted:
    recv = _synth(ctx, e.recv)
    t, u = recv.safety, recv.decl
    if has_method(ctx.delta, u, e.method):
        declassified = True
        sig = msig(ctx.delta, u, e.method)
    elif has_method(ctx.delta, t, e.method):
        declassified = False
        sig = msig(ctx.delta, t, e.method)
    else:
        raise _err(
            "NoSuchMethod",
            f"method {e.method} exists in neither facet of {_show(recv)}",
            e.span,
        )
    if isinstance(sig, PrimSig):
        return _invoke_prim(ctx, e, sig, declassified)
    return _invoke_generic(ctx, e, sig, declassified)


def _invoke_prim(ctx: CheckerContext, e: Invoke, sig: PrimSig, declassified: bool) -> Faceted:
    rule = "TPmD" if declassified else "TPmH"
    if e.targs:
        raise _err(rule, f"method {e.method} has a primitive signature and takes no type arguments", e.span)
    if len(e.args) != len(sig.arg_kinds):
        raise _err(
            rule,
            f"method {e.method} expects {len(sig.arg_kinds)} arguments, got {len(e.args)}",
            e.span,
        )
    arg_types = []
    for arg, kind in zip(e.args, sig.arg_kinds):
        at = _synth(ctx, arg)
        if not type_equiv(at.safety, Prim(kind)):
            raise _err(
                f"{rule}/ArgMismatch",
                f"argument of {e.method} must be a {kind}, got {_show(at)}",
                _span(arg),
            )
        arg_types.append(at)
    if declassified:
        return Faceted(Prim(sig.ret_kind), rdecl_many(tuple(arg_types), sig.ret_kind))
    return Faceted(Prim(sig.ret_kind), TOP)


def _invoke_generic(ctx: CheckerContext, e: Invoke, sig: GenericSig, declassified: bool) -> Faceted:
    rule = "TmD" if declassified else "TmH"
    if len(e.args) != len(sig.args):
        raise _err(
            f"{rule}/ArgMismatch",
            f"method {e.method} expects {len(sig.args)} arguments, got {len(e.args)}",
            e.span,
        )
    if e.targs and len(e.targs) != len(sig.tparams):
        raise _err(
            f"{rule}/BoundViolation",
            f"method {e.method} takes {len(sig.tparams)} type arguments, got {len(e.targs)}",
            e.span,
        )
    arg_types = [_synth(ctx, a) for a in e.args]
    if sig.tparams and not e.targs:
        targs = _infer_targs(ctx, e, sig, arg_types)
    else:
        targs = list(e.targs)
    inst_args, inst_ret = _instantiate(ctx, e, sig, targs, rule)
    for arg, at, want in zip(e.args, arg_types, inst_args):
        if not sub_wf_sectype(ctx.delta, at, want):
            raise _err(
                f"{rule}/ArgMismatch",
                f"argument of {e.method} has type {_show(at)}, expected {_show(want)}",
                _span(arg),
            )
    if declassified:
        return inst_ret
    return Faceted(inst_ret.safety, TOP)


def _instantiate(
    ctx: CheckerContext, e: Invoke, sig: GenericSig, targs: list[DeclType], rule: str
) -> tuple[list[Faceted], Faceted]:
    """Check each type argument against its bounds, with the earlier
    arguments substituted in, then substitute all of them through the
    argument and return types at once."""
    actuals = iter(targs)

    def check(name: str, lo: DeclType, hi: DeclType) -> DeclType:
        actual = next(actuals)
        if not in_interval(ctx.delta, actual, lo, hi):
            raise _err(
                f"{rule}/BoundViolation",
                f"type argument {_show(actual)} for {name} is not within {_show(lo)} .. {_show(hi)}",
                e.span,
            )
        return actual

    sub = instantiate_tparams(sig.tparams, check)
    return [subst_type_vars(a, sub) for a in sig.args], subst_type_vars(sig.ret, sub)


def _infer_targs(
    ctx: CheckerContext, e: Invoke, sig: GenericSig, arg_types: list[Faceted]
) -> list[DeclType]:
    """Fill omitted type arguments: for each parameter try, in order, the
    declassification facet of the argument at a position declared exactly
    at that parameter, then the lower bound, then the upper bound; the
    first combination whose bound and argument checks succeed wins."""
    candidate_lists: list[list[DeclType]] = []
    for tp in sig.tparams:
        cands: list[DeclType] = []
        for at, declared in zip(arg_types, sig.args):
            if isinstance(declared.decl, TypeVar) and declared.decl.name == tp.name:
                cands.append(at.decl)
                break
        cands.append(tp.lower)
        cands.append(tp.upper)
        dedup: list[DeclType] = []
        for c in cands:
            if not any(type_equiv(c, d) for d in dedup):
                dedup.append(c)
        candidate_lists.append(dedup)
    last_error: TypeError_ | None = None
    for combo in itertools.product(*candidate_lists):
        try:
            inst_args, _ = _instantiate(ctx, e, sig, list(combo), "TmD")
        except TypeError_ as ex:
            last_error = ex
            continue
        if all(
            sub_wf_sectype(ctx.delta, at, want) for at, want in zip(arg_types, inst_args)
        ):
            return list(combo)
    if last_error is not None:
        raise last_error
    raise _err(
        "TmD/BoundViolation",
        f"could not infer type arguments for {e.method}; supply them explicitly",
        e.span,
    )


def _synth_if(ctx: CheckerContext, e: If) -> Faceted:
    cond = _synth(ctx, e.cond)
    if not type_equiv(cond.safety, Prim("Bool")):
        raise _err("If", f"condition must be a Bool, got {_show(cond)}", _span(e.cond))
    then_t = _synth(ctx, e.then)
    else_t = _synth(ctx, e.els)
    if sub_wf_sectype(ctx.delta, then_t, else_t):
        out = else_t
    elif sub_wf_sectype(ctx.delta, else_t, then_t):
        out = then_t
    else:
        raise _err(
            "If/IfBranchMismatch",
            f"branch types {_show(then_t)} and {_show(else_t)} are unrelated; ascribe the conditional",
            e.span,
        )
    if not type_equiv(cond.decl, Prim("Bool")):
        # Branching on a non-public condition makes the result private.
        out = Faceted(out.safety, TOP)
    return out


# ---------------------------------------------------------------------------
# Simple (single-facet) typing
# ---------------------------------------------------------------------------


def simple_synth(gamma: TermEnv, e: Expr):
    """Safety-facet-only typing; declassification facets (and hence the
    type variable environment) play no role."""
    return _ssynth(dict(gamma), e)


def _ssynth(gamma: dict, e: Expr):
    if isinstance(e, Var):
        if e.name not in gamma:
            raise _err("T1Var", f"unbound variable {e.name}", e.span)
        return gamma[e.name].safety
    if isinstance(e, PrimLit):
        return Prim(e.kind)
    if isinstance(e, ObjectLit):
        safety = e.sectype.safety
        if not isinstance(safety, ObjType):
            raise _err("T1Obj", "object literal ascribed non-object safety type", e.span)
        if {m for m, _ in safety.methods} != {m.name for m in e.methods}:
            raise _err("T1Obj", "object methods do not match interface", e.span)
        for mdef in e.methods:
            sig = msig({}, safety, mdef.name)
            if isinstance(sig, PrimSig):
                raise _err("T1Obj", f"method {mdef.name} has a primitive signature", e.span)
            if len(mdef.params) != len(sig.args):
                raise _err("T1Obj", f"method {mdef.name}: wrong parameter count", e.span)
            inner = dict(gamma)
            inner[e.self_name] = e.sectype
            for p, s in zip(mdef.params, sig.args):
                inner[p] = s
            got = _ssynth(inner, mdef.body)
            if not simple_sub_type(got, sig.ret.safety):
                raise _err(
                    "T1Obj",
                    f"body of {mdef.name} has type {_show(got)}, expected {_show(sig.ret.safety)}",
                    e.span,
                )
        return safety
    if isinstance(e, Invoke):
        t1 = _ssynth(gamma, e.recv)
        try:
            sig = msig({}, t1, e.method)
        except NoSuchMethod:
            raise _err("T1mI/NoSuchMethod", f"method {e.method} not in {_show(t1)}", e.span) from None
        if isinstance(sig, PrimSig):
            if len(e.args) != len(sig.arg_kinds):
                raise _err("T1PmI", f"method {e.method}: wrong argument count", e.span)
            for arg, kind in zip(e.args, sig.arg_kinds):
                got = _ssynth(gamma, arg)
                if not type_equiv(got, Prim(kind)):
                    raise _err("T1PmI", f"argument of {e.method} must be {kind}, got {_show(got)}", _span(arg))
            return Prim(sig.ret_kind)
        if len(e.args) != len(sig.args):
            raise _err("T1mI", f"method {e.method}: wrong argument count", e.span)
        for arg, want in zip(e.args, sig.args):
            got = _ssynth(gamma, arg)
            if not simple_sub_type(got, want.safety):
                raise _err("T1mI", f"argument of {e.method} has type {_show(got)}, expected {_show(want.safety)}", _span(arg))
        return sig.ret.safety
    if isinstance(e, Ascribe):
        got = _ssynth(gamma, e.expr)
        if not simple_sub_type(got, e.at.safety):
            raise _err("T1Sub", f"expression has type {_show(got)}, ascribed {_show(e.at.safety)}", e.span)
        return e.at.safety
    if isinstance(e, If):
        cond = _ssynth(gamma, e.cond)
        if not type_equiv(cond, Prim("Bool")):
            raise _err("T1mI", f"condition must be Bool, got {_show(cond)}", _span(e.cond))
        t = _ssynth(gamma, e.then)
        f = _ssynth(gamma, e.els)
        if simple_sub_type(t, f):
            return f
        if simple_sub_type(f, t):
            return t
        raise _err("T1mI", "branch types are unrelated", e.span)
    if isinstance(e, Let):
        bound = _ssynth(gamma, e.bound)
        inner = dict(gamma)
        inner[e.name] = Faceted(bound, TOP)
        return _ssynth(inner, e.body)
    raise _err("T1Var", f"cannot type {type(e).__name__}", _span(e))

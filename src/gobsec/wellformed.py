"""Well-formedness of types, faceted security types, and environments.

Scoping is read from the free self and generic names each type node
caches (`free_self_vars`, `free_type_vars`); no check here walks a type.
The load-bearing check is on faceted types: after one unfolding, the
declassification facet must sit above the safety facet in the subtyping
order extended with sound declassifications of primitive signatures.
The subtyping core (`subtyping._sub`) compares the two facets' closed
records (their unfoldings) itself, so the facets are passed to it as they
are; the scoping check has already checked their shapes (`wf_type`), so
the cores are called without the public entries' shape check, here and in
the diagnosis. A policy violating that check is rejected with a diagnostic
naming the offending method and which publicness principle it breaks.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from .algebra import _soundsig, meths, unfold
from .subtyping import _sub, _sub_sig
from .syntax import (
    DeclType,
    Faceted,
    GenericSig,
    GobsecError,
    ObjType,
    Prim,
    PrimSig,
    SelfVar,
    TermEnv,
    TypeVar,
    TypeVarEnv,
    free_self_vars,
    free_type_vars,
)


@dataclass(frozen=True)
class WfIssue:
    severity: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}[{self.code}]: {self.message}"


def wf_type(tvars: Collection[str], u: DeclType | Faceted, issues: list[WfIssue] | None = None) -> bool:
    """Scoping: every self variable of `u` bound by an enclosing object
    type, every generic variable by an enclosing signature parameter or in
    `tvars`. Read from the free names the node caches, under these binder
    rules: a self binder scopes over its methods; a signature parameter
    over the later parameters' bounds, the arguments and the return, not
    its own bounds. One issue per unbound name, in sorted order; a
    security type `T<U>` is checked facet by facet. A `BadType` is a
    non-type, a signature or a security type where a plain type belongs
    (a facet or a bound), or a plain type as an argument or a result."""
    sink: list[WfIssue] = [] if issues is None else issues
    if isinstance(u, Faceted):
        return _wf_plain(tvars, u.safety, sink) & _wf_plain(tvars, u.decl, sink)
    return _wf_plain(tvars, u, sink)


def _wf_plain(tvars: Collection[str], u: DeclType, sink: list[WfIssue]) -> bool:
    """`wf_type` of a plain type: a facet or a bound."""
    try:
        if not isinstance(u, (Prim, SelfVar, TypeVar, ObjType)):
            raise GobsecError(f"not a type: {u!r}")
        selfs, gens = free_self_vars(u), free_type_vars(u).difference(tvars)
    except GobsecError as ex:
        sink.append(WfIssue("error", "BadType", str(ex)))
        return False
    for name in sorted(selfs):
        sink.append(WfIssue("error", "UnboundSelfVar", f"self type variable {name} is not bound"))
    for name in sorted(gens):
        sink.append(WfIssue("error", "UnboundTypeVar", f"type variable {name} is not bound"))
    return not selfs and not gens


def wf_sectype(delta: TypeVarEnv, s: Faceted, issues: list[WfIssue] | None = None) -> bool:
    """Both facets scoped under `delta` (see `wf_type`) and the
    declassification facet admissible: in the closed records that the
    subtyping core compares, every method it exposes is matched in the
    safety facet by a subtype signature, where a primitive signature may
    also be declassified by an identical primitive signature or a sound
    standard signature."""
    sink: list[WfIssue] = [] if issues is None else issues
    before = len(sink)
    if not isinstance(s, Faceted):
        sink.append(WfIssue("error", "BadType", f"not a security type: {s!r}"))
        return False
    if not wf_type(delta, s, sink):
        return False
    if isinstance(s.safety, TypeVar):
        sink.append(WfIssue("error", "BadType", "safety facet cannot be a generic variable"))
        return False
    if _sub(delta, s.safety, s.decl, True, set()):
        return True
    _explain_facets(delta, s.safety, s.decl, sink)
    if len(sink) == before:
        sink.append(WfIssue("error", "FacetMismatch", "declassification facet is not a supertype of the safety facet"))
    return False


def _explain_facets(delta: TypeVarEnv, t, u, sink: list[WfIssue]) -> None:
    """Per-method diagnosis of a failed facet check."""
    if isinstance(u, Prim):
        if isinstance(t, Prim) and t.kind != u.kind:
            sink.append(
                WfIssue(
                    "error",
                    "FacetMismatch",
                    f"declassification facet {u.kind} does not match safety facet {t.kind}",
                )
            )
        elif not isinstance(t, Prim):
            sink.append(WfIssue("error", "FacetMismatch", "object safety facet cannot declassify to a primitive kind"))
        return
    if not isinstance(u, ObjType):
        return
    # A scoped safety facet that is not a variable is a Prim or an ObjType.
    if isinstance(t, Prim):
        safety_record = dict(meths(t.kind))
    else:
        safety_record = dict(unfold(t).methods)
    for name, usig in unfold(u).methods:
        tsig = safety_record.get(name)
        if tsig is None:
            sink.append(
                WfIssue("error", "FacetMismatch", f"declassified method {name} does not exist in the safety facet")
            )
            continue
        if isinstance(tsig, PrimSig) and isinstance(usig, GenericSig):
            # Unsound only with a non-public primitive argument (P1).
            if not _soundsig(usig):
                sink.append(
                    WfIssue(
                        "error",
                        "IG/P1",
                        f"method {name}: a standard signature over a primitive must take public "
                        f"primitive arguments or return a private result",
                    )
                )
                continue
        if not _sub_sig(delta, tsig, usig, True, set()):
            sink.append(
                WfIssue("error", "FacetMismatch", f"method {name}: declassified signature is not above the safety signature")
            )


def wf_tvar_env(delta: TypeVarEnv, issues: list[WfIssue] | None = None) -> bool:
    """Each bound well-formed under the preceding entries, so bounds are
    acyclic: a cycle needs some bound that names a later variable. An
    empty interval (lower not below upper) is only a warning: nothing
    requires it, it merely makes the variable uninstantiable."""
    sink: list[WfIssue] = [] if issues is None else issues
    before = len(sink)
    seen: set[str] = set()
    for name, (lo, hi) in delta.items():
        for side, bound in (("lower", lo), ("upper", hi)):
            probe: list[WfIssue] = []
            _wf_plain(seen, bound, probe)
            sink.extend(WfIssue("error", "IllFormedBound", f"{side} bound of {name}: {p.message}") for p in probe)
        seen.add(name)
    if len(sink) > before:
        return False
    for name, (lo, hi) in delta.items():
        if not free_type_vars(lo) and not free_type_vars(hi):
            if not _sub(delta, lo, hi, False, set()):
                sink.append(
                    WfIssue("warning", "EmptyInterval", f"interval of {name} is empty: lower bound is not below upper bound")
                )
    return True


def wf_term_env(delta: TypeVarEnv, gamma: TermEnv, issues: list[WfIssue] | None = None) -> bool:
    """Every binding's security type well-formed under `delta`."""
    sink: list[WfIssue] = [] if issues is None else issues
    ok = True
    for name, s in gamma.items():
        probe: list[WfIssue] = []
        ok &= wf_sectype(delta, s, probe)
        sink.extend(WfIssue(p.severity, p.code, f"variable {name}: {p.message}") for p in probe)
    return ok

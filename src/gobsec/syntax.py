"""Abstract syntax for GObSec terms, types, and environments.

Terms are variables, primitive literals, object literals, and method
invocations (optionally carrying declassification type arguments).
`Ascribe`, `If`, and `Let` are surface forms: the checker consumes
ascriptions, `If` evaluates natively, and the small-step semantics lowers
`Let` to an immediately-invoked single-method object (the evaluator binds
it directly, at the same one-step cost).

Security types are faceted: a safety type (the full implementation
interface) paired with a declassification type (the interface the public
observer may use). Object types are equi-recursive via their self type
variable; declassification positions may additionally mention bounded
generic type variables.

All nodes are frozen; substitution returns new trees and is
capture-avoiding with respect to every binder kind (term parameters and
self names, object-type self variables, signature type parameters).

Type nodes cache their canonical key (`canon`) and their free self and
generic variables in the instance dictionary, outside the dataclass
fields, so `==`, `hash` and `repr` never see the caches; `algebra.unfold`
and the erasure of `subtyping.simple_sub_type` store their answers there
too, and the nodes that hold other type nodes their field hash
(`_hash_once`). One walker, `_subst`, substitutes both kinds of type
variable; it returns the subtrees in which no replaced variable is free
as they are, caches included. The caches are only sound because nodes
are immutable: a node must never be mutated, not even through
`object.__setattr__`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Union


class GobsecError(Exception):
    """Base class for errors raised by the gobsec package."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

PRIM_KINDS = ("Int", "String", "Bool", "Unit")


def _hash_once(cls):
    """`cls` with its dataclass hash computed once per node, under `_hash`
    in the instance dictionary: a dictionary or cache keyed by a type then
    hashes its tree once, not on every lookup."""
    fields_hash = cls.__hash__

    def __hash__(self) -> int:
        memo = self.__dict__
        h = memo.get("_hash")
        if h is None:
            h = memo["_hash"] = fields_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True)
class Prim:
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in PRIM_KINDS:
            raise GobsecError(f"unknown primitive kind {self.kind!r}")


@dataclass(frozen=True)
class SelfVar:
    """Occurrence of an object type's self variable."""

    name: str


@dataclass(frozen=True)
class TypeVar:
    """Occurrence of a bounded generic declassification variable."""

    name: str


@_hash_once
@dataclass(frozen=True)
class ObjType:
    """Recursive object interface: `Obj(a)[m : sig, ...]`.

    `self_var` is bound in every signature of `methods`. Method names are
    pairwise distinct; order is irrelevant for equivalence.
    """

    self_var: str
    methods: tuple[tuple[str, "MethodSig"], ...]

    def __post_init__(self) -> None:
        names = [m for m, _ in self.methods]
        if len(names) != len(set(names)):
            raise GobsecError(f"duplicate method name in object type: {names}")

    def sig(self, name: str) -> "MethodSig | None":
        for m, s in self.methods:
            if m == name:
                return s
        return None

    def method_names(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.methods)


Type = Union[Prim, SelfVar, ObjType]
DeclType = Union[Prim, SelfVar, ObjType, TypeVar]

#: The empty object interface; top of the subtyping order.
TOP = ObjType("top", ())


def is_top(u: DeclType) -> bool:
    """Structurally the empty interface (the canonical supertype)."""
    return isinstance(u, ObjType) and not u.methods


# ---------------------------------------------------------------------------
# Method signatures and security types
# ---------------------------------------------------------------------------


@_hash_once
@dataclass(frozen=True)
class TParam:
    """One bounded type parameter `X : lower .. upper` of a signature."""

    name: str
    lower: DeclType
    upper: DeclType


@_hash_once
@dataclass(frozen=True)
class GenericSig:
    """Standard method signature `<X:A..B, ...> S1 * ... * Sn -> S`.

    Earlier type parameters scope over the bounds of later ones and over
    all argument and return types.
    """

    tparams: tuple[TParam, ...]
    args: tuple["Faceted", ...]
    ret: "Faceted"


@dataclass(frozen=True)
class PrimSig:
    """Ad-hoc polymorphic primitive signature `P<*> * ... -> P<*>`."""

    arg_kinds: tuple[str, ...]
    ret_kind: str


MethodSig = Union[GenericSig, PrimSig]


@_hash_once
@dataclass(frozen=True)
class Faceted:
    """Security type `T<U>`: safety facet plus declassification facet."""

    safety: Type
    decl: DeclType


def public(t: Type) -> Faceted:
    """`T!`, the fully public security type T<T>."""
    return Faceted(t, t)


def private(t: Type) -> Faceted:
    """`T?`, the fully private security type T<Top>."""
    return Faceted(t, TOP)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

Span = Union[tuple[int, int], None]


@dataclass(frozen=True)
class Var:
    name: str
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class PrimLit:
    """Primitive literal; `value` is an int, str, bool, or None (unit)."""

    value: object
    kind: str
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class MethodDef:
    name: str
    params: tuple[str, ...]
    body: "Expr"
    # Whether the body calls a method of this name on a variable, with one
    # variable or literal argument per parameter, as `loop(x) => z.loop(x)`
    # does. The environment machine reads it on every call it contracts
    # (see `interp.run_machine`), so it is decided here, once. It is a field
    # rather than an instance-dictionary cache: filling a node's dictionary
    # slows every other attribute read on it.
    recalls: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.params) != len(set(self.params)):
            raise GobsecError(f"duplicate parameter in method {self.name}")
        b = self.body
        object.__setattr__(
            self,
            "recalls",
            type(b) is Invoke
            and b.method == self.name
            and type(b.recv) is Var
            and len(b.args) == len(self.params)
            and all(type(a) is Var or type(a) is PrimLit for a in b.args),
        )


@dataclass(frozen=True)
class ObjectLit:
    """`new { self : S  m(x) => e ... }`; `self_name` binds in every body."""

    self_name: str
    sectype: Faceted
    methods: tuple[MethodDef, ...]
    span: Span = field(default=None, compare=False)

    def __post_init__(self) -> None:
        names = [m.name for m in self.methods]
        if len(names) != len(set(names)):
            raise GobsecError(f"duplicate method in object literal: {names}")

    def impl(self, name: str) -> MethodDef | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass(frozen=True)
class Invoke:
    recv: "Expr"
    method: str
    targs: tuple[DeclType, ...]
    args: tuple["Expr", ...]
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Ascribe:
    expr: "Expr"
    at: Faceted
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    els: "Expr"
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Let:
    """Surface `let x = e in body`; `interp.erase_surface` lowers it."""

    name: str
    bound: "Expr"
    body: "Expr"
    span: Span = field(default=None, compare=False)


Expr = Union[Var, PrimLit, ObjectLit, Invoke, Ascribe, If, Let]

UNIT = PrimLit(None, "Unit")
TRUE = PrimLit(True, "Bool")
FALSE = PrimLit(False, "Bool")


def is_value(e: Expr) -> bool:
    return isinstance(e, (PrimLit, ObjectLit))


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

#: Bounded type variable environment: name -> (lower, upper), insertion-ordered.
TypeVarEnv = Mapping[str, tuple[DeclType, DeclType]]

#: Term environment: name -> security type, insertion-ordered.
TermEnv = Mapping[str, Faceted]

#: Subtyping assumptions, pairs (left, right-self-var-name) with left ("self", name)
#: or ("prim", kind): the oracle extends them, `subtyping._assumed` seeds goals with them.
SubAssumptions = frozenset


def assume_self(sigma: SubAssumptions, alpha: str, beta: str) -> SubAssumptions:
    return sigma | {(("self", alpha), beta)}


def assume_prim(sigma: SubAssumptions, kind: str, beta: str) -> SubAssumptions:
    return sigma | {(("prim", kind), beta)}


EMPTY_SIGMA: SubAssumptions = frozenset()


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count(1)


def fresh(base: str = "a") -> str:
    """A name no surface program can contain (`%` is not lexable)."""
    return f"{base}%{next(_fresh_counter)}"


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

_NO_NAMES: frozenset[str] = frozenset()


def free_self_vars(x: object) -> frozenset[str]:
    """Free self type variables of a type, signature, or security type."""
    return _fv(x)[0]


def free_type_vars(x: object) -> frozenset[str]:
    """Free generic type variables of a type, signature, or security type."""
    return _fv(x)[1]


def check_shape(*xs) -> None:
    """Raise GobsecError unless each of `xs` is a type, signature or
    security type with every part where it belongs: the free-variable
    walk (`_fv`) checks that, once per node, and a checked node answers
    from its cache. Entry points that read facets of a signature's
    arguments call it first."""
    for x in xs:
        _fv(x)


def _fv(x) -> tuple[frozenset[str], frozenset[str]]:
    # (free self names, free generic names), built from the children's
    # cached answers and stored on the node. A non-type, here or nested,
    # raises GobsecError, and so does a signature or a security type where
    # a plain type belongs, or a plain type as an argument or a result.
    try:
        memo = x.__dict__
    except AttributeError:
        raise GobsecError(f"not a type: {x!r}") from None
    out = memo.get("_fv")
    if out is None:
        if isinstance(x, SelfVar):
            out = (frozenset((x.name,)), _NO_NAMES)
        elif isinstance(x, TypeVar):
            out = (_NO_NAMES, frozenset((x.name,)))
        elif isinstance(x, ObjType):
            selfs, gens = _fv_union(s for _, s in x.methods)
            out = (selfs - {x.self_var}, gens)
        elif isinstance(x, GenericSig):
            ends = (*x.args, x.ret)
            for a in ends:
                if not isinstance(a, Faceted):
                    what = "type" if isinstance(a, (PrimSig, GenericSig)) else "security type"
                    raise GobsecError(f"not a {what}: {a!r}")
            selfs, gens = _fv_union(ends)
            # Walk the parameters backwards: each binds in what follows it,
            # but not in its own bounds.
            for tp in reversed(x.tparams):
                bs, bg = _fv_types((tp.lower, tp.upper))
                selfs, gens = selfs | bs, (gens - {tp.name}) | bg
            out = (selfs, gens)
        elif isinstance(x, Faceted):
            out = _fv_types((x.safety, x.decl))
        elif isinstance(x, (Prim, PrimSig)):
            out = (_NO_NAMES, _NO_NAMES)
        else:
            raise GobsecError(f"not a type: {x!r}")
        memo["_fv"] = out
    return out


def _fv_types(xs: tuple) -> tuple[frozenset[str], frozenset[str]]:
    """`_fv_union` of nodes in plain type positions: a facet or a bound.
    A signature or a security type there is not a type."""
    for x in xs:
        if isinstance(x, (PrimSig, GenericSig, Faceted)):
            raise GobsecError(f"not a type: {x!r}")
    return _fv_union(xs)


def _fv_union(xs) -> tuple[frozenset[str], frozenset[str]]:
    selfs = gens = _NO_NAMES
    for x in xs:
        try:
            s, g = x.__dict__.get("_fv") or _fv(x)
        except AttributeError:
            raise GobsecError(f"not a type: {x!r}") from None
        if s:
            selfs = selfs | s
        if g:
            gens = gens | g
    return selfs, gens


# ---------------------------------------------------------------------------
# Substitution: self and generic type variables
# ---------------------------------------------------------------------------


def subst_self_var(target, obj: Type, name: str):
    """Replace the free occurrences of self variable `name` by `obj`."""
    return _subst(target, {name: obj}, {}, _fv(obj))


def rename_self_var(o: ObjType, newname: str) -> ObjType:
    """Alpha-rename an object type's binder."""
    image = SelfVar(newname)
    return ObjType(newname, tuple((m, _subst(s, {o.self_var: image}, {}, _fv(image))) for m, s in o.methods))


def subst_type_vars(target, sub: Mapping[str, DeclType]):
    """Simultaneously replace the free occurrences of each generic variable
    named in `sub` by its image. Returns the same node kind as `target`.
    """
    if not sub:
        return target
    return _subst(target, {}, sub, _fv_union(sub.values()))


def instantiate_tparams(
    tparams: Iterable[TParam], choose: Callable[[str, DeclType, DeclType], DeclType]
) -> dict[str, DeclType]:
    """A type for each bounded parameter, left to right:
    `choose(name, lower, upper)` gets the parameter's bounds with the
    earlier choices substituted in. Returns the substitution."""
    sub: dict[str, DeclType] = {}
    for tp in tparams:
        sub[tp.name] = choose(tp.name, subst_type_vars(tp.lower, sub), subst_type_vars(tp.upper, sub))
    return sub


def _subst(x, selfs: Mapping[str, Type], gens: Mapping[str, DeclType], avoid):
    """Capture-avoiding simultaneous substitution of self variables
    (`selfs`) and generic variables (`gens`) in a type, signature, or
    security type.

    `avoid` is the images' free (self, generic) names: a binder among them
    that scopes over a replaced occurrence is renamed, not left to capture.
    Binders shadow their own name. A subtree in which no replaced variable
    is free is returned as it is, shared, caches included.
    """
    fs, fg = x.__dict__.get("_fv") or _fv(x)
    if fs.isdisjoint(selfs) and fg.isdisjoint(gens):
        return x  # always so at Prim and PrimSig
    if isinstance(x, Faceted):
        return Faceted(_subst(x.safety, selfs, gens, avoid), _subst(x.decl, selfs, gens, avoid))
    if isinstance(x, SelfVar):
        return selfs[x.name]
    if isinstance(x, TypeVar):
        return gens[x.name]
    if isinstance(x, ObjType):
        name = x.self_var
        if name in avoid[0]:
            name = fresh(name)
            selfs = {**selfs, x.self_var: SelfVar(name)}
        elif name in selfs:
            selfs = {k: v for k, v in selfs.items() if k != name}
        return ObjType(name, tuple((m, _subst(s, selfs, gens, avoid)) for m, s in x.methods))
    # A GenericSig: every other node kind has returned by now.
    tparams: list[TParam] = []
    for tp in x.tparams:
        lo, hi = _subst(tp.lower, selfs, gens, avoid), _subst(tp.upper, selfs, gens, avoid)
        name = tp.name
        if name in avoid[1]:
            name = fresh(name)
            gens = {**gens, tp.name: TypeVar(name)}
        elif name in gens:
            gens = {k: v for k, v in gens.items() if k != name}
        tparams.append(TParam(name, lo, hi))
    return GenericSig(
        tuple(tparams),
        tuple(_subst(a, selfs, gens, avoid) for a in x.args),
        _subst(x.ret, selfs, gens, avoid),
    )


def subst_type_vars_expr(e: Expr, sub: Mapping[str, DeclType]) -> Expr:
    """`subst_type_vars` through a term's type annotations and type-argument
    lists. Used when applying a type substitution to a program.
    """
    if not sub or isinstance(e, (Var, PrimLit)):
        return e
    if isinstance(e, ObjectLit):
        return ObjectLit(
            e.self_name,
            subst_type_vars(e.sectype, sub),
            tuple(MethodDef(m.name, m.params, subst_type_vars_expr(m.body, sub)) for m in e.methods),
            e.span,
        )
    if isinstance(e, Invoke):
        return Invoke(
            subst_type_vars_expr(e.recv, sub),
            e.method,
            tuple(subst_type_vars(t, sub) for t in e.targs),
            tuple(subst_type_vars_expr(a, sub) for a in e.args),
            e.span,
        )
    if isinstance(e, Ascribe):
        return Ascribe(subst_type_vars_expr(e.expr, sub), subst_type_vars(e.at, sub), e.span)
    if isinstance(e, If):
        return If(
            subst_type_vars_expr(e.cond, sub),
            subst_type_vars_expr(e.then, sub),
            subst_type_vars_expr(e.els, sub),
            e.span,
        )
    if isinstance(e, Let):
        return Let(e.name, subst_type_vars_expr(e.bound, sub), subst_type_vars_expr(e.body, sub), e.span)
    raise GobsecError(f"unknown expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Substitution: term variables
# ---------------------------------------------------------------------------


def subst_term(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution of terms for variables.

    Intended for closed replacement values (the evaluator's use); binders
    shadow as usual and are renamed if a replacement's free variables would
    be captured.
    """
    if not bindings:
        return e
    return _st(e, dict(bindings))


def free_term_vars(e: Expr) -> frozenset[str]:
    out: set[str] = set()
    _ftermv(e, frozenset(), out)
    return frozenset(out)


def _ftermv(e: Expr, bound: frozenset[str], out: set[str]) -> None:
    if isinstance(e, Var):
        if e.name not in bound:
            out.add(e.name)
    elif isinstance(e, PrimLit):
        pass
    elif isinstance(e, ObjectLit):
        for m in e.methods:
            _ftermv(m.body, bound | {e.self_name} | set(m.params), out)
    elif isinstance(e, Invoke):
        _ftermv(e.recv, bound, out)
        for a in e.args:
            _ftermv(a, bound, out)
    elif isinstance(e, Ascribe):
        _ftermv(e.expr, bound, out)
    elif isinstance(e, If):
        _ftermv(e.cond, bound, out)
        _ftermv(e.then, bound, out)
        _ftermv(e.els, bound, out)
    elif isinstance(e, Let):
        _ftermv(e.bound, bound, out)
        _ftermv(e.body, bound | {e.name}, out)


def _st(e: Expr, binds: dict[str, Expr]) -> Expr:
    if isinstance(e, Var):
        return binds.get(e.name, e)
    if isinstance(e, PrimLit):
        return e
    if isinstance(e, ObjectLit):
        live = {k: v for k, v in binds.items() if k != e.self_name}
        captured = set()
        for v in live.values():
            captured |= free_term_vars(v)
        self_name = e.self_name
        methods = e.methods
        if self_name in captured:
            newself = fresh(self_name)
            methods = tuple(
                MethodDef(m.name, m.params, _st(m.body, {self_name: Var(newself)})) for m in methods
            )
            self_name = newself
        out = []
        for m in methods:
            inner = {k: v for k, v in live.items() if k not in m.params}
            params = m.params
            body = m.body
            clash = [p for p in params if p in captured]
            if clash:
                ren = {p: fresh(p) for p in clash}
                body = _st(body, {p: Var(n) for p, n in ren.items()})
                params = tuple(ren.get(p, p) for p in params)
            out.append(MethodDef(m.name, params, _st(body, inner) if inner else body))
        return ObjectLit(self_name, e.sectype, tuple(out), e.span)
    if isinstance(e, Invoke):
        return Invoke(_st(e.recv, binds), e.method, e.targs, tuple(_st(a, binds) for a in e.args), e.span)
    if isinstance(e, Ascribe):
        return Ascribe(_st(e.expr, binds), e.at, e.span)
    if isinstance(e, If):
        return If(_st(e.cond, binds), _st(e.then, binds), _st(e.els, binds), e.span)
    if isinstance(e, Let):
        live = {k: v for k, v in binds.items() if k != e.name}
        captured = set()
        for v in live.values():
            captured |= free_term_vars(v)
        name, body = e.name, e.body
        if name in captured:
            newname = fresh(name)
            body = _st(body, {name: Var(newname)})
            name = newname
        return Let(name, _st(e.bound, binds), _st(body, live) if live else body, e.span)
    raise GobsecError(f"unknown expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Canonical (alpha-normal) forms
# ---------------------------------------------------------------------------


def canon(x) -> tuple:
    """Hashable canonical form of a type/signature/security type.

    Bound self variables and signature type parameters are numbered by
    binder depth, so alpha-equivalent trees have equal canonical forms.
    Free self variables and free generic variables keep their names.
    Record entries are sorted by method name. Computed once per node.
    """
    memo = x.__dict__
    key = memo.get("_canon")
    if key is None:
        key = memo["_canon"] = _canon(x, {}, {})
    return key


def _canon(x, senv: dict[str, int], genv: dict[str, int]) -> tuple:
    if isinstance(x, Prim):
        return ("prim", x.kind)
    if isinstance(x, SelfVar):
        if x.name in senv:
            return ("sbound", senv[x.name])
        return ("sfree", x.name)
    if isinstance(x, TypeVar):
        if x.name in genv:
            return ("gbound", genv[x.name])
        return ("gfree", x.name)
    if isinstance(x, ObjType):
        inner = dict(senv)
        inner[x.self_var] = len(senv)
        entries = tuple(sorted((m, _canon(s, inner, genv)) for m, s in x.methods))
        return ("obj", entries)
    if isinstance(x, PrimSig):
        return ("psig", x.arg_kinds, x.ret_kind)
    if isinstance(x, GenericSig):
        g = dict(genv)
        tps = []
        for tp in x.tparams:
            tps.append((_canon(tp.lower, senv, g), _canon(tp.upper, senv, g)))
            g[tp.name] = len(genv) + len(tps) - 1
        return (
            "gsig",
            tuple(tps),
            tuple(_canon(a, senv, g) for a in x.args),
            _canon(x.ret, senv, g),
        )
    if isinstance(x, Faceted):
        return ("sec", _canon(x.safety, senv, genv), _canon(x.decl, senv, genv))
    raise GobsecError(f"cannot canonicalize {type(x).__name__}")


def canon_expr(e: Expr) -> tuple:
    """Canonical form of a term, up to renaming of term/self/type binders."""
    return _canon_expr(e, {}, {})


def _canon_expr(e: Expr, tenv: dict[str, int], senv: dict[str, int]) -> tuple:
    if isinstance(e, Var):
        if e.name in tenv:
            return ("bvar", tenv[e.name])
        return ("fvar", e.name)
    if isinstance(e, PrimLit):
        return ("lit", e.kind, e.value)
    if isinstance(e, ObjectLit):
        inner = dict(tenv)
        inner[e.self_name] = len(tenv)
        ms = []
        for m in sorted(e.methods, key=lambda m: m.name):
            env = dict(inner)
            for p in m.params:
                env[p] = len(env)
            ms.append((m.name, len(m.params), _canon_expr(m.body, env, senv)))
        return ("objlit", _canon(e.sectype, senv, {}), tuple(ms))
    if isinstance(e, Invoke):
        return (
            "invoke",
            _canon_expr(e.recv, tenv, senv),
            e.method,
            tuple(_canon(t, senv, {}) for t in e.targs),
            tuple(_canon_expr(a, tenv, senv) for a in e.args),
        )
    if isinstance(e, Ascribe):
        return ("ascribe", _canon_expr(e.expr, tenv, senv), _canon(e.at, senv, {}))
    if isinstance(e, If):
        return (
            "if",
            _canon_expr(e.cond, tenv, senv),
            _canon_expr(e.then, tenv, senv),
            _canon_expr(e.els, tenv, senv),
        )
    if isinstance(e, Let):
        inner = dict(tenv)
        inner[e.name] = len(tenv)
        return ("let", _canon_expr(e.bound, tenv, senv), _canon_expr(e.body, inner, senv))
    raise GobsecError(f"unknown expression {type(e).__name__}")


def alpha_eq(a, b) -> bool:
    """Alpha-equality of types or signatures (no fold/unfold)."""
    return canon(a) == canon(b)


def alpha_eq_expr(a: Expr, b: Expr) -> bool:
    return canon_expr(a) == canon_expr(b)


def canon_delta(delta: TypeVarEnv) -> tuple:
    return tuple((name, canon(lo), canon(hi)) for name, (lo, hi) in delta.items())


def iter_subterms(u: DeclType) -> Iterator[DeclType]:
    """All type subterms (including `u` itself), without opening binders."""
    yield u
    if isinstance(u, ObjType):
        for _, sig in u.methods:
            if isinstance(sig, GenericSig):
                for tp in sig.tparams:
                    yield from iter_subterms(tp.lower)
                    yield from iter_subterms(tp.upper)
                for a in (*sig.args, sig.ret):
                    yield from iter_subterms(a.safety)
                    yield from iter_subterms(a.decl)

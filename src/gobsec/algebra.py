"""Type-level operations: equivalence, bounds, membership, signatures.

Equivalence of recursive object types is decided coinductively: pairs of
object types under comparison are assumed equal when revisited, and their
signatures are compared after closing each record over its own type. This
identifies a type with its unfolding and is insensitive to binder names.
The closed record is an object type's unfolding, built once and cached on
the node (see `unfold`), so revisits compare the same signatures, whose
canonical keys are cached too.
"""

from __future__ import annotations

from .syntax import (
    TOP,
    DeclType,
    Faceted,
    GenericSig,
    GobsecError,
    MethodSig,
    ObjType,
    Prim,
    PrimSig,
    SelfVar,
    TParam,
    Type,
    TypeVar,
    TypeVarEnv,
    canon,
    check_shape,
    instantiate_tparams,
    is_top,
    subst_self_var,
    subst_type_vars,
)


class UnboundTypeVar(GobsecError):
    pass


class CyclicBounds(GobsecError):
    pass


class NoSuchMethod(GobsecError):
    pass


class UnfoldOfVariable(GobsecError):
    pass


class NotClosed(GobsecError):
    pass


# ---------------------------------------------------------------------------
# Primitive interface table
# ---------------------------------------------------------------------------


#: Interface of each primitive kind; entries are primitive signatures only.
PRIM_INTERFACES: dict[str, tuple[tuple[str, PrimSig], ...]] = {
    "Int": (
        ("+", PrimSig(("Int",), "Int")),
        ("-", PrimSig(("Int",), "Int")),
        ("*", PrimSig(("Int",), "Int")),
        ("eq", PrimSig(("Int",), "Bool")),
        ("lt", PrimSig(("Int",), "Bool")),
        ("gt", PrimSig(("Int",), "Bool")),
    ),
    "String": (
        ("concat", PrimSig(("String",), "String")),
        ("first", PrimSig(("Unit",), "String")),
        ("length", PrimSig(("Unit",), "Int")),
        ("eq", PrimSig(("String",), "Bool")),
        ("hash", PrimSig(("Unit",), "Int")),
    ),
    "Bool": (
        ("and", PrimSig(("Bool",), "Bool")),
        ("or", PrimSig(("Bool",), "Bool")),
        ("not", PrimSig(("Unit",), "Bool")),
        ("eq", PrimSig(("Bool",), "Bool")),
    ),
    "Unit": (("eq", PrimSig(("Unit",), "Bool")),),
}


def meths(kind: str) -> tuple[tuple[str, PrimSig], ...]:
    """The record of primitive signatures implemented by primitive kind."""
    try:
        return PRIM_INTERFACES[kind]
    except KeyError:
        raise GobsecError(f"unknown primitive kind {kind!r}") from None


def prim_sig(kind: str, m: str) -> PrimSig | None:
    for name, sig in meths(kind):
        if name == m:
            return sig
    return None


# ---------------------------------------------------------------------------
# Type equivalence (fold/unfold, alpha)
# ---------------------------------------------------------------------------


def type_equiv(t1: DeclType, t2: DeclType) -> bool:
    """Equal infinite unfoldings, up to binder renaming.

    Generic variables and free self variables compare by name; primitives
    by kind. Alpha-equal object types (equal canonical keys) are equal at
    once; other object types are compared as the bisimulation over their
    self-closed signatures with assume-equal-on-revisit.
    """
    return _equiv(t1, t2, frozenset())


def _equiv(t1, t2, assumed: frozenset) -> bool:
    if t1 is t2:
        return True
    if isinstance(t1, Prim) and isinstance(t2, Prim):
        return t1.kind == t2.kind
    if isinstance(t1, TypeVar) and isinstance(t2, TypeVar):
        return t1.name == t2.name
    if isinstance(t1, SelfVar) and isinstance(t2, SelfVar):
        return t1.name == t2.name
    if isinstance(t1, ObjType) and isinstance(t2, ObjType):
        key = (canon(t1), canon(t2))
        if key[0] == key[1] or key in assumed:
            return True  # alpha-equal, or assumed equal on a revisit
        if set(t1.method_names()) != set(t2.method_names()):
            return False
        assumed = assumed | {key}
        closed2 = unfold(t2)
        for name, c1 in unfold(t1).methods:
            if not _equiv_sig(c1, closed2.sig(name), assumed):
                return False
        return True
    return False


def _equiv_sig(s1: MethodSig, s2: MethodSig, assumed: frozenset) -> bool:
    if isinstance(s1, PrimSig) or isinstance(s2, PrimSig):
        return s1 == s2
    if len(s1.tparams) != len(s2.tparams) or len(s1.args) != len(s2.args):
        return False
    # One prefix per nesting depth: `assumed` gains one key at every object
    # type passed on the way here, so an inner signature's parameters never
    # take the names of an enclosing signature's.
    prefix = f"%eq{len(assumed)}."
    s1, s2 = rename_tparams(s1, prefix), rename_tparams(s2, prefix)
    for tp1, tp2 in zip(s1.tparams, s2.tparams):
        if not _equiv(tp1.lower, tp2.lower, assumed):
            return False
        if not _equiv(tp1.upper, tp2.upper, assumed):
            return False
    for a1, a2 in zip(s1.args, s2.args):
        if not _equiv_sec(a1, a2, assumed):
            return False
    return _equiv_sec(s1.ret, s2.ret, assumed)


def rename_tparams(sig: GenericSig, prefix: str) -> GenericSig:
    """Rename type parameter i of `sig` to `prefix` + str(i), in the later
    parameters' bounds, the arguments and the return; two signatures
    renamed with one prefix share parameter names."""
    tparams: list[TParam] = []

    def rename(_, lo: DeclType, hi: DeclType) -> TypeVar:
        tparams.append(TParam(f"{prefix}{len(tparams)}", lo, hi))
        return TypeVar(tparams[-1].name)

    sub = instantiate_tparams(sig.tparams, rename)
    return GenericSig(
        tuple(tparams),
        tuple(subst_type_vars(a, sub) for a in sig.args),
        subst_type_vars(sig.ret, sub),
    )


def _equiv_sec(s1: Faceted, s2: Faceted, assumed: frozenset) -> bool:
    return _equiv(s1.safety, s2.safety, assumed) and _equiv(s1.decl, s2.decl, assumed)


def sectype_equiv(s1: Faceted, s2: Faceted) -> bool:
    """Pointwise type equivalence of the two facets."""
    check_shape(s1, s2)
    return _equiv_sec(s1, s2, frozenset())


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------


def unfold(t: DeclType) -> Type:
    """One-level unfolding: substitute an object type for its own self
    variable in its record. Primitives (and the empty interface) unfold to
    themselves. An object type's unfolding is built once and stored on the
    node, like its canonical key; its record is the node's closed record,
    the signatures that `type_equiv` and `msig` read."""
    if isinstance(t, Prim):
        return t
    if isinstance(t, ObjType):
        memo = t.__dict__
        out = memo.get("_unfold")
        if out is None:
            out = memo["_unfold"] = ObjType(
                t.self_var, tuple((m, subst_self_var(s, t, t.self_var)) for m, s in t.methods)
            )
        return out
    if isinstance(t, TypeVar):
        raise UnfoldOfVariable(f"cannot unfold generic variable {t.name}")
    raise NotClosed(f"cannot unfold free self variable {t.name}")


# ---------------------------------------------------------------------------
# Bounds, membership, signatures, intervals
# ---------------------------------------------------------------------------


def upper_bound(delta: TypeVarEnv, u: DeclType) -> Type:
    """Chase a variable's upper bounds until a non-variable type."""
    seen: set[str] = set()
    while isinstance(u, TypeVar):
        if u.name in seen:
            raise CyclicBounds(f"cycle through type variable {u.name}")
        if u.name not in delta:
            raise UnboundTypeVar(u.name)
        seen.add(u.name)
        u = delta[u.name][1]
    return u


def has_method(delta: TypeVarEnv, u: DeclType, m: str) -> bool:
    """Method membership; variables are resolved at their upper bound."""
    t = upper_bound(delta, u)
    if isinstance(t, ObjType):
        return any(name == m for name, _ in t.methods)
    if isinstance(t, Prim):
        return prim_sig(t.kind, m) is not None
    raise NotClosed(f"membership on free self variable {t.name}")


def msig(delta: TypeVarEnv, u: DeclType, m: str) -> MethodSig:
    """The closed signature of `m` in `u`: an object type's signature is
    read from its unfolding (built once per node), where the self variable
    is replaced by the object type itself; primitive kinds use the
    primitive interface table; variables look up in their upper bound.
    """
    t = upper_bound(delta, u)
    if isinstance(t, ObjType):
        sig = unfold(t).sig(m)
        if sig is None:
            raise NoSuchMethod(f"{m} not in object type")
        return sig
    if isinstance(t, Prim):
        sig = prim_sig(t.kind, m)
        if sig is None:
            raise NoSuchMethod(f"{m} not in primitive {t.kind}")
        return sig
    raise NotClosed(f"signature lookup on free self variable {t.name}")


def in_interval(delta: TypeVarEnv, u: DeclType, lo: DeclType, hi: DeclType) -> bool:
    """`lo <: u <: hi` under `delta`, for closed types. The types are ones
    the package parsed or built, so the subtyping core is called without
    the public entry point's shape check."""
    from . import subtyping

    return subtyping._sub(delta, lo, u, False, set()) and subtyping._sub(delta, u, hi, False, set())


# ---------------------------------------------------------------------------
# Ad-hoc polymorphism for primitive signatures
# ---------------------------------------------------------------------------


def rdecl(arg: Faceted, ret_kind: str) -> DeclType:
    """Declassification of a primitive-signature result: public when the
    argument is public (its facets coincide), private (`Top`) otherwise."""
    if not isinstance(arg.safety, Prim):
        raise GobsecError("rdecl requires a primitive-safety argument")
    if type_equiv(arg.safety, arg.decl):
        return Prim(ret_kind)
    return TOP


def rdecl_many(args: tuple[Faceted, ...], ret_kind: str) -> DeclType:
    """Pointwise extension: public only if every argument is public."""
    for a in args:
        if is_top(rdecl(a, ret_kind)):
            return TOP
    return Prim(ret_kind)


def soundsig(sig: GenericSig) -> bool:
    """Whether a standard signature may declassify a primitive one:
    every primitive-safety argument is public, or the return
    declassification is the empty interface."""
    check_shape(sig)
    return _soundsig(sig)


def _soundsig(sig: GenericSig) -> bool:
    """`soundsig` without the shape check, for the subtyping core."""
    if is_top(sig.ret.decl):
        return True
    for a in sig.args:
        if isinstance(a.safety, Prim) and not type_equiv(a.safety, a.decl):
            return False
    return True

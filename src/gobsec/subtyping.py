"""Algorithmic subtyping for declassification types, records, signatures,
and security types, plus a bounded declarative-search oracle used to
cross-check the algorithm.

The algorithm is goal-directed:

* equivalent types are subtypes (covers reflexivity and fold/unfold);
* the empty interface is a top: anything is below it;
* a variable on the left is chased through its upper bound, a variable on
  the right through its lower bound;
* self variables resolve through the assumption set the caller passes;
  the algorithm itself never adds to it;
* primitive kinds sit below object interfaces via their method table,
  compared against the object type's closed record;
* object-vs-object compares the two closed records (each type's
  unfolding, built once and cached on the node), so a recursive
  occurrence on either side is the whole type again and mixed folded and
  unfolded spellings need no special case.

Termination comes from an in-flight goal set keyed on canonical forms:
a goal that recurs inside its own derivation is assumed to hold
(coinduction, as in Amadio & Cardelli 1993 and Gapeyev, Levin & Pierce
2002), which is exactly what recursive object types need. A goal's key
holds the bounds of the type variables it can reach and no others, so a
goal revisited under further signature parameters matches its in-flight
entry.

The single-facet order of the simple type system is the same algorithm
run on facet-erased types (see `simple_sub_type`).

Transitivity is not a rule of the algorithm; the oracle implements the
declarative rules including explicit transitivity over a finite candidate
pool and is used by the test suite to validate the algorithm on a small
exhaustive universe.
"""

from __future__ import annotations


from .algebra import _soundsig, meths, rename_tparams, soundsig, type_equiv, unfold
from .syntax import (
    EMPTY_SIGMA,
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
    SubAssumptions,
    TypeVar,
    TypeVarEnv,
    assume_prim,
    assume_self,
    canon,
    canon_delta,
    check_shape,
    free_type_vars,
    is_top,
    iter_subterms,
    rename_self_var,
)


class IllFormedInput(GobsecError):
    pass


class BudgetExceeded(GobsecError):
    """The declarative search ran out of derivation depth undecided."""


def _goal_key(delta: TypeVarEnv, u1, u2, tag: str) -> tuple:
    # A goal's derivation reads only the bounds of the type variables it can
    # reach: its free ones, closed under their bounds' free variables. Keying
    # on those alone lets a goal that recurs under the parameters of the
    # signatures passed on the way hit the in-flight set. Sigma is fixed for
    # the whole derivation, so it needs no place in the key.
    bounds = {}
    todo = [*free_type_vars(u1), *free_type_vars(u2)]
    while todo:
        name = todo.pop()
        if name in bounds or name not in delta:
            continue
        lo, hi = delta[name]
        bounds[name] = (canon(lo), canon(hi))
        todo += free_type_vars(lo) | free_type_vars(hi)
    return (tag, tuple(sorted(bounds.items())), canon(u1), canon(u2))


# ---------------------------------------------------------------------------
# Algorithmic subtyping
# ---------------------------------------------------------------------------


def sub_type(
    delta: TypeVarEnv,
    sigma: SubAssumptions,
    u1: DeclType,
    u2: DeclType,
    *,
    allow_ig: bool = False,
) -> bool:
    """Decide `delta; sigma |- u1 <: u2`.

    `sigma` holds only the caller's assumptions about self variables free
    in `u1` and `u2`, and is empty for closed types: the algorithm never
    extends it. With `allow_ig` the signature comparison additionally
    accepts a sound standard signature above a primitive signature; this
    variant is what the facet-wise well-formedness check uses.
    """
    check_shape(u1, u2)
    return _sub(delta, sigma, u1, u2, allow_ig, set())


def simple_sub_type(t1, t2) -> bool:
    """Single-facet subtyping, the order of the simple type system: it is
    `sub_type` on the two types with every declassification facet erased
    to `Top` and every signature's type parameters dropped. Security types
    then compare by their safety facets alone, signature bounds play no
    role, and every signature is sound. Its callers pass types the
    package parsed or built, so the shape check is left out."""
    return _sub({}, EMPTY_SIGMA, _erase(t1), _erase(t2), False, set())


def _erase(x):
    """Forget declassification: `T<U>` becomes `T<Top>` and signatures
    lose their type parameters, throughout the type. Parameters are first
    renamed by position, as `type_equiv` does, so alpha-equivalent
    signatures erase alike. The erasure of an object type, signature or
    security type is built once and stored on the node, like its
    canonical key."""
    if not isinstance(x, (ObjType, GenericSig, Faceted)):
        return x
    memo = x.__dict__
    out = memo.get("_erased")
    if out is None:
        if isinstance(x, ObjType):
            out = ObjType(x.self_var, tuple((m, _erase(s)) for m, s in x.methods))
        elif isinstance(x, GenericSig):
            renamed = rename_tparams(x, "%e")
            out = GenericSig((), tuple(_erase(a) for a in renamed.args), _erase(renamed.ret))
        else:
            out = Faceted(_erase(x.safety), TOP)
        memo["_erased"] = out
    return out


def _sub(delta, sigma, u1, u2, allow_ig, in_flight: set) -> bool:
    if type_equiv(u1, u2):
        return True
    if is_top(u2):
        return True

    key = _goal_key(delta, u1, u2, "ig" if allow_ig else "sub")
    if key in in_flight:
        return True
    in_flight.add(key)
    try:
        return _sub_dispatch(delta, sigma, u1, u2, allow_ig, in_flight)
    finally:
        in_flight.discard(key)


def _sub_dispatch(delta, sigma, u1, u2, allow_ig, in_flight) -> bool:
    # Generic variable on the left: through its upper bound.
    if isinstance(u1, TypeVar):
        if u1.name not in delta:
            raise IllFormedInput(f"unbound type variable {u1.name}")
        if _sub(delta, sigma, delta[u1.name][1], u2, allow_ig, in_flight):
            return True
    # Generic variable on the right: through its lower bound.
    if isinstance(u2, TypeVar):
        if u2.name not in delta:
            raise IllFormedInput(f"unbound type variable {u2.name}")
        return _sub(delta, sigma, u1, delta[u2.name][0], allow_ig, in_flight)
    if isinstance(u1, TypeVar):
        return False

    if isinstance(u1, SelfVar):
        return isinstance(u2, SelfVar) and (("self", u1.name), u2.name) in sigma
    if isinstance(u2, SelfVar):
        return isinstance(u1, Prim) and (("prim", u1.kind), u2.name) in sigma

    if isinstance(u1, Prim):
        if isinstance(u2, Prim):
            return False  # distinct kinds; equal kinds were caught by equivalence
        # A primitive interface consists of primitive signatures only, so a
        # standard signature above one is accepted exactly when it is a
        # sound declassification of it.
        return _sub_record(delta, sigma, meths(u1.kind), unfold(u2).methods, True, in_flight)

    if isinstance(u1, ObjType) and isinstance(u2, ObjType):
        return _sub_record(delta, sigma, unfold(u1).methods, unfold(u2).methods, allow_ig, in_flight)

    # Object type below a primitive kind: no rule.
    return False


def sub_record(
    delta: TypeVarEnv,
    sigma: SubAssumptions,
    r1: tuple[tuple[str, MethodSig], ...],
    r2: tuple[tuple[str, MethodSig], ...],
    *,
    allow_ig: bool = False,
) -> bool:
    """Width and depth subtyping between two method records."""
    check_shape(*(s for _, s in r1), *(s for _, s in r2))
    return _sub_record(delta, sigma, r1, r2, allow_ig, set())


def _sub_record(delta, sigma, r1, r2, allow_ig, in_flight) -> bool:
    left = dict(r1)
    for name, sig2 in r2:
        sig1 = left.get(name)
        if sig1 is None:
            return False
        if not _sub_sig(delta, sigma, sig1, sig2, allow_ig, in_flight):
            return False
    return True


def sub_sig(
    delta: TypeVarEnv,
    sigma: SubAssumptions,
    m1: MethodSig,
    m2: MethodSig,
    *,
    allow_ig: bool = False,
) -> bool:
    """Signature subtyping: bounds of the right inside bounds of the left,
    then contravariant arguments and covariant return; primitive
    signatures are below themselves only (and, under `allow_ig`, below
    sound standard signatures)."""
    check_shape(m1, m2)
    return _sub_sig(delta, sigma, m1, m2, allow_ig, set())


def _sub_sig(delta, sigma, m1, m2, allow_ig, in_flight) -> bool:
    if isinstance(m1, PrimSig) and isinstance(m2, PrimSig):
        return m1 == m2
    if isinstance(m1, PrimSig) and isinstance(m2, GenericSig):
        if not allow_ig:
            return False
        return _ig_ok(delta, sigma, m1, m2, in_flight)
    if isinstance(m1, GenericSig) and isinstance(m2, PrimSig):
        return False
    return _sub_generic(delta, sigma, m1, m2, allow_ig, in_flight)


def _sub_generic(delta, sigma, m1: GenericSig, m2: GenericSig, allow_ig, in_flight) -> bool:
    if len(m1.args) != len(m2.args) or len(m1.tparams) != len(m2.tparams):
        return False
    m1, m2 = rename_tparams(m1, f"%X{len(delta)}."), rename_tparams(m2, f"%X{len(delta)}.")
    inner = dict(delta)
    for tp1, tp2 in zip(m1.tparams, m2.tparams):
        # Bounds of the supertype must lie inside the bounds of the subtype.
        if not _sub(inner, sigma, tp2.upper, tp1.upper, allow_ig, in_flight):
            return False
        if not _sub(inner, sigma, tp1.lower, tp2.lower, allow_ig, in_flight):
            return False
        inner[tp1.name] = (tp2.lower, tp2.upper)
    for a1, a2 in zip(m1.args, m2.args):
        if not _sub_sectype(inner, sigma, a2, a1, allow_ig, in_flight):
            return False
    return _sub_sectype(inner, sigma, m1.ret, m2.ret, allow_ig, in_flight)


def _ig_ok(delta, sigma, prim: PrimSig, gen: GenericSig, in_flight) -> bool:
    """A standard signature declassifying a primitive one: contravariant
    argument safety, covariant return safety, and the signature is sound
    (public primitive arguments or private return)."""
    if len(gen.args) != len(prim.arg_kinds):
        return False
    inner = dict(delta)
    for tp in gen.tparams:
        inner[tp.name] = (tp.lower, tp.upper)
    for kind, arg in zip(prim.arg_kinds, gen.args):
        if not _sub(inner, sigma, arg.safety, Prim(kind), True, in_flight):
            return False
    if not _sub(inner, sigma, Prim(prim.ret_kind), gen.ret.safety, True, in_flight):
        return False
    return _soundsig(gen)


def sub_sectype(
    delta: TypeVarEnv,
    sigma: SubAssumptions,
    s1: Faceted,
    s2: Faceted,
    *,
    allow_ig: bool = False,
) -> bool:
    """Pointwise subtyping of the two facets."""
    check_shape(s1, s2)
    return _sub_sectype(delta, sigma, s1, s2, allow_ig, set())


def sub_wf_sectype(delta: TypeVarEnv, s1: Faceted, s2: Faceted) -> bool:
    """`sub_sectype` under no self-variable assumptions and without the
    shape check, for the checker: its security types come from well-formed
    annotations and inputs, many of them freshly instantiated, and the
    check would walk each new one."""
    return _sub_sectype(delta, EMPTY_SIGMA, s1, s2, False, set())


def _sub_sectype(delta, sigma, s1, s2, allow_ig, in_flight) -> bool:
    return _sub(delta, sigma, s1.safety, s2.safety, allow_ig, in_flight) and _sub(
        delta, sigma, s1.decl, s2.decl, allow_ig, in_flight
    )


# ---------------------------------------------------------------------------
# Declarative oracle
# ---------------------------------------------------------------------------


def declarative_oracle(
    delta: TypeVarEnv,
    sigma: SubAssumptions,
    u1: DeclType,
    u2: DeclType,
    budget: int = 8,
    pool: tuple | None = None,
    memo: dict | None = None,
) -> bool:
    """Exhaustive search over the declarative rules up to structural
    derivation depth `budget`.

    Transitivity is handled exactly as reachability through a finite
    candidate pool (subterms, bounds, unfoldings, the primitives, and the
    empty interface), so chains cost no depth. Raises BudgetExceeded when
    the search was truncated by the depth limit without finding a
    derivation (distinct from a definite `False`). A shared `pool`/`memo`
    may be supplied when checking many goals over one universe."""
    if pool is None:
        pool = _candidate_pool(delta, u1, u2)
    if memo is None:
        memo = {}
    ok, truncated = _derive(delta, sigma, u1, u2, budget, pool, memo)
    if ok:
        return True
    if truncated:
        raise BudgetExceeded(f"undecided at budget {budget}")
    return False


def _candidate_pool(delta: TypeVarEnv, u1, u2) -> tuple:
    seen: dict = {}

    def add(t) -> None:
        if isinstance(t, (Prim, ObjType, SelfVar, TypeVar)):
            seen.setdefault(canon(t), t)

    for u in (u1, u2):
        for t in iter_subterms(u):
            add(t)
    for lo, hi in delta.values():
        add(lo)
        add(hi)
    add(TOP)
    add(Prim("Int"))
    add(Prim("String"))
    for t in list(seen.values()):
        if isinstance(t, ObjType) and t.methods:
            add(unfold(t))
    return tuple(seen.values())


def _derive(delta, sigma, u1, u2, budget, pool, memo) -> tuple[bool, bool]:
    """Full declarative derivability: one base rule, or a transitivity
    chain of base steps threading through the candidate pool."""
    key = ("full", canon_delta(delta), tuple(sorted(sigma)), canon(u1), canon(u2))
    hit = memo.get(key)
    if hit is not None:
        done_budget, result, truncated = hit
        if result or not truncated or done_budget >= budget:
            return result, truncated
    if budget <= 0:
        return False, True

    ok, truncated = _derive_base(delta, sigma, u1, u2, budget, pool, memo)
    if not ok:
        # Reachability u1 -> ... -> u2 over base edges through the pool.
        nodes = {canon(u2): u2}
        for t in pool:
            nodes.setdefault(canon(t), t)
        target = canon(u2)
        visited = {canon(u1)}
        frontier = [u1]
        while frontier and not ok:
            a = frontier.pop()
            for ck, b in nodes.items():
                if ck in visited:
                    continue
                step_ok, tr = _derive_base(delta, sigma, a, b, budget, pool, memo)
                truncated |= tr
                if step_ok:
                    if ck == target:
                        ok = True
                        break
                    visited.add(ck)
                    frontier.append(b)
    memo[key] = (budget, ok, truncated if not ok else False)
    return ok, truncated if not ok else False


def _derive_base(delta, sigma, u1, u2, budget, pool, memo) -> tuple[bool, bool]:
    """Derivability by a single non-transitivity rule."""
    key = ("base", canon_delta(delta), tuple(sorted(sigma)), canon(u1), canon(u2))
    hit = memo.get(key)
    if hit is not None:
        done_budget, result, truncated = hit
        if result or not truncated or done_budget >= budget:
            return result, truncated
    truncated = False

    def conclude(res: bool) -> tuple[bool, bool]:
        memo[key] = (budget, res, truncated if not res else False)
        return res, truncated if not res else False

    # Equivalence (includes reflexivity and fold/unfold).
    if type_equiv(u1, u2):
        return conclude(True)
    # Assumptions.
    if isinstance(u1, SelfVar) and isinstance(u2, SelfVar) and (("self", u1.name), u2.name) in sigma:
        return conclude(True)
    if isinstance(u1, Prim) and isinstance(u2, SelfVar) and (("prim", u1.kind), u2.name) in sigma:
        return conclude(True)
    # Variable bounds, exactly as declared.
    if isinstance(u1, TypeVar) and u1.name in delta and type_equiv(delta[u1.name][1], u2):
        return conclude(True)
    if isinstance(u2, TypeVar) and u2.name in delta and type_equiv(delta[u2.name][0], u1):
        return conclude(True)
    # Structural rules.
    if isinstance(u1, ObjType) and isinstance(u2, ObjType):
        if budget <= 0:
            return False, True
        alpha, beta = f"%oa{budget}", f"%ob{budget}"
        r1 = rename_self_var(u1, alpha).methods
        r2 = rename_self_var(u2, beta).methods
        ok, tr = _derive_record(
            delta, assume_self(sigma, alpha, beta), r1, r2, budget - 1, pool, memo, ig=False
        )
        truncated |= tr
        if ok:
            return conclude(True)
    if isinstance(u1, Prim) and isinstance(u2, ObjType):
        if budget <= 0:
            return False, True
        beta = f"%ob{budget}"
        r2 = rename_self_var(u2, beta).methods
        ok, tr = _derive_record(
            delta, assume_prim(sigma, u1.kind, beta), meths(u1.kind), r2, budget - 1, pool, memo, ig=True
        )
        truncated |= tr
        if ok:
            return conclude(True)
    return conclude(False)


def _derive_record(delta, sigma, r1, r2, budget, pool, memo, ig: bool = False) -> tuple[bool, bool]:
    truncated = False
    left = dict(r1)
    for name, sig2 in r2:
        sig1 = left.get(name)
        if sig1 is None:
            return False, truncated
        ok, tr = _derive_sig(delta, sigma, sig1, sig2, budget, pool, memo, ig)
        truncated |= tr
        if not ok:
            return False, truncated
    return True, truncated


def _derive_sig(delta, sigma, m1, m2, budget, pool, memo, ig: bool = False) -> tuple[bool, bool]:
    if isinstance(m1, PrimSig) and isinstance(m2, GenericSig) and ig:
        if len(m2.args) != len(m1.arg_kinds):
            return False, False
        inner = dict(delta)
        for tp in m2.tparams:
            inner[tp.name] = (tp.lower, tp.upper)
        truncated = False
        for kind, arg in zip(m1.arg_kinds, m2.args):
            ok, tr = _derive(inner, sigma, arg.safety, Prim(kind), budget, pool, memo)
            truncated |= tr
            if not ok:
                return False, truncated
        ok, tr = _derive(inner, sigma, Prim(m1.ret_kind), m2.ret.safety, budget, pool, memo)
        truncated |= tr
        if not ok:
            return False, truncated
        return soundsig(m2), truncated
    if isinstance(m1, PrimSig) or isinstance(m2, PrimSig):
        return m1 == m2, False
    if len(m1.tparams) != len(m2.tparams) or len(m1.args) != len(m2.args):
        return False, False
    m1, m2 = rename_tparams(m1, f"%oX{budget}."), rename_tparams(m2, f"%oX{budget}.")
    truncated = False
    inner = dict(delta)
    for tp1, tp2 in zip(m1.tparams, m2.tparams):
        ok, tr = _derive(inner, sigma, tp2.upper, tp1.upper, budget, pool, memo)
        truncated |= tr
        if not ok:
            return False, truncated
        ok, tr = _derive(inner, sigma, tp1.lower, tp2.lower, budget, pool, memo)
        truncated |= tr
        if not ok:
            return False, truncated
        inner[tp1.name] = (tp2.lower, tp2.upper)
    for a1, a2 in zip(m1.args, m2.args):
        ok, tr = _derive_sectype(inner, sigma, a2, a1, budget, pool, memo)
        truncated |= tr
        if not ok:
            return False, truncated
    ok, tr = _derive_sectype(inner, sigma, m1.ret, m2.ret, budget, pool, memo)
    truncated |= tr
    return ok, truncated


def _derive_sectype(delta, sigma, s1, s2, budget, pool, memo) -> tuple[bool, bool]:
    ok1, tr1 = _derive(delta, sigma, s1.safety, s2.safety, budget, pool, memo)
    if not ok1:
        return False, tr1
    ok2, tr2 = _derive(delta, sigma, s1.decl, s2.decl, budget, pool, memo)
    return ok2, tr1 | tr2

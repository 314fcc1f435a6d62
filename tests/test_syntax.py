"""Substitution, alpha-equality, and immutability of the core syntax."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gobsec.algebra import unfold
from gobsec.subtyping import _erase
from gobsec.syntax import (
    TOP,
    Faceted,
    GenericSig,
    GobsecError,
    Invoke,
    MethodDef,
    ObjType,
    ObjectLit,
    Prim,
    PrimLit,
    SelfVar,
    TParam,
    TypeVar,
    Var,
    alpha_eq,
    alpha_eq_expr,
    canon,
    free_self_vars,
    free_type_vars,
    public,
    subst_self_var,
    subst_term,
    subst_type_vars,
)

from conftest import INT, STRING_LEN, random_closed_type, random_sectype

STRING = Prim("String")


class TestSubstTypeVar:
    def test_direct_replacement(self):
        s = Faceted(STRING, TypeVar("X"))
        assert subst_type_vars(s, {"X": STRING_LEN}) == Faceted(STRING, STRING_LEN)

    def test_other_variable_untouched(self):
        s = Faceted(STRING, TypeVar("Y"))
        assert subst_type_vars(s, {"X": STRING_LEN}) == s

    def test_shadowed_by_signature_binder(self):
        sig = GenericSig(
            (TParam("X", STRING, TOP),),
            (Faceted(STRING, TypeVar("X")),),
            Faceted(STRING, TypeVar("X")),
        )
        # The inner X is bound by the signature; substitution must not touch it.
        assert subst_type_vars(sig, {"X": STRING_LEN}) == sig

    def test_empty_mapping_returns_the_target(self):
        sig = GenericSig((TParam("X", STRING, TOP),), (Faceted(STRING, TypeVar("Y")),), public(STRING))
        assert subst_type_vars(sig, {}) is sig

    def test_no_free_occurrence_returns_the_target(self):
        sig = GenericSig((TParam("X", STRING, TOP),), (Faceted(STRING, TypeVar("Y")),), public(STRING))
        assert subst_type_vars(sig, {"Z": TOP}) is sig

    def test_simultaneous_images_are_not_substituted_again(self):
        s = Faceted(INT, TypeVar("X"))
        assert subst_type_vars(s, {"X": TypeVar("Y"), "Y": INT}) == Faceted(INT, TypeVar("Y"))

    def test_parameter_capturing_an_image_is_renamed(self):
        # <Y : Int .. Top> : Int<X> -> Int<Y> with X := Y must not bind
        # the image Y to the parameter.
        sig = GenericSig((TParam("Y", INT, TOP),), (Faceted(INT, TypeVar("X")),), Faceted(INT, TypeVar("Y")))
        got = subst_type_vars(sig, {"X": TypeVar("Y"), "Z": INT})
        want = GenericSig((TParam("W", INT, TOP),), (Faceted(INT, TypeVar("Y")),), Faceted(INT, TypeVar("W")))
        assert alpha_eq(got, want)

    def test_shadowing_matches_naive_substitution_with_shadow_set(self):
        # Independent oracle: a naive recursive substitution carrying an
        # explicit shadow set, written without the production code's
        # capture machinery (replacements here are closed, so capture
        # cannot occur and the two must agree).
        def naive(x, actual, name, shadow):
            if isinstance(x, TypeVar):
                return actual if (x.name == name and name not in shadow) else x
            if isinstance(x, (Prim, SelfVar)):
                return x
            if isinstance(x, ObjType):
                return ObjType(x.self_var, tuple((m, naive(s, actual, name, shadow)) for m, s in x.methods))
            if isinstance(x, Faceted):
                return Faceted(naive(x.safety, actual, name, shadow), naive(x.decl, actual, name, shadow))
            if isinstance(x, GenericSig):
                inner = set(shadow)
                tps = []
                for tp in x.tparams:
                    tps.append(TParam(tp.name, naive(tp.lower, actual, name, inner), naive(tp.upper, actual, name, inner)))
                    inner.add(tp.name)
                return GenericSig(
                    tuple(tps),
                    tuple(naive(a, actual, name, inner) for a in x.args),
                    naive(x.ret, actual, name, inner),
                )
            return x

        rng = random.Random(7)
        for _ in range(300):
            t = random_closed_type(rng, 2)
            holes = rng.choice(["X", "Y"])
            got = subst_type_vars(t, {holes: STRING_LEN})
            want = naive(t, STRING_LEN, holes, set())
            assert canon(got) == canon(want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_substitution_composition(self, seed):
        # sigma(S[U'/X]) == sigma(S)[sigma(U')/X] when X is not bound by sigma.
        rng = random.Random(seed)
        s = random_sectype(rng, 2, ())
        u_prime = random_closed_type(rng, 1)
        sigma_img = random_closed_type(rng, 1)
        lhs = subst_type_vars(subst_type_vars(s, {"X": u_prime}), {"Y": sigma_img})
        sigma_u = subst_type_vars(u_prime, {"Y": sigma_img})
        rhs = subst_type_vars(subst_type_vars(s, {"Y": sigma_img}), {"X": sigma_u})
        assert canon(lhs) == canon(rhs)
        # The same in one simultaneous substitution.
        both = subst_type_vars(s, {"X": sigma_u, "Y": sigma_img})
        assert canon(both) == canon(lhs)


class TestSubstSelfVar:
    def test_replaces_free_occurrence(self):
        obj = ObjType("o", (("m", GenericSig((), (public(Prim("Unit")),), Faceted(SelfVar("al"), TOP))),))
        sig = GenericSig((), (public(Prim("Unit")),), Faceted(SelfVar("al"), TOP))
        got = subst_self_var(sig, obj, "al")
        assert got == GenericSig((), (public(Prim("Unit")),), Faceted(obj, TOP))

    def test_no_free_occurrence_unchanged(self):
        sig = GenericSig((), (public(STRING),), public(STRING))
        assert subst_self_var(sig, STRING_LEN, "al") == sig

    def test_no_free_occurrence_shares_the_target(self):
        # Subtrees in which the variable is not free come back as they are,
        # so their cached keys carry over to the result.
        inner = ObjType("al", (("m", GenericSig((), (public(Prim("Unit")),), Faceted(SelfVar("al"), TOP))),))
        sig = GenericSig((), (public(inner),), Faceted(SelfVar("be"), TOP))
        got = subst_self_var(sig, STRING_LEN, "be")
        assert got.args[0] is sig.args[0]
        assert subst_self_var(sig, STRING_LEN, "al") is sig

    def test_inner_binder_free_in_the_image_is_renamed(self):
        # The image mentions a free self variable b; the signature's inner
        # object type binds b. Substituting must rename that binder, or the
        # image's b would be captured by it.
        unit = public(Prim("Unit"))
        image = ObjType("o", (("n", GenericSig((), (unit,), Faceted(SelfVar("b"), TOP))),))

        def inner(binder, hole):
            return ObjType(binder, (("m", GenericSig((), (Faceted(SelfVar(binder), TOP),), Faceted(hole, TOP))),))

        sig = GenericSig((), (unit,), Faceted(inner("b", SelfVar("al")), TOP))
        got = subst_self_var(sig, image, "al")
        want = GenericSig((), (unit,), Faceted(inner("c", image), TOP))
        assert canon(got) == canon(want)
        assert got.ret.safety.self_var != "b"
        assert free_self_vars(got) == {"b"}
        # The image's b stays free inside the result: the image is shared.
        assert got.ret.safety.methods[0][1].ret.safety is image

    def test_unfolding_renames_a_parameter_that_would_capture(self):
        # X is free in t and m binds an X of its own: unfolding puts t
        # under m's binder, which must be renamed rather than capture t's X.
        unit = public(Prim("Unit"))
        t = ObjType(
            "o",
            (
                ("get", GenericSig((), (unit,), Faceted(INT, TypeVar("X")))),
                ("m", GenericSig((TParam("X", TOP, TOP),), (unit,), public(SelfVar("o")))),
            ),
        )
        from gobsec.algebra import unfold

        m = unfold(t).sig("m")
        assert free_type_vars(m) == {"X"}
        assert m.tparams[0].name != "X"
        assert m.ret.safety is t

    def test_non_type_is_rejected(self):
        with pytest.raises(GobsecError):
            free_self_vars(Var("x"))
        with pytest.raises(GobsecError):
            subst_self_var(Var("x"), STRING_LEN, "al")

    def test_node_without_a_dict_is_rejected(self):
        # None, at the top or nested, is a GobsecError, not an AttributeError.
        for x in (None, Faceted(Prim("Int"), None), ObjType("a", (("m", None),))):
            with pytest.raises(GobsecError, match="not a type: None"):
                free_type_vars(x)

    def test_unfolding_is_equivalent(self):
        from gobsec.algebra import type_equiv, unfold

        t = ObjType("al", (("m", GenericSig((), (public(Prim("Unit")),), Faceted(SelfVar("al"), TOP))),))
        assert type_equiv(t, unfold(t))


class TestSubstTerm:
    def test_variable(self):
        assert subst_term(Var("x"), {"x": PrimLit(3, "Int")}) == PrimLit(3, "Int")

    def test_simultaneous(self):
        obj = ObjectLit("z", public(TOP), ())
        e = Invoke(Var("z"), "m", (), (Var("x"),))
        got = subst_term(e, {"z": obj, "x": PrimLit(1, "Int")})
        assert got == Invoke(obj, "m", (), (PrimLit(1, "Int"),))

    def test_identity_object_one_step(self):
        from gobsec.interp import step

        s = public(ObjType("z", (("id", GenericSig((), (public(Prim("Int")),), public(Prim("Int")))),)))
        obj = ObjectLit("z", s, (MethodDef("id", ("x",), Var("x")),))
        assert step(Invoke(obj, "id", (), (PrimLit(5, "Int"),))) == PrimLit(5, "Int")

    def test_shadowing(self):
        # The object binds x; the outer substitution must not reach inside.
        t = ObjType("t", (("m", GenericSig((), (public(Prim("Int")),), public(Prim("Int")))),))
        inner = ObjectLit("z", public(t), (MethodDef("m", ("x",), Var("x")),))
        got = subst_term(inner, {"x": PrimLit(9, "Int")})
        assert got.impl("m").body == Var("x")


class TestAlpha:
    def test_binder_renaming_preserves_equivalence(self):
        a = ObjType("al", (("m", GenericSig((), (public(Prim("Unit")),), Faceted(SelfVar("al"), SelfVar("al")))),))
        b = ObjType("be", (("m", GenericSig((), (public(Prim("Unit")),), Faceted(SelfVar("be"), SelfVar("be")))),))
        assert alpha_eq(a, b)

    def test_renamed_terms_equal(self):
        s = public(ObjType("z", (("id", GenericSig((), (public(Prim("Int")),), public(Prim("Int")))),)))
        e1 = ObjectLit("z", s, (MethodDef("id", ("x",), Var("x")),))
        e2 = ObjectLit("w", s, (MethodDef("id", ("y",), Var("y")),))
        assert alpha_eq_expr(e1, e2)

    def test_renaming_does_not_change_evaluation(self):
        from gobsec.interp import evaluate

        s = public(ObjType("z", (("id", GenericSig((), (public(Prim("Int")),), public(Prim("Int")))),)))
        e1 = Invoke(ObjectLit("z", s, (MethodDef("id", ("x",), Var("x")),)), "id", (), (PrimLit(5, "Int"),))
        e2 = Invoke(ObjectLit("w", s, (MethodDef("id", ("q",), Var("q")),)), "id", (), (PrimLit(5, "Int"),))
        assert evaluate(e1).expr == evaluate(e2).expr


def _fresh_copy(x):
    """A structurally equal tree that shares no node with `x`."""
    if isinstance(x, tuple):
        return tuple(_fresh_copy(v) for v in x)
    if dataclasses.is_dataclass(x):
        return type(x)(*(_fresh_copy(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


def _nodes(x):
    """Every dataclass node of a type, signature or security type."""
    if isinstance(x, tuple):
        for v in x:
            yield from _nodes(v)
    elif dataclasses.is_dataclass(x):
        yield x
        for f in dataclasses.fields(x):
            yield from _nodes(getattr(x, f.name))


def _free_self_vars_by_walk(x, bound=frozenset()):
    """Reference: free self variables by a walk carrying the bound names."""
    if isinstance(x, SelfVar):
        return {x.name} - bound
    if isinstance(x, ObjType):
        bound = bound | {x.self_var}
    if isinstance(x, tuple):
        kids = x
    elif dataclasses.is_dataclass(x):
        kids = [getattr(x, f.name) for f in dataclasses.fields(x)]
    else:
        return set()
    return set().union(*(_free_self_vars_by_walk(k, bound) for k in kids))


def test_node_caches_are_invisible():
    rng = random.Random(11)
    for _ in range(2000):
        t = random_closed_type(rng, 2)
        cold = _fresh_copy(t)
        for node, twin in zip(_nodes(t), _nodes(cold)):
            if isinstance(node, (ObjType, GenericSig, Faceted, TParam)):
                # The hash is kept on the node: read twice, it is the hash
                # of a structurally equal node built afresh.
                assert hash(node) == node.__dict__["_hash"]
                assert hash(node) == hash(_fresh_copy(node))
            if isinstance(node, TParam):
                continue  # no canonical form of its own
            # The answer that fills the cache is the answer read from it ...
            first = (canon(node), free_self_vars(node))
            assert first[1] == _free_self_vars_by_walk(node)
            assert (canon(node), free_self_vars(node)) == first
            # ... and a structurally equal node built afresh agrees.
            assert first == (canon(twin), free_self_vars(twin))
            if isinstance(node, ObjType):
                uncached = _fresh_copy(node)
                closed = []
                for (m, s), (_, s_cold) in zip(node.methods, uncached.methods):
                    got = subst_self_var(s, node, node.self_var)
                    closed.append((m, subst_self_var(s_cold, uncached, node.self_var)))
                    assert canon(got) == canon(closed[-1][1])
                # The unfolding and the erasure are cached on the node: read
                # twice, each agrees with the answer built on an uncached
                # copy (the unfolding by closing its record by hand).
                assert canon(unfold(node)) == canon(ObjType(node.self_var, tuple(closed)))
                assert unfold(node) is unfold(node)
                assert canon(_erase(node)) == canon(_erase(uncached))
                assert _erase(node) is _erase(node)
        # Every node of t now holds its caches (its unfolding and erasure
        # too); a fresh copy still compares, hashes and prints the same.
        uncached = _fresh_copy(t)
        assert t == uncached and uncached == t
        assert hash(t) == hash(uncached)
        assert repr(t) == repr(uncached)
        if isinstance(t, ObjType):
            assert "_unfold" in t.__dict__ and "_erased" in t.__dict__


def test_nodes_are_immutable():
    v = Var("x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.name = "y"
    t = Prim("Int")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.kind = "Bool"


def test_free_type_vars():
    sig = GenericSig(
        (TParam("X", STRING, TOP),),
        (Faceted(STRING, TypeVar("X")),),
        Faceted(STRING, TypeVar("Z")),
    )
    assert free_type_vars(sig) == {"Z"}
    # A parameter binds in the later bounds and the body, not in its own
    # bound or the earlier ones.
    sig = GenericSig(
        (TParam("X", TypeVar("Y"), TOP), TParam("Y", TypeVar("X"), TypeVar("Y"))),
        (Faceted(STRING, TypeVar("Y")),),
        Faceted(SelfVar("a"), TypeVar("Z")),
    )
    assert free_type_vars(sig) == {"Y", "Z"}
    assert free_self_vars(sig) == {"a"}

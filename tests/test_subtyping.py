"""Algorithmic subtyping: examples, order-theoretic properties, and
agreement with the declarative-search oracle."""

import random

import pytest

from gobsec.algebra import sectype_equiv, soundsig
from gobsec.subtyping import declarative_oracle, simple_sub_type, sub_record, sub_sectype, sub_sig, sub_type
from gobsec.syntax import (
    EMPTY_SIGMA,
    TOP,
    Faceted,
    GenericSig,
    GobsecError,
    ObjType,
    PrimSig,
    SelfVar,
    TParam,
    TypeVar,
    assume_prim,
    assume_self,
    public,
)

from conftest import (
    BOOL,
    INT,
    STRING,
    STR_FST_LEN,
    STRING_EQ,
    STRING_FST,
    STRING_LEN,
    UNIT_T,
    gsig,
    random_closed_type,
)


class TestSubType:
    def test_string_below_length_policy(self):
        assert sub_type({}, EMPTY_SIGMA, STRING, STRING_LEN)

    def test_variable_through_upper_bound(self):
        delta = {"X": (STR_FST_LEN, STRING_LEN)}
        assert sub_type(delta, EMPTY_SIGMA, TypeVar("X"), STRING_LEN)

    def test_no_object_below_primitive(self):
        assert not sub_type({}, EMPTY_SIGMA, STRING_EQ, STRING)

    def test_variable_through_lower_bound(self):
        delta = {"X": (STR_FST_LEN, STRING_LEN)}
        assert sub_type(delta, EMPTY_SIGMA, STRING, TypeVar("X"))

    def test_self_variables_through_assumptions(self):
        sigma = assume_self(EMPTY_SIGMA, "al", "be")
        assert sub_type({}, sigma, SelfVar("al"), SelfVar("be"))
        assert not sub_type({}, sigma, SelfVar("be"), SelfVar("al"))

    def test_prim_below_self_variable_assumption(self):
        sigma = assume_prim(EMPTY_SIGMA, "String", "be")
        assert sub_type({}, sigma, STRING, SelfVar("be"))

    def test_recursive_width(self):
        lst = ObjType(
            "l",
            (
                ("isEmpty", gsig([public(UNIT_T)], public(BOOL))),
                ("head", gsig([public(UNIT_T)], public(STRING))),
                ("tail", gsig([public(UNIT_T)], Faceted(SelfVar("l"), SelfVar("l")))),
            ),
        )
        dropped = ObjType(
            "k",
            (
                ("isEmpty", gsig([public(UNIT_T)], public(BOOL))),
                ("tail", gsig([public(UNIT_T)], Faceted(SelfVar("k"), SelfVar("k")))),
            ),
        )
        assert sub_type({}, EMPTY_SIGMA, lst, dropped)
        assert not sub_type({}, EMPTY_SIGMA, dropped, lst)

    def test_folded_vs_unfolded_widening(self):
        u1 = ObjType("al", (("m", gsig([public(UNIT_T)], Faceted(SelfVar("al"), SelfVar("al")))),))
        u2 = ObjType("be", (("m", gsig([public(UNIT_T)], public(TOP))),))
        assert sub_type({}, EMPTY_SIGMA, u1, u2)

    def test_width_below_a_recursive_type_spelled_unfolded(self):
        # The right side is `Obj(c)[ m : Unit! -> c! ]` with one layer
        # written out. The closed records return the whole left type and
        # `Obj(c)`, which lose `n` and `m`'s unfolding respectively: a goal
        # between two object types, compared by their closed records again.
        wide = ObjType(
            "a",
            (
                ("m", gsig([public(UNIT_T)], public(SelfVar("a")))),
                ("n", gsig([public(UNIT_T)], public(INT))),
            ),
        )
        narrow = ObjType("c", (("m", gsig([public(UNIT_T)], public(SelfVar("c")))),))
        spelled_out = ObjType("b", (("m", gsig([public(UNIT_T)], public(narrow))),))
        assert sub_type({}, EMPTY_SIGMA, wide, spelled_out)

    def test_goal_revisited_under_a_bounded_parameter(self):
        # A <: B needs B <: A for the argument, which needs A <: B again,
        # each one signature parameter deeper. The revisit is assumed; B's
        # argument `s!` is not above A's `s?` because `Top` is not below B.
        s = SelfVar("s")
        a = ObjType("s", (("p", GenericSig((TParam("X", BOOL, TOP),), (Faceted(s, TOP),), Faceted(s, TOP))),))
        b = ObjType("s", (("p", GenericSig((TParam("X", BOOL, TOP),), (Faceted(s, s),), Faceted(TOP, TOP))),))
        assert not sub_type({}, EMPTY_SIGMA, a, b)
        assert not sub_type({}, EMPTY_SIGMA, a, b, allow_ig=True)
        assert sub_type({}, EMPTY_SIGMA, a, a) and sub_type({}, EMPTY_SIGMA, b, b)


class TestSubRecord:
    def test_width(self):
        r1 = STR_FST_LEN.methods
        r2 = STRING_LEN.methods
        assert sub_record({}, EMPTY_SIGMA, r1, r2)
        assert not sub_record({}, EMPTY_SIGMA, (), r2)

    def test_depth_covariant_return_facet(self):
        r1 = (("m", gsig([public(UNIT_T)], public(STRING))),)
        r2 = (("m", gsig([public(UNIT_T)], Faceted(STRING, STRING_LEN))),)
        assert sub_record({}, EMPTY_SIGMA, r1, r2)
        assert not sub_record({}, EMPTY_SIGMA, r2, r1)


class TestSubSig:
    def test_bounds_of_supertype_inside_subtype(self):
        wide = GenericSig((TParam("X", STRING, TOP),), (public(STRING),), public(STRING))
        narrow = GenericSig((TParam("X", STR_FST_LEN, STRING_LEN),), (public(STRING),), public(STRING))
        assert sub_sig({}, EMPTY_SIGMA, wide, narrow)
        assert not sub_sig({}, EMPTY_SIGMA, narrow, wide)

    def test_primitive_signature_identity_only(self):
        s = PrimSig(("String",), "Bool")
        assert sub_sig({}, EMPTY_SIGMA, s, s)
        assert not sub_sig({}, EMPTY_SIGMA, s, PrimSig(("Int",), "Bool"))

    def test_primitive_below_generic_only_in_facet_relation(self):
        prim = PrimSig(("String",), "Bool")
        std = gsig([public(STRING)], public(BOOL))
        assert not sub_sig({}, EMPTY_SIGMA, prim, std)
        assert sub_sig({}, EMPTY_SIGMA, prim, std, allow_ig=True)


class TestSubSectype:
    def test_fully_public_below_policy(self):
        assert sub_sectype({}, EMPTY_SIGMA, public(STRING), Faceted(STRING, STRING_LEN))

    def test_policy_not_below_public(self):
        assert not sub_sectype({}, EMPTY_SIGMA, Faceted(STRING, STRING_LEN), public(STRING))

    def test_reflexive(self):
        s = Faceted(STRING, STRING_LEN)
        assert sub_sectype({}, EMPTY_SIGMA, s, s)


class TestSimpleOrder:
    """The single-facet order forgets declassification facets and
    signature type parameters. The first three cases relate types in that
    order that the security order keeps apart."""

    def test_contravariant_argument_facet_ignored(self):
        takes_public = ObjType("a", (("m", gsig([public(INT)], public(INT))),))
        takes_private = ObjType("a", (("m", gsig([Faceted(INT, TOP)], public(INT))),))
        assert simple_sub_type(takes_public, takes_private)
        assert not sub_type({}, EMPTY_SIGMA, takes_public, takes_private)

    def test_signature_bounds_ignored(self):
        wide = GenericSig((TParam("X", STRING, TOP),), (public(STRING),), public(STRING))
        narrow = GenericSig((TParam("X", STR_FST_LEN, STRING_LEN),), (public(STRING),), public(STRING))
        with_narrow = ObjType("a", (("m", narrow),))
        with_wide = ObjType("a", (("m", wide),))
        assert simple_sub_type(with_narrow, with_wide)
        assert not sub_type({}, EMPTY_SIGMA, with_narrow, with_wide)

    def test_unsound_signature_above_primitive_accepted(self):
        # `+` declassifies a private argument into a public result.
        leaky_plus = ObjType("a", (("+", gsig([Faceted(INT, TOP)], public(INT))),))
        assert simple_sub_type(INT, leaky_plus)
        assert not sub_type({}, EMPTY_SIGMA, INT, leaky_plus)

    def test_signatures_differing_only_in_parameter_names(self):
        # The parameter sits in a safety facet, so erasure keeps it; both
        # spellings must erase to one type.
        def uses(name, ret):
            x = TypeVar(name)
            return ObjType("a", (("m", GenericSig((TParam(name, INT, TOP),), (Faceted(x, x),), ret)),))

        assert simple_sub_type(uses("X", public(INT)), uses("Y", public(INT)))
        assert simple_sub_type(uses("X", public(INT)), uses("Y", Faceted(INT, TOP)))

    def test_generic_method_against_its_unfolding(self):
        from gobsec.algebra import unfold

        x = TypeVar("X")
        m = GenericSig((TParam("X", INT, TOP),), (Faceted(x, x),), Faceted(SelfVar("s"), TOP))
        rec = ObjType("s", (("m", m),))
        assert simple_sub_type(rec, unfold(rec))
        assert simple_sub_type(unfold(rec), rec)

    def test_security_order_implies_simple_order(self):
        rng = random.Random(11)
        for _ in range(2000):
            a, b = random_closed_type(rng, 2), random_closed_type(rng, 2)
            if sub_type({}, EMPTY_SIGMA, a, b):
                assert simple_sub_type(a, b), (a, b)


class TestProperties:
    def test_reflexivity_on_random_types(self):
        rng = random.Random(5)
        for _ in range(200):
            t = random_closed_type(rng, 2)
            assert sub_type({}, EMPTY_SIGMA, t, t)

    def test_top_is_top(self):
        rng = random.Random(6)
        for _ in range(200):
            t = random_closed_type(rng, 2)
            assert sub_type({}, EMPTY_SIGMA, t, TOP)

    def test_transitivity_sampled(self):
        rng = random.Random(7)
        samples = [random_closed_type(rng, 2) for _ in range(60)]
        related = [
            (a, b) for a in samples for b in samples if sub_type({}, EMPTY_SIGMA, a, b)
        ]
        for a, b in related:
            for b2, c in related:
                if b is b2:
                    assert sub_type({}, EMPTY_SIGMA, a, c)

    def test_every_order_terminates_on_random_pairs(self):
        # The 342nd pair is the one of `test_goal_revisited_under_a_bounded_parameter`,
        # which recursed without end while goal keys held the whole of delta.
        from gobsec.algebra import unfold

        def unf(t):
            return unfold(t) if isinstance(t, ObjType) else t

        rng = random.Random(3)
        for _ in range(6000):
            a, b = random_closed_type(rng, 2), random_closed_type(rng, 2)
            for a1, b1 in ((a, b), (unf(a), b), (a, unf(b))):
                sub_type({}, EMPTY_SIGMA, a1, b1)
                sub_type({}, EMPTY_SIGMA, a1, b1, allow_ig=True)
                simple_sub_type(a1, b1)

    def test_termination_on_recursive_mixtures(self):
        from gobsec.algebra import unfold

        lst = ObjType(
            "l",
            (
                ("head", gsig([public(UNIT_T)], public(STRING))),
                ("tail", gsig([public(UNIT_T)], Faceted(SelfVar("l"), SelfVar("l")))),
            ),
        )
        assert sub_type({}, EMPTY_SIGMA, lst, unfold(lst))
        assert sub_type({}, EMPTY_SIGMA, unfold(lst), lst)
        assert sub_type({}, EMPTY_SIGMA, unfold(unfold(lst)), unfold(lst))


class TestOracleSmoke:
    def test_agreement_on_named_policies(self):
        types = [INT, STRING, TOP, STRING_LEN, STRING_FST, STR_FST_LEN, STRING_EQ]
        for a in types:
            for b in types:
                alg = sub_type({}, EMPTY_SIGMA, a, b)
                orc = declarative_oracle({}, EMPTY_SIGMA, a, b)
                assert alg == orc, f"{a} <: {b}: algorithm={alg} oracle={orc}"

    def test_top_always_derivable(self):
        rng = random.Random(9)
        for _ in range(30):
            t = random_closed_type(rng, 1)
            assert declarative_oracle({}, EMPTY_SIGMA, t, TOP)

    def test_variable_reflexivity(self):
        delta = {"X": (STRING, TOP)}
        assert sub_type(delta, EMPTY_SIGMA, TypeVar("X"), TypeVar("X"))
        assert declarative_oracle(delta, EMPTY_SIGMA, TypeVar("X"), TypeVar("X"))

    def test_assumptions_below_signatures_agree_with_oracle(self):
        # Each leaf bare and below a signature: as a covariant result, as a
        # contravariant argument and as a declassification facet. `Top` is
        # left out: for a free self variable the algorithm accepts
        # `al <: Top` through its top shortcut, which the oracle has no
        # rule for. Package code never asks that, as `wf_sectype` rejects
        # free self variables before it compares.
        def forms(x):
            return [
                x,
                ObjType("o", (("m", gsig([public(INT)], public(x))),)),
                ObjType("o", (("m", gsig([public(x)], public(INT))),)),
                ObjType("o", (("m", gsig([public(INT)], Faceted(STRING, x))),)),
            ]

        universe = [t for x in (SelfVar("al"), SelfVar("be"), STRING, INT) for t in forms(x)]
        sigmas = [
            assume_self(EMPTY_SIGMA, "al", "be"),
            assume_self(EMPTY_SIGMA, "be", "al"),
            assume_prim(EMPTY_SIGMA, "String", "be"),
        ]
        only_assumed = 0
        for a in universe:
            for b in universe:
                plain = sub_type({}, EMPTY_SIGMA, a, b)
                assert plain == declarative_oracle({}, EMPTY_SIGMA, a, b), (a, b)
                for sigma in sigmas:
                    alg = sub_type({}, sigma, a, b)
                    assert alg == declarative_oracle({}, sigma, a, b), (sigma, a, b)
                    only_assumed += alg and not plain
        assert only_assumed == 15


class TestSignatureShapes:
    """The public entry points check their arguments' shape before reading
    a facet of a signature's argument: a plain type where a security type
    belongs is an error, never an `AttributeError` or an answer."""

    BAD = GenericSig((), (INT,), public(INT))  # the argument lacks its facets
    GOOD = gsig([public(INT)], public(INT))

    @pytest.mark.parametrize(
        "entry",
        [
            lambda g: sub_sig({}, EMPTY_SIGMA, g, g),
            lambda g: soundsig(g),
            lambda g: sub_record({}, EMPTY_SIGMA, (("m", g),), (("m", g),)),
            lambda g: sub_type({}, EMPTY_SIGMA, ObjType("s", (("m", g),)), ObjType("s", (("m", g),))),
            lambda g: sub_sectype({}, EMPTY_SIGMA, public(ObjType("s", (("m", g),))), public(ObjType("s", (("m", g),)))),
            lambda g: sectype_equiv(public(ObjType("s", (("m", g),))), public(ObjType("s", (("m", g),)))),
        ],
        ids=["sub_sig", "soundsig", "sub_record", "sub_type", "sub_sectype", "sectype_equiv"],
    )
    def test_a_plain_type_as_a_signature_argument_is_not_a_security_type(self, entry):
        assert entry(self.GOOD) is True
        with pytest.raises(GobsecError, match="not a security type: Prim"):
            entry(self.BAD)

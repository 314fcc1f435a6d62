"""Type equivalence, bounds, membership, signatures, and the primitive
interface machinery."""

import random
import sys

import pytest

from gobsec.algebra import (
    CyclicBounds,
    NoSuchMethod,
    UnboundTypeVar,
    UnfoldOfVariable,
    has_method,
    in_interval,
    meths,
    msig,
    prim_sig,
    rdecl,
    soundsig,
    type_equiv,
    unfold,
    upper_bound,
)
from gobsec.cli import corpus_dir
from gobsec.parser import parse_program, parse_sectype
from gobsec.subtyping import sub_type
from gobsec.syntax import (
    EMPTY_SIGMA,
    TOP,
    Faceted,
    GenericSig,
    ObjType,
    PrimSig,
    SelfVar,
    TParam,
    TypeVar,
    is_top,
    public,
    rename_self_var,
    subst_self_var,
)

from conftest import (
    BOOL,
    INT,
    STRING,
    STR_FST_LEN,
    STRING_EQ,
    STRING_EQ_BAD,
    STRING_LEN,
    UNIT_T,
    gsig,
    random_closed_type,
)


class TestTypeEquiv:
    def test_alpha_renaming_of_self_and_parameter(self):
        def mk(b, x):
            sv = SelfVar(b)
            return ObjType(b, (("m", GenericSig((TParam(x, sv, TOP),), (Faceted(sv, sv),), Faceted(sv, sv))),))

        assert type_equiv(mk("alpha", "X"), mk("beta", "X"))
        assert type_equiv(mk("alpha", "X"), mk("beta", "Y"))

    def test_one_level_unfolding(self):
        def mk(b, x):
            sv = SelfVar(b)
            return ObjType(b, (("m", GenericSig((TParam(x, sv, TOP),), (public(TOP),), Faceted(sv, sv))),))

        outer = mk("alpha", "X")
        inner = mk("beta", "Y")
        unfolded = ObjType(
            "alpha",
            (
                (
                    "m",
                    GenericSig(
                        (TParam("X", SelfVar("alpha"), TOP),),
                        (public(TOP),),
                        Faceted(inner, inner),
                    ),
                ),
            ),
        )
        assert type_equiv(outer, unfolded)

    def test_distinct_primitives(self):
        assert not type_equiv(INT, STRING)

    def test_nested_parameter_not_captured(self):
        # The inner `Int<X>` names the outer method's parameter and `Int<Y>`
        # the inner method's own; renaming both signatures' parameters to
        # the same names would identify the two.
        def mk(facet):
            inner = f"Obj(b)[ n<Y : Int .. Top> : Int<{facet}> -> Int! ]!"
            return parse_sectype(f"Obj(r)[ m<X : Int .. Top> : {inner} -> Int! ]!").safety

        outer_ref, inner_ref = mk("X"), mk("Y")
        assert not type_equiv(outer_ref, inner_ref)
        assert not sub_type({}, EMPTY_SIGMA, outer_ref, inner_ref)
        assert not sub_type({}, EMPTY_SIGMA, inner_ref, outer_ref)

    def test_laws_on_random_samples(self):
        rng = random.Random(11)
        samples = [random_closed_type(rng, 2) for _ in range(300)]
        for t in samples:
            assert type_equiv(t, t)
            assert type_equiv(t, unfold(t)) or not isinstance(t, ObjType)
        for _ in range(300):
            a, b = rng.choice(samples), rng.choice(samples)
            assert type_equiv(a, b) == type_equiv(b, a)


class TestUnfold:
    def test_top(self):
        assert unfold(TOP) == TOP

    def test_one_level(self):
        t = ObjType("al", (("m", gsig([public(UNIT_T)], Faceted(SelfVar("al"), TOP))),))
        u = unfold(t)
        assert u.sig("m").ret == Faceted(t, TOP)

    def test_variable_rejected(self):
        with pytest.raises(UnfoldOfVariable):
            unfold(TypeVar("X"))


def _list_str_len() -> ObjType:
    """`ListStrLen<X>`, the safety facet of `l1`, from its own parse of
    the corpus file."""
    text = (corpus_dir() / "list_concat_mixed.gobsec").read_text(encoding="utf-8")
    return parse_program(text).vars["l1"].safety


class TestPerTypeWork:
    """An object type's closed record is built once, by its first
    unfolding, and alpha-equal types are equal without unfolding."""

    def test_alpha_equal_types_are_not_unfolded(self, monkeypatch):
        t1, t2 = _list_str_len(), rename_self_var(_list_str_len(), "other")
        assert t1 is not t2 and t1 != t2
        calls = []

        def counted(*args):
            calls.append(args)
            return subst_self_var(*args)

        for m in [m for n, m in sys.modules.items() if n.startswith("gobsec.")]:
            if getattr(m, "subst_self_var", None) is subst_self_var:
                monkeypatch.setattr(m, "subst_self_var", counted)
        assert type_equiv(t1, t2) and type_equiv(t2, t1)
        assert calls == []

    @pytest.mark.parametrize(
        "make",
        [_list_str_len, lambda: parse_sectype("Obj(a)[ m : Unit! -> Obj(b)[ n : Unit! -> a! ]! ]!").safety],
        ids=["ListStrLen<X>", "nested"],
    )
    def test_a_second_comparison_builds_no_object_type(self, monkeypatch, make):
        t = make()
        u = unfold(t)
        assert type_equiv(t, u) and type_equiv(u, t)
        built = []
        post_init = ObjType.__post_init__

        def counted_post_init(self_):
            built.append(self_)
            post_init(self_)

        monkeypatch.setattr(ObjType, "__post_init__", counted_post_init)
        assert type_equiv(t, u) and type_equiv(u, t)
        assert built == []
        assert unfold(t) is u


class TestUpperBound:
    def test_non_variable(self):
        assert upper_bound({}, STRING) == STRING

    def test_one_step(self):
        assert upper_bound({"X": (STR_FST_LEN, STRING_LEN)}, TypeVar("X")) == STRING_LEN

    def test_two_step_chase(self):
        delta = {"X": (STRING, TypeVar("Y")), "Y": (STRING, TOP)}
        assert upper_bound(delta, TypeVar("X")) == TOP

    def test_unbound(self):
        with pytest.raises(UnboundTypeVar):
            upper_bound({}, TypeVar("X"))

    def test_cycle_detected(self):
        with pytest.raises(CyclicBounds):
            upper_bound({"X": (STRING, TypeVar("X"))}, TypeVar("X"))


class TestMembership:
    def test_object(self):
        assert has_method({}, STRING_LEN, "length")
        assert not has_method({}, STRING_LEN, "eq")

    def test_variable_through_upper_bound(self):
        assert has_method({"X": (STRING, STRING_EQ)}, TypeVar("X"), "eq")

    def test_primitive(self):
        assert has_method({}, STRING, "concat")
        assert not has_method({}, STRING, "frobnicate")


class TestMsig:
    def test_standard_signature(self):
        sig = msig({}, STRING_LEN, "length")
        assert sig == gsig([public(UNIT_T)], public(INT))

    def test_primitive_signature(self):
        assert msig({}, STRING, "eq") == PrimSig(("String",), "Bool")

    def test_self_variable_closed(self):
        t = ObjType("al", (("m", gsig([public(UNIT_T)], Faceted(SelfVar("al"), TOP))),))
        sig = msig({}, t, "m")
        assert sig.ret == Faceted(t, TOP)

    def test_missing(self):
        with pytest.raises(NoSuchMethod):
            msig({}, STRING_LEN, "eq")


class TestInterval:
    def test_string_in_stringlen_top(self):
        assert in_interval({}, STRING_LEN, STRING, TOP)

    def test_reflexive(self):
        assert in_interval({}, STRING_LEN, STRING_LEN, STRING_LEN)

    def test_top_not_in_narrow_interval(self):
        assert not in_interval({}, TOP, STRING, STRING_LEN)


class TestRdecl:
    def test_public_argument(self):
        assert rdecl(Faceted(INT, INT), "Bool") == BOOL

    def test_policy_argument_forces_private(self):
        assert is_top(rdecl(Faceted(STRING, STRING_EQ), "Bool"))

    def test_unit_public(self):
        assert rdecl(Faceted(UNIT_T, UNIT_T), "Int") == INT

    def test_output_shape(self):
        rng = random.Random(3)
        for _ in range(100):
            decl = random_closed_type(rng, 1)
            if isinstance(decl, SelfVar):
                continue
            out = rdecl(Faceted(STRING, decl), "Int")
            assert out == INT or is_top(out)


class TestSoundsig:
    def test_public_argument_ok(self):
        assert soundsig(gsig([public(STRING)], public(BOOL)))

    def test_private_argument_public_result_rejected(self):
        assert not soundsig(gsig([Faceted(STRING, TOP)], public(BOOL)))

    def test_private_result_ok(self):
        assert soundsig(gsig([Faceted(STRING, TOP)], Faceted(STRING, TOP)))

    def test_matches_wellformed_acceptance(self, policies):
        # The facet rule accepts a standard signature over a primitive
        # exactly when the signature is sound.
        from gobsec.wellformed import wf_sectype

        assert soundsig(STRING_EQ.sig("eq")) == wf_sectype({}, Faceted(STRING, STRING_EQ))
        assert soundsig(STRING_EQ_BAD.sig("eq")) == wf_sectype({}, Faceted(STRING, STRING_EQ_BAD))


class TestPrimInterfaces:
    def test_all_entries_are_primitive_signatures(self):
        for kind in ("Int", "String", "Bool", "Unit"):
            for _, sig in meths(kind):
                assert isinstance(sig, PrimSig)

    def test_expected_string_methods(self):
        names = {m for m, _ in meths("String")}
        assert names == {"concat", "first", "length", "eq", "hash"}
        assert prim_sig("String", "length") == PrimSig(("Unit",), "Int")

"""Well-formedness of types, faceted types, and environments."""

from gobsec.syntax import (
    TOP,
    Faceted,
    GenericSig,
    ObjType,
    SelfVar,
    TParam,
    TypeVar,
    public,
)
from gobsec.wellformed import Scope, wf_sectype, wf_term_env, wf_tvar_env, wf_type

from conftest import (
    BOOL,
    INT,
    STRING,
    STR_FST_LEN,
    STRING_EQ_BAD,
    STRING_EQ_POLY,
    STRING_LEN,
    UNIT_T,
    gsig,
)


class TestWfType:
    def test_top(self):
        assert wf_type(Scope(), TOP)

    def test_binders_in_scope(self):
        sv = SelfVar("al")
        t = ObjType(
            "al",
            (("m", GenericSig((TParam("X", sv, TOP),), (Faceted(sv, sv),), Faceted(sv, sv))),),
        )
        assert wf_type(Scope(), t)

    def test_unbound_self_variable(self):
        assert not wf_type(Scope(), SelfVar("al"))

    def test_unbound_generic_variable(self):
        issues = []
        assert not wf_type(Scope(), Faceted(STRING, TypeVar("X")), issues)
        assert any(i.code == "UnboundTypeVar" for i in issues)

    def test_parameter_not_in_scope_for_own_bounds(self):
        sig = GenericSig((TParam("X", TypeVar("X"), TOP),), (public(STRING),), public(STRING))
        assert not wf_type(Scope(), ObjType("a", (("m", sig),)))


class TestWfSectype:
    def test_length_policy_on_string(self):
        assert wf_sectype({}, Faceted(STRING, STRING_LEN))

    def test_unrelated_primitive_facet_rejected(self):
        issues = []
        assert not wf_sectype({}, Faceted(BOOL, INT), issues)
        assert issues

    def test_unsound_declassification_rejected(self):
        issues = []
        assert not wf_sectype({}, Faceted(STRING, STRING_EQ_BAD), issues)
        assert any("P1" in i.code or "P2" in i.code for i in issues)

    def test_primitive_signature_facet(self):
        assert wf_sectype({}, Faceted(STRING, STRING_EQ_POLY))

    def test_variable_facet_within_bounds(self):
        delta = {"X": (STR_FST_LEN, STRING_LEN)}
        assert wf_sectype(delta, Faceted(STRING, TypeVar("X")))

    def test_public_and_private_always_admissible(self):
        for t in (INT, STRING, BOOL, UNIT_T, TOP, STRING_LEN):
            assert wf_sectype({}, Faceted(t, t))
            assert wf_sectype({}, Faceted(t, TOP))

    def test_recursive_policy(self):
        lst = ObjType(
            "l",
            (
                ("isEmpty", gsig([public(UNIT_T)], public(BOOL))),
                ("head", gsig([public(UNIT_T)], public(STRING))),
                ("tail", gsig([public(UNIT_T)], Faceted(SelfVar("l"), SelfVar("l")))),
            ),
        )
        assert wf_sectype({}, Faceted(lst, lst))


class TestFacetStability:
    def test_admissibility_survives_bound_respecting_substitution(self):
        # A well-formed faceted type stays well-formed under every sampled
        # substitution within the variable's bounds.
        import random

        from gobsec.prni import sample_subst
        from gobsec.syntax import subst_type_vars

        delta = {"X": (STR_FST_LEN, STRING_LEN)}
        s = Faceted(STRING, TypeVar("X"))
        assert wf_sectype(delta, s)
        pool = {"StrFstLen": STR_FST_LEN, "StringLen": STRING_LEN, "Top": TOP}
        for seed in range(25):
            sigma = sample_subst(delta, pool, random.Random(seed))
            inst = subst_type_vars(s, sigma)
            assert wf_sectype({}, inst)


class TestWfEnvs:
    def test_tvar_env_ok(self):
        assert wf_tvar_env({"X": (STRING, STRING_LEN)})

    def test_tvar_env_cycle(self):
        issues = []
        assert not wf_tvar_env({"X": (STRING, TypeVar("X"))}, issues)

    def test_forward_reference_rejected(self):
        issues = []
        assert not wf_tvar_env({"X": (STRING, TypeVar("Y")), "Y": (STRING, TOP)}, issues)
        assert any(i.code == "IllFormedBound" for i in issues)

    def test_empty_interval_is_a_warning(self):
        issues = []
        assert wf_tvar_env({"X": (TOP, STRING)}, issues)
        assert any(i.severity == "warning" and i.code == "EmptyInterval" for i in issues)

    def test_term_env(self):
        delta = {"X": (STRING, STRING_LEN)}
        assert wf_term_env(delta, {"x": Faceted(STRING, TypeVar("X"))})
        issues = []
        assert not wf_term_env({}, {"x": Faceted(BOOL, INT)}, issues)
        assert issues

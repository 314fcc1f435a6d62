"""Well-formedness of types, faceted types, and environments."""

from gobsec.algebra import unfold
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
    public,
)
from gobsec.wellformed import wf_sectype, wf_term_env, wf_tvar_env, wf_type

from conftest import (
    BOOL,
    INT,
    STRING,
    STR_FST_LEN,
    STRING_EQ_BAD,
    STRING_EQ_POLY,
    STRING_LEN,
    UNIT_T,
    depth2_universe,
    gsig,
)


class TestWfType:
    def test_top(self):
        assert wf_type((), TOP)

    def test_binders_in_scope(self):
        sv = SelfVar("al")
        t = ObjType(
            "al",
            (("m", GenericSig((TParam("X", sv, TOP),), (Faceted(sv, sv),), Faceted(sv, sv))),),
        )
        assert wf_type((), t)

    def test_unbound_self_variable(self):
        assert not wf_type((), SelfVar("al"))

    def test_unbound_generic_variable(self):
        issues = []
        assert not wf_type((), Faceted(STRING, TypeVar("X")), issues)
        assert any(i.code == "UnboundTypeVar" for i in issues)

    def test_parameter_not_in_scope_for_own_bounds(self):
        sig = GenericSig((TParam("X", TypeVar("X"), TOP),), (public(STRING),), public(STRING))
        assert not wf_type((), ObjType("a", (("m", sig),)))

    def test_one_issue_per_unbound_name_in_sorted_order(self):
        y = public(TypeVar("Y"))
        t = ObjType("a", (("m", gsig([y, Faceted(TypeVar("X"), TOP)], y)),))
        issues = []
        assert not wf_type((), t, issues)
        assert [(i.code, i.message) for i in issues] == [
            ("UnboundTypeVar", "type variable X is not bound"),
            ("UnboundTypeVar", "type variable Y is not bound"),
        ]
        assert wf_type(("X", "Y"), t)

    def test_nested_non_type_is_bad_type(self):
        for check in (lambda s, i: wf_type((), s, i), lambda s, i: wf_sectype({}, s, i)):
            issues = []
            assert not check(Faceted(INT, None), issues)
            assert [str(i) for i in issues] == ["error[BadType]: not a type: None"]

    def test_signature_where_a_type_belongs_is_bad_type(self):
        # A signature is a type only as an object's method: not as a facet,
        # an argument, a result or a bound.
        psig = PrimSig(("Int",), "Int")
        bad = f"error[BadType]: not a type: {psig!r}"
        arg = ObjType("a", (("m", GenericSig((), (psig,), public(INT))),))
        issues = []
        assert not wf_sectype({}, Faceted(arg, arg), issues)
        assert [str(i) for i in issues] == [bad, bad]
        for t in (
            ObjType("a", (("m", GenericSig((), (), psig)),)),
            ObjType("a", (("m", GenericSig((TParam("X", psig, TOP),), (), public(INT))),)),
            Faceted(INT, psig),
            Faceted(gsig([], public(INT)), TOP),
        ):
            issues = []
            assert not wf_type((), t, issues)
            assert [i.code for i in issues] == ["BadType"]
        # As a method, a primitive signature is well formed.
        assert wf_type((), ObjType("a", (("m", psig),)))

    def test_plain_type_where_a_security_type_belongs_is_bad_type(self):
        # A signature's arguments and result are security types `T<U>`.
        bad = "error[BadType]: not a security type: Prim(kind='Int')"
        for sig in (
            GenericSig((), (INT,), public(INT)),
            GenericSig((), (public(INT),), INT),
        ):
            t = ObjType("a", (("m", sig),))
            issues = []
            assert not wf_sectype({}, Faceted(t, t), issues)
            assert [str(i) for i in issues] == [bad, bad]

    def test_security_type_where_a_plain_type_belongs_is_bad_type(self):
        # A facet and a bound are plain types, not security types.
        s = public(INT)
        bad = f"not a type: {s!r}"
        issues = []
        assert not wf_sectype({}, Faceted(s, TOP), issues)
        assert [str(i) for i in issues] == [f"error[BadType]: {bad}"]
        issues = []
        assert not wf_sectype({}, Faceted(s, s), issues)
        assert [str(i) for i in issues] == [f"error[BadType]: {bad}"] * 2
        for t in (
            ObjType("a", (("m", gsig([Faceted(INT, s)], public(INT))),)),
            ObjType("a", (("m", GenericSig((TParam("X", TOP, s),), (), public(INT))),)),
        ):
            issues = []
            assert not wf_type((), t, issues)
            assert [str(i) for i in issues] == [f"error[BadType]: {bad}"]
        issues = []
        assert not wf_tvar_env({"X": (s, TOP)}, issues)
        assert [str(i) for i in issues] == [f"error[IllFormedBound]: lower bound of X: {bad}"]
        # At the top, `wf_type` takes a security type facet by facet.
        assert wf_type((), s)


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
        assert [i.code for i in issues] == ["IG/P1"]

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

    def test_facet_check_is_subtyping_of_the_unfoldings(self):
        # Every facet pair of the depth-2 universe: the check is exactly
        # `sub_type` under IG on the one-level unfoldings.
        universe = depth2_universe()
        accepted = 0
        for a in universe:
            for b in universe:
                got = wf_sectype({}, Faceted(a, b))
                assert got == sub_type({}, EMPTY_SIGMA, unfold(a), unfold(b), allow_ig=True), (a, b)
                accepted += got
        assert accepted == 1363


class TestFacetStability:
    def test_admissibility_survives_bound_respecting_substitution(self):
        # A well-formed faceted type stays well-formed under every sampled
        # substitution within the variable's bounds.
        from gobsec.prni import sample_subst
        from gobsec.syntax import subst_type_vars

        delta = {"X": (STR_FST_LEN, STRING_LEN)}
        s = Faceted(STRING, TypeVar("X"))
        assert wf_sectype(delta, s)
        pool = {"StrFstLen": STR_FST_LEN, "StringLen": STRING_LEN, "Top": TOP}
        for seed in range(25):
            sigma = sample_subst(delta, pool, seed)
            inst = subst_type_vars(s, sigma)
            assert wf_sectype({}, inst)


class TestWfEnvs:
    def test_tvar_env_ok(self):
        assert wf_tvar_env({"X": (STRING, STRING_LEN)})

    def test_tvar_env_cycle(self):
        issues = []
        assert not wf_tvar_env({"X": (STRING, TypeVar("X"))}, issues)

    def test_two_cycle_rejected(self):
        issues = []
        assert not wf_tvar_env({"X": (STRING, TypeVar("Y")), "Y": (STRING, TypeVar("X"))}, issues)
        assert [i.code for i in issues] == ["IllFormedBound"]

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

"""The security type checker and the single-facet system."""


import pytest

from gobsec.algebra import type_equiv
from gobsec.parser import parse_program, parse_sectype, pretty_print
from gobsec.subtyping import sub_sectype
from gobsec.syntax import EMPTY_SIGMA, is_top
from gobsec.typecheck import TypeError_, sec_check, sec_synth, simple_synth

LEN_CTX = """
type StringLen = Obj(a)[ length : Unit! -> Int! ]
type StrFstLen = Obj(a)[ first : Unit! -> String!, length : Unit! -> Int! ]
tvar X : StrFstLen .. StringLen
var x : String<X>
"""

PRIM_CTX = """
type StringEqPoly = Obj(a)[ eq : String<*> -> Bool<*> ]
var a : String!
var b : String!
var c : String?
var d : String<StringEqPoly>
"""

LOGIN = """
type StringEq = Obj(a)[ eq : String! -> Bool! ]
var guess : String!
var password : String<StringEq>
if password.eq(guess) then "Login Successful" else "Login failed"
"""


def synth(src: str) -> tuple:
    p = parse_program(src)
    return p, sec_synth(p.tvars, p.vars, p.body)


def check(src: str, at: str) -> bool:
    p = parse_program(src)
    expected = parse_sectype(at, p.aliases, list(p.tvars))
    ok, _ = sec_check(p.tvars, p.vars, p.body, expected)
    return ok


class TestPolymorphicInvocation:
    def test_length_is_public(self):
        _, t = synth(LEN_CTX + "x.length()")
        assert pretty_print(t) == "Int!"

    def test_first_is_private(self):
        _, t = synth(LEN_CTX + "x.first()")
        assert pretty_print(t) == "String?"
        assert not check(LEN_CTX + "x.first()", "String!")

    def test_subject_at_length_policy(self):
        assert check(LEN_CTX + "x", "String<StringLen>")
        assert not check(LEN_CTX + "x", "String<Obj(b)[ first : Unit! -> String! ]>")


class TestPrimitiveInvocation:
    @pytest.mark.parametrize(
        "body,expected",
        [
            ("a.eq(b)", "Bool!"),
            ("a.eq(c)", "Bool?"),
            ("d.eq(b)", "Bool!"),
            ("d.concat(a)", "String?"),
        ],
    )
    def test_adhoc_publicness(self, body, expected):
        _, t = synth(PRIM_CTX + body)
        assert pretty_print(t) == expected

    def test_eq_on_length_policy_is_private(self):
        src = "type StringLen = Obj(a)[ length : Unit! -> Int! ]\nvar x : String<StringLen>\nx.eq(\"a\")"
        _, t = synth(src)
        assert pretty_print(t) == "Bool?"
        assert not check(src, "Bool!")
        assert check(src, "Bool?")


class TestLogin:
    def test_login_checks_public(self):
        assert check(LOGIN, "String!")

    def test_returning_the_password_fails(self):
        src = LOGIN.replace('if password.eq(guess) then "Login Successful" else "Login failed"', "password")
        assert not check(src, "String!")

    def test_progressive_hash_login(self):
        src = """
type IntEq = Obj(a)[ eq : Int! -> Bool! ]
type StringHashEq = Obj(a)[ hash : Unit! -> Int<IntEq> ]
var guess : Int!
var password : String<StringHashEq>
if password.hash().eq(guess) then "ok" else "no"
"""
        assert check(src, "String!")


class TestObjectsAndBounds:
    def test_bound_violation_reported(self):
        src = LEN_CTX + """
new { lib : Obj(b)[ use<Y : StrFstLen .. StringLen> : String<Y> -> Int! ]!
  use(s) => s.length()
}.use<Top>(x)
"""
        p = parse_program(src)
        with pytest.raises(TypeError_) as exc:
            sec_synth(p.tvars, p.vars, p.body)
        assert "BoundViolation" in exc.value.diag.rule

    def test_type_arguments_substitute_simultaneously(self):
        # The first type argument names the outer `Z`; the second parameter
        # is also called `Z`, and must not capture it. The program is
        # rejected exactly as its twin with that parameter renamed to `W`.
        src = """
type IntAdd = Obj(a)[ + : Int! -> Int! ]
tvar Z : Int .. IntAdd
var s : Int?
new {{ o : Obj(b)[ m<Y : Int .. IntAdd, {p} : Int .. Top> : Int<{p}> * Int<Y> -> Int! ]!
  m(c, a) => a.+(0)
}}.m<Z, Top>(1, s)
"""
        diags = []
        for param in ("Z", "W"):
            with pytest.raises(TypeError_) as exc:
                synth(src.format(p=param))
            diags.append(exc.value.diag)
        assert diags[0] == diags[1]
        assert diags[0].rule == "TmD/ArgMismatch" and "expected Int<Z>" in diags[0].message

    def test_missing_method_reported(self):
        with pytest.raises(TypeError_) as exc:
            synth("var x : String!\nx.frobnicate()")
        assert "NoSuchMethod" in exc.value.diag.rule

    def test_type_argument_inference(self):
        # Call sites may omit type arguments; the checker fills them.
        src = LEN_CTX + """
new { lib : Obj(b)[ keep<Y : StrFstLen .. StringLen> : String<Y> -> String<Y> ]!
  keep(s) => s
}.keep(x)
"""
        p = parse_program(src)
        t = sec_synth(p.tvars, p.vars, p.body)
        assert pretty_print(t) == "String<X>"

    def test_ascription_subsumption(self):
        _, t = synth("var a : String!\n(a : String?)")
        assert pretty_print(t) == "String?"

    def test_let_types_body_under_binding(self):
        _, t = synth("var a : Int!\nlet y = a.+(1) in y.*(2)")
        assert pretty_print(t) == "Int!"


class TestIfRule:
    def test_public_condition_keeps_level(self):
        _, t = synth("var b : Bool!\nif b then 1 else 2")
        assert pretty_print(t) == "Int!"

    def test_secret_condition_makes_result_private(self):
        _, t = synth("var b : Bool?\nif b then 1 else 2")
        assert pretty_print(t) == "Int?"

    def test_branch_join_takes_upper(self):
        src = "type StringLen = Obj(a)[ length : Unit! -> Int! ]\nvar b : Bool!\nvar s : String!\nvar t : String<StringLen>\nif b then s else t"
        _, t = synth(src)
        assert pretty_print(t) == "String<Obj(a)[ length : Unit! -> Int! ]>"


class TestSimpleSystem:
    def test_simple_agrees_with_safety_facet_on_corpus(self):
        from gobsec.cli import corpus_dir

        for path in sorted(corpus_dir().glob("*.gobsec")):
            p = parse_program(path.read_text())
            try:
                sec = sec_synth(p.tvars, p.vars, p.body)
            except TypeError_:
                continue
            simple = simple_synth(p.vars, p.body)
            assert type_equiv(simple, sec.safety) or _simple_below(simple, sec.safety), path.name

    def test_security_rejected_but_simply_typed(self):
        src = "type StringLen = Obj(a)[ length : Unit! -> Int! ]\nvar x : String<StringLen>\nx.eq(\"a\")"
        p = parse_program(src)
        assert pretty_print(simple_synth(p.vars, p.body)) == "Bool"
        assert not check(src, "Bool!")

    def test_simply_ill_typed_rejected(self):
        p = parse_program("var x : String!\nx.frobnicate()")
        with pytest.raises(TypeError_):
            simple_synth(p.vars, p.body)

    def test_security_implies_simple_on_generated_terms(self):
        from gobsec.interp import gen_welltyped

        for seed in range(150):
            delta, e, goal = gen_welltyped(seed)
            t = simple_synth({}, e)
            assert _simple_below(t, goal.safety)


def _simple_below(t1, t2) -> bool:
    from gobsec.subtyping import simple_sub_type

    return simple_sub_type(t1, t2)


class TestMinimality:
    def test_synthesized_type_below_every_accepted_annotation(self):
        from gobsec.cli import corpus_dir

        for path in sorted(corpus_dir().glob("*.gobsec")):
            p = parse_program(path.read_text())
            if p.expect is None or p.expect.kind != "secure" or p.expect.at is None:
                continue
            t = sec_synth(p.tvars, p.vars, p.body)
            assert sub_sectype(p.tvars, EMPTY_SIGMA, t, p.expect.at), path.name

    def test_private_results_have_empty_interface_facet(self):
        for body in ("x.first()", "x.eq(\"a\")"):
            src = "type StringLen = Obj(a)[ length : Unit! -> Int! ]\nvar x : String<StringLen>\n" + body
            _, t = synth(src)
            assert is_top(t.decl)

    def test_accepted_invocations_have_wellformed_types(self):
        from gobsec.wellformed import wf_sectype

        for src in (LEN_CTX + "x.length()", PRIM_CTX + "a.eq(b)", PRIM_CTX + "d.concat(a)"):
            p, t = synth(src)
            assert wf_sectype(p.tvars, t)

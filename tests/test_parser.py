"""Surface syntax: parsing, sugar, alias expansion, and round-tripping."""

import random

import pytest

from gobsec.algebra import type_equiv
from gobsec.cli import corpus_dir
from gobsec.parser import (
    ParseError,
    _lex,
    parse_expr,
    parse_program,
    parse_sectype,
    pretty_print,
    print_program,
)
from gobsec.syntax import (
    TOP,
    UNIT,
    Faceted,
    Invoke,
    ObjType,
    Prim,
    SelfVar,
    TypeVar,
    Var,
    alpha_eq,
    alpha_eq_expr,
    canon,
    is_top,
)

from conftest import random_closed_type


class TestParseProgram:
    def test_var_declaration_and_invocation(self):
        p = parse_program(
            "type StringLen = Obj(a)[ length : Unit! -> Int! ]\n"
            "var x : String<StringLen>\n"
            "x.length()"
        )
        assert set(p.vars) == {"x"}
        s = p.vars["x"]
        assert s.safety == Prim("String") and isinstance(s.decl, ObjType)
        assert p.body == Invoke(Var("x"), "length", (), (UNIT,))

    def test_sugar(self):
        assert parse_sectype("String!") == Faceted(Prim("String"), Prim("String"))
        s = parse_sectype("String?")
        assert s.safety == Prim("String") and is_top(s.decl)

    def test_desugaring_is_local(self):
        a = parse_sectype("Obj(a)[ m : String! -> Int? ]!")
        b = parse_sectype("Obj(a)[ m : String<String> -> Int<Top> ]<Obj(a)[ m : String! -> Int? ]>")
        assert alpha_eq(a, b)

    def test_recursive_alias_becomes_self_variable(self):
        p = parse_program(
            "type L = Obj(a)[ next : Unit! -> L! ]\nvar x : L!\nx"
        )
        body = p.vars["x"].safety
        ret = body.sig("next").ret
        assert isinstance(ret.safety, SelfVar) and ret.safety.name == body.self_var

    def test_parameterized_recursive_alias(self):
        p = parse_program(
            "type L<X : String .. Top> = Obj(a)[ h : Unit! -> String<X>, t : Unit! -> L<X>! ]\n"
            "var x : L<Top>!\nx"
        )
        t = p.vars["x"].safety
        assert is_top(t.sig("h").ret.decl)

    def test_alias_arguments_substitute_simultaneously(self):
        # The first argument names the tvar `B`, which the alias's second
        # parameter is also called; `f` must keep `Int<B>`.
        def expand(second: str):
            p = parse_program(
                f"type P<A : Int .. Top, {second} : Int .. Top> = "
                f"Obj(a)[ f : Unit! -> Int<A>, g : Unit! -> Int<{second}> ]\n"
                "tvar B : Int .. Top\nvar x : P<B, Top>!\nx"
            )
            return p.vars["x"].safety

        t = expand("B")
        assert t.sig("f").ret.decl == TypeVar("B")
        assert type_equiv(t, expand("C"))

    def test_alias_argument_is_not_captured_by_the_alias_binder(self):
        # Box's own binder is `a`; expanding Box<a> under an outer `a` must
        # keep String<a> bound by the outer object, as the `b` spelling does.
        def expand(binder: str):
            p = parse_program(
                "type Box<X : Top .. Top> = Obj(a)[ get : Unit! -> String<X> ]\n"
                f"var v : Obj({binder})[ m : Unit! -> Box<{binder}>! ]!\nv"
            )
            return p.vars["v"]

        assert canon(expand("a")) == canon(expand("b"))

    def test_alias_arity_error(self):
        with pytest.raises(ParseError):
            parse_program("type L<X : String .. Top> = Obj(a)[ h : Unit! -> String<X> ]\nvar x : L!\nx")

    def test_nonregular_recursion_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "type L<X : String .. Top> = Obj(a)[ t : Unit! -> L<Top>! ]\nvar x : L<Top>!\nx"
            )

    def test_expectations(self):
        p = parse_program("var x : Int!\nexpect secure at Int!\nexpect type Int!\nx")
        assert p.expect.kind == "secure"
        assert p.expect.at == Faceted(Prim("Int"), Prim("Int"))
        assert p.expect.exact == Faceted(Prim("Int"), Prim("Int"))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("var x : Int!\nx..")
        assert exc.value.line == 2

    def test_zero_arg_call_means_unit(self):
        assert parse_expr("x.length()") == Invoke(Var("x"), "length", (), (UNIT,))

    def test_comments_and_strings(self):
        p = parse_program('// a comment\nvar s : String!\ns.concat("a\\"b\\n")')
        assert p.body.args[0].value == 'a"b\n'

    def test_operator_method_names(self):
        e = parse_expr("1.+(2).*(3)")
        assert e.method == "*" and e.recv.method == "+"

    def test_integer_literals_wrap_to_64_bits(self):
        # More digits than CPython's int-string limit (4300) still parse.
        assert parse_expr("1" + "0" * 4300).value == (pow(10, 4300, 2**64) ^ 2**63) - 2**63
        for digits in ("9" * 5000, "1234567" * 700, "18446744073709551617"):
            wrapped = 0
            for d in digits:
                wrapped = (wrapped * 10 + int(d)) % 2**64
            assert parse_expr(digits).value == (wrapped ^ 2**63) - 2**63

    def test_integer_literals_are_decimal_digits(self):
        assert parse_expr("٣").value == 3  # ARABIC-INDIC DIGIT THREE
        with pytest.raises(ParseError, match="unexpected character '²'"):
            parse_expr("²")
        assert parse_expr("x²") == Var("x²")


class TestLexer:
    """The token stream `(kind, text, pos, line, col)` on edge cases."""

    @pytest.mark.parametrize(
        "src, tokens",
        [
            pytest.param(
                "var x : Int!\r\n\tx\r\n",
                [
                    ("kw", "var", 0, 1, 1),
                    ("id", "x", 4, 1, 5),
                    ("punct", ":", 6, 1, 7),
                    ("id", "Int", 8, 1, 9),
                    ("punct", "!", 11, 1, 12),
                    ("id", "x", 15, 2, 2),
                    ("eof", "", 18, 3, 1),
                ],
                id="crlf-and-tab",
            ),
            pytest.param(
                '"a\\nb\\tc\\"d\\\\e"',
                [("str", 'a\nb\tc"d\\e', 0, 1, 1), ("eof", "", 15, 1, 16)],
                id="string-escapes",
            ),
            pytest.param(
                "<*> < * > <* ..  . ... => -> = > - >",
                [
                    ("punct", "<*>", 0, 1, 1),
                    ("punct", "<", 4, 1, 5),
                    ("punct", "*", 6, 1, 7),
                    ("punct", ">", 8, 1, 9),
                    ("punct", "<", 10, 1, 11),
                    ("punct", "*", 11, 1, 12),
                    ("punct", "..", 13, 1, 14),
                    ("punct", ".", 17, 1, 18),
                    ("punct", "..", 19, 1, 20),
                    ("punct", ".", 21, 1, 22),
                    ("punct", "=>", 23, 1, 24),
                    ("punct", "->", 26, 1, 27),
                    ("punct", "=", 29, 1, 30),
                    ("punct", ">", 31, 1, 32),
                    ("punct", "-", 33, 1, 34),
                    ("punct", ">", 35, 1, 36),
                    ("eof", "", 36, 1, 37),
                ],
                id="longest-punctuation-first",
            ),
            # A comment that ends the file leaves `eof` at the comment's column.
            pytest.param("x // trailing", [("id", "x", 0, 1, 1), ("eof", "", 13, 1, 3)], id="comment-at-eof"),
            pytest.param("x \t ", [("id", "x", 0, 1, 1), ("eof", "", 4, 1, 5)], id="blanks-at-eof"),
            pytest.param(
                "é x_é2 ٣.+(1)",
                [
                    ("id", "é", 0, 1, 1),
                    ("id", "x_é2", 2, 1, 3),
                    ("int", "٣", 7, 1, 8),
                    ("punct", ".", 8, 1, 9),
                    ("punct", "+", 9, 1, 10),
                    ("punct", "(", 10, 1, 11),
                    ("int", "1", 11, 1, 12),
                    ("punct", ")", 12, 1, 13),
                    ("eof", "", 13, 1, 14),
                ],
                id="unicode-identifiers-and-digits",
            ),
        ],
    )
    def test_token_stream(self, src, tokens):
        assert [(t.kind, t.text, t.pos, t.line, t.col) for t in _lex(src)] == tokens

    @pytest.mark.parametrize(
        "src, message",
        [
            ('x\n  "ab\\q"', "2:3: unknown escape \\q"),
            ('x\n\t"abc', "2:2: unterminated string literal"),
            ('"ab\ncd"', "1:1: unterminated string literal"),
            ('x "ab\\', "1:3: unterminated string escape"),
            # A backslash before a line end escapes nothing either, and
            # an invisible character is shown by its `repr`.
            ('x "ab\\\n"', "1:3: unterminated string escape"),
            ('x "ab\\\r\n"', "1:3: unterminated string escape"),
            ('x "ab\\\t"', "1:3: unknown escape \\ before '\\t'"),
        ],
    )
    def test_string_errors_point_at_the_opening_quote(self, src, message):
        with pytest.raises(ParseError) as exc:
            _lex(src)
        assert str(exc.value) == message


class TestPrettyPrint:
    def test_private_string(self):
        assert pretty_print(Faceted(Prim("String"), TOP)) == "String?"

    def test_object_type(self):
        t = parse_sectype("Obj(a)[ length : Unit! -> Int! ]!").safety
        assert pretty_print(t) == "Obj(a)[ length : Unit! -> Int! ]"

    def test_login_roundtrip(self):
        src = (
            "type StringEq = Obj(a)[ eq : String! -> Bool! ]\n"
            "var guess : String!\n"
            "var password : String<StringEq>\n"
            'if password.eq(guess) then "Login Successful" else "Login failed"'
        )
        p1 = parse_program(src)
        p2 = parse_program(print_program(p1))
        assert alpha_eq_expr(p1.body, p2.body)
        assert all(alpha_eq(p1.vars[k], p2.vars[k]) for k in p1.vars)

    def test_corpus_roundtrip(self):
        for path in sorted(corpus_dir().glob("*.gobsec")):
            p1 = parse_program(path.read_text())
            printed = print_program(p1)
            p2 = parse_program(printed)
            assert alpha_eq_expr(p1.body, p2.body), path.name
            assert list(p1.vars) == list(p2.vars), path.name
            for k in p1.vars:
                assert alpha_eq(p1.vars[k], p2.vars[k]), path.name
            for k in p1.tvars:
                assert alpha_eq(p1.tvars[k][0], p2.tvars[k][0]), path.name
                assert alpha_eq(p1.tvars[k][1], p2.tvars[k][1]), path.name

    def test_random_type_roundtrip(self):
        rng = random.Random(13)
        for _ in range(200):
            t = random_closed_type(rng, 2)
            if isinstance(t, SelfVar):
                continue
            again = parse_sectype(pretty_print(Faceted(t, t)))
            assert alpha_eq(again.safety, t)

    def test_roundtrip_is_idempotent(self):
        for path in sorted(corpus_dir().glob("*.gobsec")):
            p1 = parse_program(path.read_text())
            once = print_program(p1)
            twice = print_program(parse_program(once))
            assert once == twice, path.name

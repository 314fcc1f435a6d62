"""Concrete syntax for GObSec programs.

A program is a sequence of declarations followed by one body expression:

    type StringEq = Obj(a)[ eq : String! -> Bool! ]
    type ListStr<X : String .. Top> =
      Obj(a)[ isEmpty : Unit! -> Bool!,
              head    : Unit! -> String<X>,
              tail    : Unit! -> ListStr<X>! ]
    tvar X : String .. Top
    var password : String<StringEq>
    expect secure at String!
    if password.eq("guess") then "yes" else "no"

Sugar: `T!` is the fully public type T<T>, `T?` the fully private T<Top>,
`Top` the empty interface. Type aliases expand at parse time; a recursive
alias reference inside its own body (applied to exactly its own
parameters) becomes the enclosing object type's self variable. Zero
written arguments in a call (and zero parameters in a method definition)
stand for the unit argument. `let x = e in body` is surface sugar typed
directly and lowered to a single-method object application before
evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .syntax import (
    PRIM_KINDS,
    TOP,
    UNIT,
    Ascribe,
    DeclType,
    Expr,
    Faceted,
    GenericSig,
    GobsecError,
    If,
    Invoke,
    Let,
    MethodDef,
    MethodSig,
    ObjType,
    ObjectLit,
    Prim,
    PrimLit,
    PrimSig,
    SelfVar,
    TParam,
    TypeVar,
    Var,
    alpha_eq,
    fresh,
    free_self_vars,
    free_type_vars,
    is_top,
    rename_self_var,
    subst_type_vars,
)


class ParseError(GobsecError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "type", "tvar", "var", "expect", "new", "if", "then", "else", "let", "in",
    "at", "true", "false", "unit", "Obj", "Top", "secure", "insecure", "illtyped",
}

_PUNCT = [
    "<*>", "..", "->", "=>", "(", ")", "[", "]", "{", "}", "<", ">", ",", ":",
    ".", "!", "?", "=", "*", "+", "-",
]


class Token(NamedTuple):
    kind: str  # "id" | "int" | "str" | "kw" | "punct" | "eof"
    text: str
    pos: int
    line: int
    col: int


# A string literal up to its closing quote: one line, four escapes.
_STRING = r'"(?:[^"\\\n]|\\[nt"\\])*'
# Blanks, then one alternative per token class, tried in this order. An
# identifier starts with a letter (`str.isalpha`) or `_` and goes on with
# `\w`, that is `str.isalnum` or `_`; `word` takes a non-ASCII start,
# which `_lex` checks, since `\w` also holds digits such as `²`. An
# integer is a run of decimal digits (`\d`, that is `str.isdecimal`).
# `other` excludes blanks, so the blanks that end a source match nothing.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<id>[A-Za-z_]\w*)|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + r")"
    r"|(?P<nl>\n)|(?P<int>\d+)|(?P<str>" + _STRING + r'")|(?P<comment>//[^\n]*)'
    r"|(?P<word>\w+)|(?P<other>[^ \t\r]))"
)
_STRING_PREFIX = re.compile(_STRING)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_token = partial(tuple.__new__, Token)  # Token(...) without a Python-level call


def _lex(src: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    line, line_start, end = 1, 0, len(src)
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        i, j = m.span(kind)
        if kind == "nl":
            line, line_start = line + 1, j
            continue
        if kind == "comment":
            if j == len(src):
                end = i  # `eof` stays at the column of a comment that ends the source
            continue
        text = src[i:j]
        if kind == "id" or kind == "word" and text[0].isalpha():
            kind = "kw" if text in _KEYWORDS else "id"
        elif kind == "str":
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], text)
        elif kind == "other" and text == '"':
            # What stops the valid prefix (newline, end, bad escape) is the error.
            j = _STRING_PREFIX.match(src, i).end()
            if j < len(src) and src[j] == "\\":
                # A backslash that ends the line or the source escapes
                # nothing; an unknown escape shows its character as it
                # is only when that character is visible.
                c = src[j + 1 : j + 2]
                if c in ("", "\n", "\r"):
                    msg = "unterminated string escape"
                elif c.isprintable() and not c.isspace():
                    msg = f"unknown escape \\{c}"
                else:
                    msg = f"unknown escape \\ before {c!r}"
            else:
                msg = "unterminated string literal"
            raise ParseError(msg, line, i - line_start + 1)
        elif kind == "other" or kind == "word":
            raise ParseError(f"unexpected character {text[0]!r}", line, i - line_start + 1)
        append(_token((kind, text, i, line, i - line_start + 1)))
    append(Token("eof", "", len(src), line, end - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Program representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alias:
    name: str
    params: tuple[TParam, ...]
    body: DeclType  # alias-free; self-recursion closed into a self variable


@dataclass(frozen=True)
class Expectation:
    kind: str | None = None  # "secure" | "insecure" | "illtyped"
    at: Faceted | None = None
    exact: Faceted | None = None


@dataclass
class SourceProgram:
    aliases: dict[str, Alias] = field(default_factory=dict)
    tvars: dict[str, tuple[DeclType, DeclType]] = field(default_factory=dict)
    vars: dict[str, Faceted] = field(default_factory=dict)
    body: Expr | None = None
    expect: Expectation | None = None

    def named_closed_types(self) -> dict[str, DeclType]:
        """Nullary aliases, usable as a substitution candidate pool."""
        out: dict[str, DeclType] = {}
        for name, al in self.aliases.items():
            if not al.params:
                out[name] = al.body
        return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0
        self.aliases: dict[str, Alias] = {}
        self.tvars: dict[str, tuple[DeclType, DeclType]] = {}
        # scope while parsing a type
        self._tvar_scope: list[str] = []
        self._self_scope: list[str] = []
        self._alias_ctx: tuple[str, tuple[str, ...]] | None = None

    # -- token helpers ----------------------------------------------------

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def eat(self, kind: str, text: str | None = None) -> Token:
        t = self.toks[self.i]
        if t.kind != kind or text is not None and t.text != text:
            self.err(f"expected {text or kind!r}, found {t.text or t.kind!r}")
        if kind != "eof":
            self.i += 1
        return t

    def err(self, msg: str):
        t = self.toks[self.i]
        raise ParseError(msg, t.line, t.col)

    # -- program ----------------------------------------------------------

    def program(self) -> SourceProgram:
        prog = SourceProgram()
        expect_kind = None
        expect_at = None
        expect_exact = None
        while True:
            if self.at("kw", "type"):
                self.next()
                if self.at("kw", "type"):
                    self.err("alias name may not be a keyword")
                name = self.eat("id").text
                if name in self.aliases or name in PRIM_KINDS:
                    self.err(f"duplicate type name {name}")
                params = self._alias_params()
                self.eat("punct", "=")
                self._alias_ctx = (name, tuple(p.name for p in params))
                self._tvar_scope = [p.name for p in params]
                body = self.type_()
                self._alias_ctx = None
                self._tvar_scope = []
                marker = TypeVar(f"%alias:{name}")
                if f"%alias:{name}" in _marker_names(body):
                    if not isinstance(body, ObjType):
                        self.err(f"recursive alias {name} must define an object type")
                    binder = fresh(body.self_var)
                    body = rename_self_var(body, binder)
                    # Inside the methods, under the binder: the recursive
                    # uses must be bound by it, which a substitution on
                    # the whole body would avoid by renaming it.
                    loop = {marker.name: SelfVar(binder)}
                    body = ObjType(binder, tuple((m, subst_type_vars(s, loop)) for m, s in body.methods))
                self.aliases[name] = Alias(name, tuple(params), body)
                prog.aliases[name] = self.aliases[name]
            elif self.at("kw", "tvar"):
                self.next()
                name = self.eat("id").text
                if name in self.tvars:
                    self.err(f"duplicate type variable {name}")
                self.eat("punct", ":")
                self._tvar_scope = list(self.tvars)
                lo = self.type_()
                self.eat("punct", "..")
                hi = self.type_()
                self._tvar_scope = []
                self.tvars[name] = (lo, hi)
                prog.tvars[name] = (lo, hi)
            elif self.at("kw", "var"):
                self.next()
                name = self.eat("id").text
                if name in prog.vars:
                    self.err(f"duplicate variable {name}")
                self.eat("punct", ":")
                self._tvar_scope = list(self.tvars)
                s = self.sectype()
                self._tvar_scope = []
                prog.vars[name] = s
            elif self.at("kw", "expect"):
                self.next()
                if self.at("kw", "type"):
                    self.next()
                    self._tvar_scope = list(self.tvars)
                    expect_exact = self.sectype()
                    self._tvar_scope = []
                else:
                    t = self.next()
                    if t.text not in ("secure", "insecure", "illtyped"):
                        self.err("expected secure, insecure, illtyped, or type")
                    expect_kind = t.text
                    if self.at("kw", "at"):
                        self.next()
                        self._tvar_scope = list(self.tvars)
                        expect_at = self.sectype()
                        self._tvar_scope = []
            else:
                break
        self._tvar_scope = list(self.tvars)
        prog.body = self.expr()
        self._tvar_scope = []
        self.eat("eof")
        if expect_kind or expect_at or expect_exact:
            prog.expect = Expectation(expect_kind, expect_at, expect_exact)
        return prog

    def _alias_params(self) -> list[TParam]:
        if not self.at("punct", "<"):
            return []
        self.next()
        params: list[TParam] = []
        while True:
            name = self.eat("id").text
            self.eat("punct", ":")
            self._tvar_scope = [p.name for p in params]
            lo = self.type_()
            self.eat("punct", "..")
            hi = self.type_()
            self._tvar_scope = []
            params.append(TParam(name, lo, hi))
            if self.at("punct", ","):
                self.next()
                continue
            break
        self.eat("punct", ">")
        return params

    # -- types ------------------------------------------------------------

    def type_(self) -> DeclType:
        t = self.toks[self.i]
        if t.kind == "id" and t.text in PRIM_KINDS:
            self.next()
            return Prim(t.text)
        if self.at("kw", "Top"):
            self.next()
            return TOP
        if self.at("kw", "Obj"):
            return self._obj_type()
        if t.kind == "id":
            self.next()
            return self._named_type(t.text)
        self.err(f"expected a type, found {t.text or t.kind!r}")

    def _named_type(self, name: str) -> DeclType:
        # `<...>` is consumed as type arguments only for parameterized
        # aliases; after any other type name it belongs to the enclosing
        # form (a security type's declassification facet).
        targs: list[DeclType] = []
        if self._alias_ctx and name == self._alias_ctx[0]:
            want = self._alias_ctx[1]
            if want and self.at("punct", "<"):
                targs = self._targs()
            got = tuple(a.name if isinstance(a, TypeVar) else None for a in targs)
            if got != want:
                self.err(
                    f"recursive use of {name} must apply exactly its own parameters"
                    + (f" <{', '.join(want)}>" if want else "")
                )
            return TypeVar(f"%alias:{name}")
        if name in self.aliases:
            al = self.aliases[name]
            if al.params and self.at("punct", "<"):
                targs = self._targs()
            if len(targs) != len(al.params):
                self.err(f"alias {name} takes {len(al.params)} type arguments, got {len(targs)}")
            return subst_type_vars(al.body, {p.name: a for p, a in zip(al.params, targs)})
        if name in self._self_scope:
            return SelfVar(name)
        if name in self._tvar_scope:
            return TypeVar(name)
        self.err(f"unknown type name {name}")

    def _targs(self) -> list[DeclType]:
        self.eat("punct", "<")
        out = [self.type_()]
        while self.at("punct", ","):
            self.next()
            out.append(self.type_())
        self.eat("punct", ">")
        return out

    def _obj_type(self) -> ObjType:
        self.eat("kw", "Obj")
        self.eat("punct", "(")
        binder = self.eat("id").text
        self.eat("punct", ")")
        self.eat("punct", "[")
        self._self_scope.append(binder)
        methods: list[tuple[str, MethodSig]] = []
        if not self.at("punct", "]"):
            while True:
                methods.append(self._sig())
                if self.at("punct", ","):
                    self.next()
                    continue
                break
        self._self_scope.pop()
        self.eat("punct", "]")
        names = [m for m, _ in methods]
        if len(names) != len(set(names)):
            self.err(f"duplicate method name in object type")
        return ObjType(binder, tuple(methods))

    def _sig(self) -> tuple[str, MethodSig]:
        name = self._method_name()
        tparams: list[TParam] = []
        if self.at("punct", "<"):
            self.next()
            while True:
                pn = self.eat("id").text
                self.eat("punct", ":")
                # Earlier parameters are in scope for later bounds; a
                # parameter is not in scope for its own bounds.
                lo = self.type_()
                self.eat("punct", "..")
                hi = self.type_()
                tparams.append(TParam(pn, lo, hi))
                self._tvar_scope.append(pn)
                if self.at("punct", ","):
                    self.next()
                    continue
                break
            self.eat("punct", ">")
        self.eat("punct", ":")
        if self._primsig_ahead():
            if tparams:
                self.err("a primitive signature takes no type parameters")
            sig = self._primsig()
            return name, sig
        args: list[Faceted] = []
        if not self.at("punct", "->"):
            args.append(self.sectype())
            while self.at("punct", "*"):
                self.next()
                args.append(self.sectype())
        self.eat("punct", "->")
        ret = self.sectype()
        for tp in tparams:
            if tp.name in self._tvar_scope:
                self._tvar_scope.remove(tp.name)
        return name, GenericSig(tuple(tparams), tuple(args), ret)

    def _method_name(self) -> str:
        t = self.toks[self.i]
        if t.kind == "id":
            return self.next().text
        if t.kind == "punct" and t.text in ("+", "-", "*"):
            return self.next().text
        self.err("expected a method name")

    def _primsig_ahead(self) -> bool:
        t = self.toks[self.i]
        if t.kind != "id" or t.text not in PRIM_KINDS:
            return False
        t = self.toks[self.i + 1]
        return t.kind == "punct" and t.text == "<*>"

    def _primsig(self) -> PrimSig:
        kinds = [self._prim_star()]
        while self.at("punct", "*"):
            self.next()
            kinds.append(self._prim_star())
        self.eat("punct", "->")
        ret = self._prim_star()
        return PrimSig(tuple(kinds), ret)

    def _prim_star(self) -> str:
        t = self.eat("id")
        if t.text not in PRIM_KINDS:
            self.err(f"expected a primitive kind, found {t.text}")
        self.eat("punct", "<*>")
        return t.text

    def sectype(self) -> Faceted:
        t = self.type_()
        if self.at("punct", "!"):
            self.next()
            return Faceted(t, t)
        if self.at("punct", "?"):
            self.next()
            return Faceted(t, TOP)
        if self.at("punct", "<"):
            self.next()
            decl = self.type_()
            self.eat("punct", ">")
            return Faceted(t, decl)
        self.err("a security type needs a facet: `!`, `?`, or `<U>`")

    # -- expressions ------------------------------------------------------

    def expr(self) -> Expr:
        e = self.primary()
        while self.at("punct", "."):
            self.next()
            start = self.toks[self.i].pos
            name = self._method_name()
            targs: list[DeclType] = []
            if self.at("punct", "<"):
                targs = self._targs()
            self.eat("punct", "(")
            args: list[Expr] = []
            if not self.at("punct", ")"):
                args.append(self.expr())
                while self.at("punct", ","):
                    self.next()
                    args.append(self.expr())
            end = self.eat("punct", ")").pos
            if not args:
                args = [UNIT]
            e = Invoke(e, name, tuple(targs), tuple(args), (start, end))
        return e

    def primary(self) -> Expr:
        t = self.toks[self.i]
        if t.kind == "int":
            self.next()
            return PrimLit(_int64(t.text), "Int", (t.pos, t.pos + len(t.text)))
        if t.kind == "str":
            self.next()
            return PrimLit(t.text, "String", (t.pos, t.pos + len(t.text)))
        if self.at("kw", "true"):
            self.next()
            return PrimLit(True, "Bool", (t.pos, t.pos + 4))
        if self.at("kw", "false"):
            self.next()
            return PrimLit(False, "Bool", (t.pos, t.pos + 5))
        if self.at("kw", "unit"):
            self.next()
            return PrimLit(None, "Unit", (t.pos, t.pos + 4))
        if t.kind == "id":
            self.next()
            return Var(t.text, (t.pos, t.pos + len(t.text)))
        if self.at("kw", "new"):
            return self._object()
        if self.at("kw", "if"):
            self.next()
            cond = self.expr()
            self.eat("kw", "then")
            thn = self.expr()
            self.eat("kw", "else")
            els = self.expr()
            return If(cond, thn, els, (t.pos, t.pos))
        if self.at("kw", "let"):
            self.next()
            name = self.eat("id").text
            self.eat("punct", "=")
            bound = self.expr()
            self.eat("kw", "in")
            body = self.expr()
            return Let(name, bound, body, (t.pos, t.pos))
        if self.at("punct", "("):
            self.next()
            inner = self.expr()
            if self.at("punct", ":"):
                self.next()
                s = self.sectype()
                end = self.eat("punct", ")").pos
                return Ascribe(inner, s, (t.pos, end))
            self.eat("punct", ")")
            return inner
        self.err(f"expected an expression, found {t.text or t.kind!r}")

    def _object(self) -> ObjectLit:
        start = self.eat("kw", "new").pos
        self.eat("punct", "{")
        self_name = self.eat("id").text
        self.eat("punct", ":")
        sectype = self.sectype()
        methods: list[MethodDef] = []
        while not self.at("punct", "}"):
            name = self._method_name()
            self.eat("punct", "(")
            params: list[str] = []
            if not self.at("punct", ")"):
                params.append(self.eat("id").text)
                while self.at("punct", ","):
                    self.next()
                    params.append(self.eat("id").text)
            self.eat("punct", ")")
            self.eat("punct", "=>")
            # The signature's type parameters scope over the method body.
            scoped = self._sig_tparams(sectype, name)
            self._tvar_scope.extend(scoped)
            body = self.expr()
            for nm in scoped:
                self._tvar_scope.remove(nm)
            if not params:
                params = [fresh("u")]
            methods.append(MethodDef(name, tuple(params), body))
        end = self.eat("punct", "}").pos
        return ObjectLit(self_name, sectype, tuple(methods), (start, end))

    @staticmethod
    def _sig_tparams(sectype: Faceted, method: str) -> list[str]:
        safety = sectype.safety
        if isinstance(safety, ObjType):
            sig = safety.sig(method)
            if isinstance(sig, GenericSig):
                return [tp.name for tp in sig.tparams]
        return []


def _marker_names(t) -> frozenset[str]:
    return frozenset(n for n in free_type_vars(t) if n.startswith("%alias:"))


def _int64(digits: str) -> int:
    """A decimal literal wrapped to a signed 64-bit integer. It is read in
    chunks of 640 digits, the least limit `sys.set_int_max_str_digits`
    allows, so `int` takes a literal of any length."""
    v = 0
    for k in range(0, len(digits), 640):
        chunk = digits[k : k + 640]
        v = (v * pow(10, len(chunk), 1 << 64) + int(chunk)) & ((1 << 64) - 1)
    return v - (1 << 64) if v >= (1 << 63) else v


def parse_program(text: str) -> SourceProgram:
    """Parse a full program; raises ParseError with line/column."""
    prog = _Parser(text).program()
    for name, (lo, hi) in prog.tvars.items():
        for side, b in (("lower", lo), ("upper", hi)):
            if free_self_vars(b):
                raise ParseError(f"{side} bound of {name} is not closed", 0, 0)
    return prog


def parse_sectype(text: str, aliases: dict[str, Alias] | None = None, tvars=None) -> Faceted:
    """Parse one security type (used for `--observe` and tests)."""
    p = _Parser(text)
    if aliases:
        p.aliases = dict(aliases)
    p._tvar_scope = list(tvars or [])
    s = p.sectype()
    p.eat("eof")
    return s


def parse_expr(text: str, aliases: dict[str, Alias] | None = None, tvars=None) -> Expr:
    """Parse one expression (used for `--input` values and tests)."""
    p = _Parser(text)
    if aliases:
        p.aliases = dict(aliases)
    p._tvar_scope = list(tvars or [])
    e = p.expr()
    p.eat("eof")
    return e


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_NICE_SELF = "abcdefghijklmnopqrstuvwxyz"


def pretty_print(node) -> str:
    """Render a term, type, signature, or security type; inverse of the
    parser up to alpha-renaming and whitespace."""
    if isinstance(node, (Prim, SelfVar, TypeVar, ObjType)):
        return _pp_type(node, {})
    if isinstance(node, Faceted):
        return _pp_sectype(node, {})
    if isinstance(node, (GenericSig, PrimSig)):
        return _pp_sig(node, {})
    return _pp_expr(node, {})


def _rename(name: str, env: dict[str, str], taken: set[str]) -> str:
    if "%" not in name:
        return name
    for c in _NICE_SELF:
        if c not in taken and c not in env.values():
            return c
    k = 0
    while f"s{k}" in taken:
        k += 1
    return f"s{k}"


def _pp_type(t, env: dict[str, str]) -> str:
    if isinstance(t, Prim):
        return t.kind
    if isinstance(t, SelfVar):
        return env.get(t.name, t.name)
    if isinstance(t, TypeVar):
        return env.get(t.name, t.name)
    if isinstance(t, ObjType):
        if not t.methods:
            return "Top"
        binder = _rename(t.self_var, env, set(env.values()))
        inner = dict(env)
        inner[t.self_var] = binder
        sigs = ", ".join(_pp_named_sig(m, s, inner) for m, s in t.methods)
        return f"Obj({binder})[ {sigs} ]"
    raise GobsecError(f"cannot print {type(t).__name__}")


def _pp_tparams(tparams: tuple[TParam, ...], env: dict[str, str]) -> tuple[str, dict[str, str]]:
    """`<X : L .. U, ...>` and the environment the parameters scope over."""
    inner = dict(env)
    ps = []
    for tp in tparams:
        nm = _rename(tp.name, inner, set(inner.values()))
        inner[tp.name] = nm
        ps.append(f"{nm} : {_pp_type(tp.lower, inner)} .. {_pp_type(tp.upper, inner)}")
    return f"<{', '.join(ps)}>", inner


def _pp_named_sig(name: str, s, env: dict[str, str]) -> str:
    if isinstance(s, GenericSig) and s.tparams:
        ps, inner = _pp_tparams(s.tparams, env)
        return f"{name}{ps} : {_pp_sig(GenericSig((), s.args, s.ret), inner)}"
    return f"{name} : {_pp_sig(s, env)}"


def _pp_sig(s, env: dict[str, str]) -> str:
    if isinstance(s, PrimSig):
        args = " * ".join(f"{k}<*>" for k in s.arg_kinds)
        return f"{args} -> {s.ret_kind}<*>"
    prefix = ""
    if s.tparams:
        # Standalone rendering only; in records the parameters attach to
        # the method name (see _pp_named_sig).
        prefix, env = _pp_tparams(s.tparams, env)
        prefix += " "
    args = " * ".join(_pp_sectype(a, env) for a in s.args)
    ret = _pp_sectype(s.ret, env)
    body = f"{args} -> {ret}" if args else f"-> {ret}"
    return prefix + body


def _pp_sectype(s: Faceted, env: dict[str, str]) -> str:
    safety = _pp_type(s.safety, env)
    if is_top(s.decl):
        return f"{safety}?"
    if alpha_eq(s.safety, s.decl):
        return f"{safety}!"
    return f"{safety}<{_pp_type(s.decl, env)}>"


def _pp_lit(e: PrimLit) -> str:
    if e.kind == "String":
        body = str(e.value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
        return f'"{body}"'
    if e.kind == "Bool":
        return "true" if e.value else "false"
    if e.kind == "Unit":
        return "unit"
    return str(e.value)


def _pp_expr(e, env: dict[str, str]) -> str:
    if isinstance(e, Var):
        return env.get(e.name, e.name)
    if isinstance(e, PrimLit):
        return _pp_lit(e)
    if isinstance(e, Invoke):
        recv = _pp_expr(e.recv, env)
        if isinstance(e.recv, (If, Let)):
            recv = f"({recv})"
        targs = ""
        if e.targs:
            targs = "<" + ", ".join(_pp_type(t, env) for t in e.targs) + ">"
        args = e.args
        if len(args) == 1 and args[0] == UNIT:
            inner = ""
        else:
            inner = ", ".join(_pp_expr(a, env) for a in args)
        return f"{recv}.{e.method}{targs}({inner})"
    if isinstance(e, ObjectLit):
        from .syntax import free_term_vars

        inner = dict(env)
        name = e.self_name
        if "%" in name:
            name = _rename(name, inner, set(inner.values()))
        inner[e.self_name] = name
        parts = [f"new {{ {name} : {_pp_sectype(e.sectype, inner)}"]
        for m in e.methods:
            menv = dict(inner)
            used = free_term_vars(m.body)
            params = []
            for i, p in enumerate(m.params):
                if "%" in p and p not in used:
                    continue  # implicit unit parameter
                pn = f"p{i}" if "%" in p else p
                params.append(pn)
                menv[p] = pn
            parts.append(f"  {m.name}({', '.join(params)}) => {_pp_expr(m.body, menv)}")
        return "\n".join(parts) + " }"
    if isinstance(e, Ascribe):
        return f"({_pp_expr(e.expr, env)} : {_pp_sectype(e.at, env)})"
    if isinstance(e, If):
        return f"if {_pp_expr(e.cond, env)} then {_pp_expr(e.then, env)} else {_pp_expr(e.els, env)}"
    if isinstance(e, Let):
        return f"let {e.name} = {_pp_expr(e.bound, env)} in {_pp_expr(e.body, env)}"
    raise GobsecError(f"cannot print {type(e).__name__}")


def print_program(prog: SourceProgram) -> str:
    """Render a whole program (declarations and body)."""
    lines: list[str] = []
    for name, al in prog.aliases.items():
        ps = ""
        if al.params:
            ps = "<" + ", ".join(f"{p.name} : {_pp_type(p.lower, {})} .. {_pp_type(p.upper, {})}" for p in al.params) + ">"
        lines.append(f"type {name}{ps} = {_pp_type(al.body, {})}")
    for name, (lo, hi) in prog.tvars.items():
        lines.append(f"tvar {name} : {_pp_type(lo, {})} .. {_pp_type(hi, {})}")
    for name, s in prog.vars.items():
        lines.append(f"var {name} : {_pp_sectype(s, {})}")
    if prog.expect:
        if prog.expect.kind:
            at = f" at {_pp_sectype(prog.expect.at, {})}" if prog.expect.at else ""
            lines.append(f"expect {prog.expect.kind}{at}")
        if prog.expect.exact:
            lines.append(f"expect type {_pp_sectype(prog.expect.exact, {})}")
    lines.append(_pp_expr(prog.body, {}))
    return "\n".join(lines) + "\n"

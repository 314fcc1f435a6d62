"""Shared fixtures: the standard policy types, a random type generator and
related-pair draws."""

from __future__ import annotations

import random

import pytest

from gobsec.prni import _Stage
from gobsec.syntax import (
    TOP,
    Faceted,
    GenericSig,
    ObjType,
    Prim,
    PrimSig,
    SelfVar,
    TParam,
    public,
)

INT, STRING, BOOL, UNIT_T = Prim("Int"), Prim("String"), Prim("Bool"), Prim("Unit")


def related_pair(s: Faceted, k: int, h: int) -> tuple:
    """Both machine values of a pair related at `s` for `k` steps, drawn at
    the path `h` from a fresh template (`prni._Template`)."""
    template = _Stage({}).template(s, k)
    leaves1, leaves2 = template.draw(h)
    return template.value(leaves1), template.value(leaves2)


def gsig(args, ret, tparams=()) -> GenericSig:
    return GenericSig(tuple(tparams), tuple(args), ret)


STRING_LEN = ObjType("a", (("length", gsig([public(UNIT_T)], public(INT))),))
STRING_FST = ObjType("a", (("first", gsig([public(UNIT_T)], public(STRING))),))
STR_FST_LEN = ObjType(
    "a",
    (
        ("first", gsig([public(UNIT_T)], public(STRING))),
        ("length", gsig([public(UNIT_T)], public(INT))),
    ),
)
STRING_EQ = ObjType("a", (("eq", gsig([public(STRING)], public(BOOL))),))
STRING_EQ_BAD = ObjType("a", (("eq", gsig([Faceted(STRING, TOP)], public(BOOL))),))
STRING_EQ_POLY = ObjType("a", (("eq", PrimSig(("String",), "Bool")),))
INT_EQ = ObjType("a", (("eq", gsig([public(INT)], public(BOOL))),))
STRING_HASH_EQ = ObjType("a", (("hash", gsig([public(UNIT_T)], Faceted(INT, INT_EQ))),))


@pytest.fixture
def policies():
    return {
        "StringLen": STRING_LEN,
        "StringFst": STRING_FST,
        "StrFstLen": STR_FST_LEN,
        "StringEq": STRING_EQ,
        "StringEqBad": STRING_EQ_BAD,
        "StringEqPoly": STRING_EQ_POLY,
        "IntEq": INT_EQ,
        "StringHashEq": STRING_HASH_EQ,
    }


# ---------------------------------------------------------------------------
# The depth-2 universe
# ---------------------------------------------------------------------------


def depth2_universe():
    """Exhaustive closed alias-free types of nesting depth <= 2 over the
    method alphabet {m, n} and primitive alphabet {Int, String}: the
    primitives, the empty interface, and every object type whose
    signatures draw argument/return from {Int!, s!, Top!} (s the self
    variable) plus the two primitive signatures."""
    alpha = SelfVar("s")
    sps = [public(INT), Faceted(alpha, alpha), public(TOP)]
    sigs = [GenericSig((), (a,), r) for a in sps for r in sps]
    sigs += [PrimSig(("Int",), "Int"), PrimSig(("String",), "Int")]
    universe = [INT, STRING, TOP]
    for s1 in sigs:
        universe.append(ObjType("s", (("m", s1),)))
        universe.append(ObjType("s", (("n", s1),)))
    for s1 in sigs:
        for s2 in sigs:
            universe.append(ObjType("s", (("m", s1), ("n", s2))))
    return universe


# ---------------------------------------------------------------------------
# Random closed types
# ---------------------------------------------------------------------------

_METHODS = ("m", "n", "p")


def random_closed_type(rng: random.Random, depth: int = 2, self_vars: tuple[str, ...] = ()):
    """A random closed type; self variables of enclosing objects may occur
    free inside (bound overall)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if self_vars and rng.random() < 0.4:
            return SelfVar(rng.choice(self_vars))
        return rng.choice([INT, STRING, BOOL, TOP])
    binder = f"s{len(self_vars)}"
    inner = self_vars + (binder,)
    n_methods = rng.randint(1, 2)
    names = rng.sample(_METHODS, n_methods)
    methods = []
    for name in sorted(names):
        if rng.random() < 0.25:
            kinds = ["Int", "String", "Bool", "Unit"]
            methods.append((name, PrimSig((rng.choice(kinds),), rng.choice(kinds))))
            continue
        tparams = ()
        if rng.random() < 0.3:
            lo = random_closed_type(rng, depth - 1, inner)
            tparams = (TParam("X", lo, TOP),)
        args = (random_sectype(rng, depth - 1, inner),)
        ret = random_sectype(rng, depth - 1, inner)
        methods.append((name, GenericSig(tparams, args, ret)))
    return ObjType(binder, tuple(methods))


def random_sectype(rng: random.Random, depth: int, self_vars: tuple[str, ...]) -> Faceted:
    t = random_closed_type(rng, depth, self_vars)
    roll = rng.random()
    if roll < 0.5:
        return Faceted(t, t)
    if roll < 0.8:
        return Faceted(t, TOP)
    return Faceted(t, random_closed_type(rng, depth - 1, self_vars))

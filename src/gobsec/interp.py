"""Evaluation: the small-step semantics, the environment machine that
runs programs, primitive dispatch, and the safety fuzz generator.

`step` is the specification. Reduction is leftmost-innermost: the
receiver reduces first, then the arguments left to right, then the call
contracts. Object invocation substitutes the receiver for the self name
and the argument values for the parameters.

`run_machine` is an environment machine derived from `step` in the manner
of Ager, Biernacki, Danvy and Midtgaard ("A functional correspondence
between evaluators and abstract machines", PPDP 2003), close to
Felleisen and Friedman's CEK machine: an object value is a closure,
invocation extends the closure's environment instead of copying the
method body, and the evaluation contexts `step` re-finds from the root
on every step are frames on an explicit stack. It runs on a loop, so
program depth is bounded by memory and fuel, not by Python's recursion
limit. It contracts exactly what `step` contracts, except that a call
that contracts to itself at once times out at once (see `run_machine`),
and the tests hold it to iterating `step`.

`run_machine` starts from an environment (`bind` builds one from named
values) and returns a machine value as it is. `call` enters the same
loop one state later, right at a call's contraction, with the receiver
and the arguments already values: a caller that probes a result, as the
PRNI harness does, calls a method of its closure directly, with no call
term to run and nothing to look up. `evaluate` is `run_machine` followed
by reading a closure back to the term `step` would have built
(`readback`).

Primitive invocation applies the dispatch table below, which fixes the
otherwise-abstract primitive semantics:

* Int is 64-bit two's-complement with wrapping +, -, *;
* String.length counts unicode scalars, String.first is the first scalar
  (the empty string on ""), and String.hash is 64-bit FNV-1a over UTF-8,
  reinterpreted as a signed Int;
* Bool and Unit carry the obvious operations.

Type annotations and type arguments never influence a step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .syntax import (
    TOP,
    UNIT,
    Ascribe,
    Expr,
    Faceted,
    GenericSig,
    GobsecError,
    If,
    Invoke,
    Let,
    MethodDef,
    ObjType,
    ObjectLit,
    Prim,
    PrimLit,
    TParam,
    TypeVar,
    Var,
    free_term_vars,
    fresh,
    is_value,
    public,
    subst_term,
)


class StuckError(GobsecError):
    def __init__(self, redex: Expr, reason: str):
        super().__init__(reason)
        self.redex = redex
        self.reason = reason


@dataclass(frozen=True)
class Value:
    expr: Expr  # from `run_machine`, a machine value: a `PrimLit` or a closure
    steps: int = 0


@dataclass(frozen=True)
class Timeout:
    steps: int


@dataclass(frozen=True)
class Stuck:
    redex: Expr
    reason: str
    steps: int = 0


Outcome = Value | Timeout | Stuck

DEFAULT_FUEL = 100_000

# ---------------------------------------------------------------------------
# Primitive dispatch
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def _wrap(v: int) -> int:
    v &= _MASK
    return v - (1 << 64) if v >= (1 << 63) else v


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK
    return h


def _str_hash(s: str) -> int:
    return _wrap(fnv1a64(s.encode("utf-8")))


#: (receiver kind, method) -> (argument kinds, result kind, implementation)
THETA: dict[tuple[str, str], tuple[tuple[str, ...], str, object]] = {
    ("Int", "+"): (("Int",), "Int", lambda r, a: _wrap(r + a)),
    ("Int", "-"): (("Int",), "Int", lambda r, a: _wrap(r - a)),
    ("Int", "*"): (("Int",), "Int", lambda r, a: _wrap(r * a)),
    ("Int", "eq"): (("Int",), "Bool", lambda r, a: r == a),
    ("Int", "lt"): (("Int",), "Bool", lambda r, a: r < a),
    ("Int", "gt"): (("Int",), "Bool", lambda r, a: r > a),
    ("String", "concat"): (("String",), "String", lambda r, a: r + a),
    ("String", "first"): (("Unit",), "String", lambda r, a: r[0] if r else ""),
    ("String", "length"): (("Unit",), "Int", lambda r, a: len(r)),
    ("String", "eq"): (("String",), "Bool", lambda r, a: r == a),
    ("String", "hash"): (("Unit",), "Int", lambda r, a: _str_hash(r)),
    ("Bool", "and"): (("Bool",), "Bool", lambda r, a: r and a),
    ("Bool", "or"): (("Bool",), "Bool", lambda r, a: r or a),
    ("Bool", "not"): (("Unit",), "Bool", lambda r, a: not r),
    ("Bool", "eq"): (("Bool",), "Bool", lambda r, a: r == a),
    ("Unit", "eq"): (("Unit",), "Bool", lambda r, a: True),
}


def theta(method: str, recv: PrimLit, args: tuple[PrimLit, ...]) -> PrimLit:
    """Apply a primitive operation; partial outside its table."""
    entry = THETA.get((recv.kind, method))
    if entry is None:
        raise StuckError(recv, f"primitive {recv.kind} has no method {method}")
    kinds, ret_kind, fn = entry
    if len(args) != len(kinds):
        raise StuckError(recv, f"{recv.kind}.{method} expects {len(kinds)} arguments")
    for a, k in zip(args, kinds):
        if a.kind != k:
            raise StuckError(a, f"{recv.kind}.{method} expects a {k} argument")
    vals = [a.value for a in args]
    return PrimLit(fn(recv.value, *vals), ret_kind)


# ---------------------------------------------------------------------------
# Surface lowering
# ---------------------------------------------------------------------------

def _let_object_type() -> Faceted:
    # Runtime-irrelevant ascription for the object a `let` lowers to.
    t = ObjType("l", (("do", GenericSig((), (public(Prim("Unit")),), public(Prim("Unit")))),))
    return public(t)


def erase_surface(e: Expr) -> Expr:
    """Strip checker-only forms: drop ascriptions and lower `let` to an
    immediately-invoked single-method object. `if` stays; it evaluates
    natively."""
    if isinstance(e, (Var, PrimLit)):
        return e
    if isinstance(e, Ascribe):
        return erase_surface(e.expr)
    if isinstance(e, Let):
        z = fresh("l")
        return Invoke(
            ObjectLit(z, _let_object_type(), (MethodDef("do", (e.name,), erase_surface(e.body)),)),
            "do",
            (),
            (erase_surface(e.bound),),
        )
    if isinstance(e, ObjectLit):
        return ObjectLit(
            e.self_name,
            e.sectype,
            tuple(MethodDef(m.name, m.params, erase_surface(m.body)) for m in e.methods),
            e.span,
        )
    if isinstance(e, Invoke):
        return Invoke(erase_surface(e.recv), e.method, e.targs, tuple(erase_surface(a) for a in e.args), e.span)
    if isinstance(e, If):
        return If(erase_surface(e.cond), erase_surface(e.then), erase_surface(e.els), e.span)
    raise GobsecError(f"cannot erase {type(e).__name__}")


def erase_types(e: Expr) -> Expr:
    """Replace every type annotation and type-argument list by a fixed
    dummy; used to confirm types never influence evaluation."""
    dummy = public(TOP)
    if isinstance(e, (Var, PrimLit)):
        return e
    if isinstance(e, Ascribe):
        return erase_types(e.expr)
    if isinstance(e, Let):
        return Let(e.name, erase_types(e.bound), erase_types(e.body), e.span)
    if isinstance(e, ObjectLit):
        return ObjectLit(e.self_name, dummy, tuple(MethodDef(m.name, m.params, erase_types(m.body)) for m in e.methods), e.span)
    if isinstance(e, Invoke):
        return Invoke(erase_types(e.recv), e.method, (), tuple(erase_types(a) for a in e.args), e.span)
    if isinstance(e, If):
        return If(erase_types(e.cond), erase_types(e.then), erase_types(e.els), e.span)
    raise GobsecError(f"cannot erase {type(e).__name__}")


# ---------------------------------------------------------------------------
# Small-step reduction
# ---------------------------------------------------------------------------


def step(e: Expr) -> Expr | None:
    """One reduction step; None when `e` is a value; StuckError when no
    rule applies."""
    if is_value(e):
        return None
    return _step(e)


def _step(e: Expr) -> Expr:
    if isinstance(e, Var):
        raise StuckError(e, f"free variable {e.name}")
    if isinstance(e, (Ascribe, Let)):
        # Surface forms are erased before evaluation; erase on the fly so a
        # caller stepping raw surface terms still makes progress.
        return erase_surface(e)
    if isinstance(e, Invoke):
        if not is_value(e.recv):
            return Invoke(_step(e.recv), e.method, e.targs, e.args, e.span)
        for i, a in enumerate(e.args):
            if not is_value(a):
                args = list(e.args)
                args[i] = _step(a)
                return Invoke(e.recv, e.method, e.targs, tuple(args), e.span)
        return _contract(e)
    if isinstance(e, If):
        if not is_value(e.cond):
            return If(_step(e.cond), e.then, e.els, e.span)
        c = e.cond
        if isinstance(c, PrimLit) and c.kind == "Bool":
            return e.then if c.value else e.els
        raise StuckError(c, "condition did not evaluate to a Bool")
    raise StuckError(e, f"no rule for {type(e).__name__}")


def _contract(e: Invoke) -> Expr:
    recv = e.recv
    if isinstance(recv, ObjectLit):
        impl = recv.impl(e.method)
        if impl is None:
            raise StuckError(e, f"object has no method {e.method}")
        if len(impl.params) != len(e.args):
            raise StuckError(e, f"method {e.method} expects {len(impl.params)} arguments, got {len(e.args)}")
        binds = {recv.self_name: recv}
        for p, a in zip(impl.params, e.args):
            binds[p] = a
        return subst_term(impl.body, binds)
    if isinstance(recv, PrimLit):
        args = []
        for a in e.args:
            if not isinstance(a, PrimLit):
                raise StuckError(a, f"primitive {recv.kind}.{e.method} applied to a non-primitive argument")
            args.append(a)
        return theta(e.method, recv, tuple(args))
    raise StuckError(e, "receiver is not a value")


# ---------------------------------------------------------------------------
# Environment machine
# ---------------------------------------------------------------------------

# A machine value is a `PrimLit` or a closure, the tuple `(ObjectLit, env)`
# of an object literal and the environment it was built in. An environment
# is None or a link `(name, value, parent)`. Continuation frames are tuples
# `(tag, node, env, ...)`, except that the frame for a call with several
# arguments is a list `[_ARG, node, env, receiver, values]` whose values
# grow one argument at a time.
_RECV, _ARG1, _ARG, _IF, _LET = range(5)


def _lookup(env, name: str):
    while env is not None:
        if env[0] == name:
            return env[1]
        env = env[2]
    return None


def _repeats(call: Invoke, env, recv, vals) -> bool:
    """Whether `call`, the body of a method whose `recalls` flag is set,
    makes in `env` the very call just contracted: on the closure `recv`
    itself and, argument by argument, on the same closure as in `vals` or a
    literal of equal kind, Python type and value."""
    if _lookup(env, call.recv.name) is not recv:
        return False
    for a, v in zip(call.args, vals):
        if type(a) is Var:
            a = _lookup(env, a.name)
        if a is not v and not (type(a) is PrimLit and a == v and type(a.value) is type(v.value)):
            return False
    return True


def _readback(v, memo: dict) -> Expr:
    """The term the substitution semantics builds for a machine value: the
    closure's literal, erased, with its free variables replaced by the
    read-back values they are bound to. In a closed program those values
    are closed, so `subst_term` renames nothing; a `let` in a method body
    reads back lowered, under a fresh self name."""
    if type(v) is not tuple:
        return v
    got = memo.get(id(v))
    if got is None:
        obj = erase_surface(v[0])
        binds = {}
        for name in free_term_vars(obj):
            bound = _lookup(v[1], name)
            if bound is not None:
                binds[name] = _readback(bound, memo)
        got = memo[id(v)] = subst_term(obj, binds)
    return got


def _readback_redex(r) -> Expr:
    memo: dict = {}
    if type(r) is Invoke:
        return Invoke(_readback(r.recv, memo), r.method, r.targs, tuple(_readback(a, memo) for a in r.args), r.span)
    return _readback(r, memo)


def readback(v) -> Expr:
    """The term of the machine value `v` (see `_readback`)."""
    return _readback(v, {})


def bind(values: dict):
    """The environment that binds each name to its value, a machine value
    or a closed value term; a closed object literal becomes the closure
    `(literal, None)`."""
    env = None
    for name, v in values.items():
        env = (name, (v, None) if type(v) is ObjectLit else v, env)
    return env


def evaluate(e: Expr, fuel: int = DEFAULT_FUEL, env=None) -> Outcome:
    """`run_machine`, with a value read back to its term: the outcome of
    iterating `step` on `erase_surface(e)` with `env`'s values substituted
    for its free variables."""
    out = run_machine(e, env, fuel)
    if type(out) is Value and type(out.expr) is tuple:
        return Value(readback(out.expr), out.steps)
    return out


def run_machine(e: Expr, env, fuel: int) -> Outcome:
    """Run `e` in the environment `env` (see `bind`) on the environment
    machine to a value, a stuck state or `fuel` contractions.

    The outcome class, the step count and the stuck redex are those of
    iterating `step` on `erase_surface(e)` with `env`'s values substituted
    in, and `Value.expr` is the machine value whose read-back is the value
    `step` reaches. One step is a method or primitive call, an `if`
    choosing its branch, or a `let` binding its value (as its lowering
    does); looking up a variable, building a closure and ascriptions cost
    none. Fuel is checked before each step, so a program that would stick
    with no fuel left is a `Timeout`. Closures are read back to terms only
    for `Stuck.redex`.

    A call that contracts to itself at once is timed out at once. When the
    body of the method just called makes the same call again, on a
    receiver variable bound to the very same closure and on arguments that
    are the same closures or equal literals, as `loop(x) => z.loop(x)`
    does, the next contraction meets the same machine state over the same
    stack, one step later. Iterating `step` then repeats that call until
    the fuel runs out, so the outcome is `Timeout(fuel)`, and it is
    returned without running the loop. A loop whose state recurs only
    after two or more steps, as through two methods that call each other,
    still runs until its fuel is spent."""
    return _run(e, env, [], fuel)


def call(node: Invoke, recv, vals, fuel: int) -> Outcome:
    """Contract the call `node` on the receiver `recv` and the argument
    values `vals`, one per argument of `node`, then run on.

    The outcome is exactly that of `run_machine(node, env, fuel)` where
    `env` binds the variables `node` calls on and with to `recv` and
    `vals`: looking them up costs no step, so the machine starts at the
    state just before that contraction, over an empty stack. `node` gives
    only the method, the arity and a stuck redex's type arguments. The
    values are machine values, but a closed object literal as the
    receiver is taken as its closure `(literal, None)`, as `bind` takes
    it."""
    # The state pops the frame of the call's last operand, and that
    # operand's value is in control.
    if type(recv) is ObjectLit:
        recv = (recv, None)
    if len(vals) == 1:
        return _run(vals[0], None, [(_ARG1, node, None, recv)], fuel)
    if vals:
        return _run(vals[-1], None, [[_ARG, node, None, recv, list(vals[:-1])]], fuel)
    return _run(recv, None, [(_RECV, node, None)], fuel)


def _run(c, env, stack: list, fuel: int) -> Outcome:
    """The machine from the control `c`, a term or a machine value, in
    `env` over `stack` (see `run_machine`)."""
    steps = 0
    push, pop = stack.append, stack.pop
    try:
        while True:
            # Descend into `c`, pushing a frame per context, to a value `v`.
            while True:
                t = type(c)
                if t is Invoke:
                    push((_RECV, c, env))
                    c = c.recv
                elif t is Var:
                    name, link = c.name, env
                    while link is not None:
                        if link[0] == name:
                            v = link[1]
                            break
                        link = link[2]
                    else:
                        raise StuckError(c, f"free variable {name}")
                    break
                elif t is PrimLit:
                    v = c
                    break
                elif t is ObjectLit:
                    v = (c, env)
                    break
                elif t is If:
                    push((_IF, c, env))
                    c = c.cond
                elif t is Let:
                    push((_LET, c, env))
                    c = c.bound
                elif t is Ascribe:
                    c = c.expr
                elif t is tuple:
                    v = c  # a closure `call` starts from
                    break
                else:
                    raise GobsecError(f"cannot evaluate {t.__name__}")
            # Return `v` to the frames until one has an expression to run.
            while stack:
                fr = pop()
                tag = fr[0]
                if tag is _ARG1:
                    node, recv, vals = fr[1], fr[3], (v,)
                elif tag is _ARG:
                    vals = fr[4]
                    vals.append(v)
                    node = fr[1]
                    if len(vals) < len(node.args):
                        push(fr)
                        env = fr[2]
                        c = node.args[len(vals)]
                        break
                    recv = fr[3]
                elif tag is _RECV:
                    node = fr[1]
                    args = node.args
                    if args:
                        env = fr[2]
                        push((_ARG1, node, env, v) if len(args) == 1 else [_ARG, node, env, v, []])
                        c = args[0]
                        break
                    recv, vals = v, ()
                elif tag is _IF:
                    if steps >= fuel:
                        return Timeout(steps)
                    if type(v) is not PrimLit or v.kind != "Bool":
                        raise StuckError(v, "condition did not evaluate to a Bool")
                    steps += 1
                    node = fr[1]
                    c = node.then if v.value else node.els
                    env = fr[2]
                    break
                else:
                    if steps >= fuel:
                        return Timeout(steps)
                    steps += 1
                    node = fr[1]
                    c = node.body
                    env = (node.name, v, fr[2])
                    break
                # Contract `node` on receiver `recv` and argument values `vals`.
                if steps >= fuel:
                    return Timeout(steps)
                if type(recv) is tuple:
                    obj = recv[0]
                    method = node.method
                    for impl in obj.methods:
                        if impl.name == method:
                            break
                    else:
                        raise StuckError(Invoke(recv, method, node.targs, tuple(vals), node.span), f"object has no method {method}")
                    params = impl.params
                    if len(params) != len(vals):
                        raise StuckError(
                            Invoke(recv, method, node.targs, tuple(vals), node.span),
                            f"method {method} expects {len(params)} arguments, got {len(vals)}",
                        )
                    env = (obj.self_name, recv, recv[1])
                    if len(vals) == 1:
                        env = (params[0], vals[0], env)
                    else:
                        for p, a in zip(params, vals):
                            env = (p, a, env)
                    c = impl.body
                    steps += 1
                    if impl.recalls and _repeats(c, env, recv, vals):
                        return Timeout(fuel)
                    break
                for a in vals:
                    if type(a) is not PrimLit:
                        raise StuckError(a, f"primitive {recv.kind}.{node.method} applied to a non-primitive argument")
                v = theta(node.method, recv, tuple(vals))
                steps += 1
            else:
                return Value(v, steps)
    except StuckError as ex:
        if steps >= fuel:
            return Timeout(steps)
        return Stuck(_readback_redex(ex.redex), ex.reason, steps)


# ---------------------------------------------------------------------------
# Well-typed term generation (safety fuzzing)
# ---------------------------------------------------------------------------

_LIT_POOL = {
    "Int": [0, 1, 2, 3, 7, -1, 42],
    "String": ["", "a", "b", "ab", "abc", "zzz"],
    "Bool": [True, False],
    "Unit": [None],
}

_PRIM_PRODUCERS = {
    # goal kind -> (receiver kind, method, argument kinds)
    "Int": [
        ("Int", "+", ("Int",)),
        ("Int", "-", ("Int",)),
        ("Int", "*", ("Int",)),
        ("String", "length", ("Unit",)),
        ("String", "hash", ("Unit",)),
    ],
    "Bool": [
        ("Int", "eq", ("Int",)),
        ("Int", "lt", ("Int",)),
        ("String", "eq", ("String",)),
        ("Bool", "and", ("Bool",)),
        ("Bool", "or", ("Bool",)),
        ("Bool", "not", ("Unit",)),
        ("Unit", "eq", ("Unit",)),
    ],
    "String": [("String", "concat", ("String",)), ("String", "first", ("Unit",))],
    "Unit": [],
}

# Declassification level of a generated subterm: public literals and
# operations, a bounded variable X (when the environment provides one with
# a matching lower bound), or fully private.
_PUBLIC, _VARLEVEL, _PRIVATE = "public", "var", "private"


def _goal_sectype(kind: str, level: str, delta: dict) -> Faceted:
    if level == _PUBLIC:
        return public(Prim(kind))
    if level == _VARLEVEL:
        return Faceted(Prim(kind), TypeVar(next(iter(delta))))
    return Faceted(Prim(kind), TOP)


def gen_welltyped(seed: int, size_budget: int = 10):
    """Generate `(delta, closed expression, security type)` by typed
    construction; the expression is guaranteed to pass the security
    checker under `delta` and the empty term environment."""
    rng = random.Random(seed)
    delta: dict = {}
    kind = rng.choice(["Int", "String", "Bool"])
    if rng.random() < 0.3:
        delta = {"X": (Prim(kind), TOP)}
    level = rng.choice([_PUBLIC, _PUBLIC, _PUBLIC, _PRIVATE] + ([_VARLEVEL] if delta else []))
    goal = _goal_sectype(kind, level, delta)
    e = _gen(rng, kind, level, size_budget, delta, [])
    from .typecheck import sec_check

    ok, diags = sec_check(delta, {}, e, goal)
    if not ok:
        detail = "; ".join(d.message for d in diags)
        raise GobsecError(f"generator produced an ill-typed term: {detail}")
    return delta, e, goal


def _gen(rng: random.Random, kind: str, level: str, budget: int, delta: dict, env: list) -> Expr:
    """A closed expression checking at `_goal_sectype(kind, level)`.

    `env` holds (name, kind, level) for let-bound variables in scope.
    Levels order public <: var <: private, so a more public subterm always
    satisfies a more private goal by subsumption.
    """
    if budget <= 1:
        return _gen_leaf(rng, kind, level, env)
    roll = rng.random()
    if roll < 0.22:
        return _gen_leaf(rng, kind, level, env)
    if roll < 0.47 and _PRIM_PRODUCERS[kind]:
        rk, m, argks = rng.choice(_PRIM_PRODUCERS[kind])
        recv_level = _PUBLIC
        if level == _PRIVATE and rng.random() < 0.5:
            # A less-than-public receiver: the method falls outside the
            # declassification facet, so the result is private.
            recv_level = _PRIVATE
            if delta and rng.random() < 0.5:
                lo = next(iter(delta.values()))[0]
                if isinstance(lo, Prim) and lo.kind == rk:
                    recv_level = _VARLEVEL
        recv = _gen(rng, rk, recv_level, budget // 2, delta, env)
        args = tuple(_gen(rng, k, _PUBLIC, max(1, budget // 3), delta, env) for k in argks)
        return Invoke(recv, m, (), args)
    if roll < 0.62:
        cond_level = _PUBLIC
        if level == _PRIVATE and rng.random() < 0.5:
            cond_level = _PRIVATE  # branching on a secret makes the result private
        cond = _gen(rng, "Bool", cond_level, max(1, budget // 3), delta, env)
        return If(
            cond,
            _gen(rng, kind, level if cond_level == _PUBLIC else _PUBLIC, budget // 2, delta, env),
            _gen(rng, kind, level if cond_level == _PUBLIC else _PUBLIC, budget // 2, delta, env),
        )
    if roll < 0.74:
        s = _goal_sectype(kind, level, delta)
        obj_t = ObjType("z", (("id", GenericSig((), (s,), s)),))
        obj = ObjectLit("z", public(obj_t), (MethodDef("id", ("x",), Var("x")),))
        return Invoke(obj, "id", (), (_gen(rng, kind, level, budget - 2, delta, env),))
    if roll < 0.84:
        name = f"v{len(env)}"
        bkind = rng.choice(["Int", "String", "Bool"])
        bound = _gen(rng, bkind, _PUBLIC, max(1, budget // 3), delta, env)
        body = _gen(rng, kind, level, budget // 2, delta, env + [(name, bkind, _PUBLIC)])
        return Let(name, bound, body)
    if roll < 0.90 and delta and level in (_VARLEVEL, _PRIVATE):
        # Bounded-polymorphic identity instantiated at the environment's
        # variable; the result is observable only up to that variable.
        name, (lo, hi) = next(iter(delta.items()))
        if isinstance(lo, Prim) and lo.kind == kind:
            sig = GenericSig(
                (TParam("Y", lo, hi),),
                (Faceted(Prim(kind), TypeVar("Y")),),
                Faceted(Prim(kind), TypeVar("Y")),
            )
            obj_t = ObjType("z", (("pick", sig),))
            obj = ObjectLit("z", public(obj_t), (MethodDef("pick", ("x",), Var("x")),))
            return Invoke(obj, "pick", (TypeVar(name),), (_gen(rng, kind, _PUBLIC, budget - 2, delta, env),))
    if roll < 0.93 and budget >= 4:
        # A diverging call is still safe; keep these rare.
        s = _goal_sectype(kind, level, delta)
        obj_t = ObjType("z", (("spin", GenericSig((), (public(Prim("Unit")),), s)),))
        obj = ObjectLit(
            "z", public(obj_t), (MethodDef("spin", ("x",), Invoke(Var("z"), "spin", (), (Var("x"),))),)
        )
        return Invoke(obj, "spin", (), (UNIT,))
    return _gen_leaf(rng, kind, level, env)


def _gen_leaf(rng: random.Random, kind: str, level: str, env: list) -> Expr:
    usable = [n for (n, k, lv) in env if k == kind and (lv == level or lv == _PUBLIC)]
    if usable and rng.random() < 0.5:
        return Var(rng.choice(usable))
    return PrimLit(rng.choice(_LIT_POOL[kind]), kind)

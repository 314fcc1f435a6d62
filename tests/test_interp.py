"""Small-step evaluation, the environment machine against it, the
primitive dispatch table, and the safety fuzz generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gobsec.algebra import meths
from gobsec.cli import corpus_dir
from gobsec.interp import (
    Stuck,
    StuckError,
    Timeout,
    Value,
    bind,
    erase_surface,
    erase_types,
    evaluate,
    fnv1a64,
    gen_welltyped,
    readback,
    run_machine,
    step,
    theta,
)
from gobsec.parser import parse_expr, parse_program, pretty_print
from gobsec.prni import PROBE_FUEL, default_pool, gen_related_pair, sample_subst
from gobsec.syntax import (
    FALSE,
    UNIT,
    Invoke,
    Let,
    MethodDef,
    ObjType,
    ObjectLit,
    PrimLit,
    Var,
    alpha_eq_expr,
    canon_expr,
    is_value,
    public,
    subst_term,
    subst_type_vars,
    subst_type_vars_expr,
)

from conftest import INT, gsig


def run(src: str, **inputs):
    p = parse_program(src)
    binds = {k: parse_expr(v, p.aliases) for k, v in inputs.items()}
    return evaluate(subst_term(p.body, binds))


class TestStep:
    def test_identity_in_one_step(self):
        s = public(ObjType("z", (("id", gsig([public(INT)], public(INT))),)))
        obj = ObjectLit("z", s, (MethodDef("id", ("x",), Var("x")),))
        assert step(Invoke(obj, "id", (), (PrimLit(5, "Int"),))) == PrimLit(5, "Int")

    def test_receiver_before_arguments(self):
        e = parse_expr('"ab".concat("cd").length()')
        e1 = step(e)
        assert pretty_print(e1) == '"abcd".length()'

    def test_values_do_not_step(self):
        assert step(PrimLit(1, "Int")) is None


class TestTheta:
    def test_string_length(self):
        out = evaluate(parse_expr('"abc".length()'))
        assert isinstance(out, Value) and out.expr == PrimLit(3, "Int")

    def test_arithmetic(self):
        assert evaluate(parse_expr("2.+(3)")).expr == PrimLit(5, "Int")
        assert evaluate(parse_expr("2.-(3)")).expr == PrimLit(-1, "Int")
        assert evaluate(parse_expr("true.and(false)")).expr == FALSE

    def test_wrapping_is_two_complement_64bit(self):
        big = (1 << 63) - 1
        out = theta("+", PrimLit(big, "Int"), (PrimLit(1, "Int"),))
        assert out.value == -(1 << 63)

    def test_first_of_empty_string(self):
        assert evaluate(parse_expr('"".first()')).expr == PrimLit("", "String")

    def test_hash_is_fnv1a64(self):
        # Frozen reference values for FNV-1a 64 over UTF-8, reinterpreted
        # as a signed 64-bit integer.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert evaluate(parse_expr('"".hash()')).expr.value == -3750763034362895579
        ref = fnv1a64("abc".encode())
        ref = ref - (1 << 64) if ref >= (1 << 63) else ref
        assert evaluate(parse_expr('"abc".hash()')).expr.value == ref

    def test_partiality_outside_table(self):
        out = evaluate(parse_expr('1.concat("a")'))
        assert isinstance(out, Stuck)

    def test_table_agrees_with_primitive_interfaces(self):
        # Every declared primitive method is implemented at matching kinds,
        # and vice versa.
        from gobsec.interp import THETA

        declared = {(kind, m): sig for kind in ("Int", "String", "Bool", "Unit") for m, sig in meths(kind)}
        assert set(THETA) == set(declared)
        for (kind, m), (arg_kinds, ret_kind, _) in THETA.items():
            sig = declared[(kind, m)]
            assert sig.arg_kinds == arg_kinds and sig.ret_kind == ret_kind

    def test_typed_primitive_calls_never_stuck(self):
        # theta is total on simply well-typed calls.
        rng = random.Random(0)
        pools = {"Int": [0, 7, -3], "String": ["", "ab"], "Bool": [True, False], "Unit": [None]}
        for kind in pools:
            for m, sig in meths(kind):
                for r in pools[kind]:
                    args = tuple(PrimLit(pools[k][0], k) for k in sig.arg_kinds)
                    out = theta(m, PrimLit(r, kind), args)
                    assert out.kind == sig.ret_kind


class TestEvaluate:
    def test_login_runs(self):
        login = """
type StringEq = Obj(a)[ eq : String! -> Bool! ]
var guess : String!
var password : String<StringEq>
if password.eq(guess) then "Login Successful" else "Login failed"
"""
        ok = run(login, guess='"a"', password='"a"')
        assert ok.expr == PrimLit("Login Successful", "String")
        no = run(login, guess='"x"', password='"secret"')
        assert no.expr == PrimLit("Login failed", "String")

    def test_divergence_times_out(self):
        omega = parse_expr(
            "new { z : Obj(a)[ loop : Unit! -> Unit! ]! loop(x) => z.loop(x) }.loop()"
        )
        out = evaluate(omega, fuel=100)
        assert isinstance(out, Timeout) and out.steps == 100

    def test_determinism(self):
        e = parse_expr('"ab".concat("c").length().+(2.*(3))')
        assert evaluate(e).expr == evaluate(e).expr == PrimLit(9, "Int")

    def test_let_lowering(self):
        out = evaluate(parse_expr("let y = 2.+(3) in y.*(y)"))
        assert out.expr == PrimLit(25, "Int")

    def test_types_never_influence_evaluation(self):
        rng = random.Random(0)
        for seed in range(120):
            _, e, _ = gen_welltyped(seed)
            a = evaluate(e, fuel=3000)
            b = evaluate(erase_types(e), fuel=3000)
            assert type(a) is type(b)
            if isinstance(a, Value) and isinstance(a.expr, PrimLit):
                assert a.expr == b.expr
            if isinstance(a, Value):
                assert a.steps == b.steps


class TestGenWelltyped:
    def test_small_budget_is_a_literal(self):
        _, e, _ = gen_welltyped(1, size_budget=1)
        assert isinstance(e, PrimLit)

    def test_generated_terms_check(self):
        # The generator asserts this internally; exercise a spread of seeds.
        for seed in range(200):
            delta, e, goal = gen_welltyped(seed)

    def test_generated_terms_are_safe(self):
        for seed in range(400):
            _, e, _ = gen_welltyped(seed)
            out = evaluate(e, fuel=10_000)
            assert not isinstance(out, Stuck), pretty_print(e)


def reference(e, fuel):
    """The specification: erase the surface forms, then iterate `step` up
    to `fuel` contractions."""
    e = erase_surface(e)
    steps = 0
    while steps < fuel:
        try:
            nxt = step(e)
        except StuckError as ex:
            return Stuck(ex.redex, ex.reason, steps)
        if nxt is None:
            return Value(e, steps)
        e = nxt
        steps += 1
    if is_value(e):
        return Value(e, steps)
    return Timeout(steps)


def corpus_inputs(seeds):
    """Every corpus body, at each seed, with its type variables instantiated,
    and each side of a `gen_related_pair` of its inputs."""
    for path in sorted(corpus_dir().glob("*.gobsec")):
        prog = parse_program(path.read_text(encoding="utf-8"))
        pool = default_pool(prog)
        for seed in seeds:
            rng = random.Random(seed)
            sigma = sample_subst(dict(prog.tvars), pool, rng) if prog.tvars else {}
            body = subst_type_vars_expr(prog.body, sigma)
            pairs = {
                x: gen_related_pair(subst_type_vars(s, sigma), 6, rng, pool=pool)
                for x, s in prog.vars.items()
            }
            for side in (0, 1):
                yield path.name, body, {x: pair[side] for x, pair in pairs.items()}


def corpus_closures():
    """Every corpus body, four times, with its type variables instantiated
    and its inputs replaced by each side of a `gen_related_pair`."""
    for name, body, gamma in corpus_inputs(range(4)):
        yield name, subst_term(body, gamma)


OBJ_T = "Obj(a)[ m : Int! -> Int! ]!"


class TestMachineAgainstStep:
    """`evaluate` is an environment machine; iterating `step` is its
    specification. Outcome class, step count, value and stuck redex agree
    exactly."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(0, 9_999), st.one_of(st.integers(0, 40), st.just(10_000)))
    def test_generated_terms(self, seed, fuel):
        _, e, _ = gen_welltyped(seed)
        assert evaluate(e, fuel) == reference(e, fuel)

    def test_corpus_bodies(self):
        checked = 0
        for name, e in corpus_closures():
            full = reference(e, 10_000)
            assert evaluate(e, 10_000) == full, name
            # Cut the run short, at a timeout and just before the end.
            for fuel in {0, full.steps // 2, max(full.steps - 1, 0)}:
                assert evaluate(e, fuel) == reference(e, fuel), (name, fuel)
            checked += 1
        assert checked >= 2 * 22

    @pytest.mark.parametrize(
        "src, steps, redex, reason",
        [
            ("let a = 1.+(2) in a.+(y)", 2, "y", "free variable y"),
            (f"new {{ z : {OBJ_T} m(x) => x }}.n(1.+(1))", 1, f"new {{ z : {OBJ_T} m(x) => x }}.n(2)", "object has no method n"),
            (
                f"let k = 1.+(4) in new {{ z : {OBJ_T} m(x) => k }}.m(1, 2)",
                2,
                f"new {{ z : {OBJ_T} m(x) => 5 }}.m(1, 2)",
                "method m expects 1 arguments, got 2",
            ),
            ("if 1.+(1) then 1 else 2", 1, "2", "condition did not evaluate to a Bool"),
            (
                f"1.+(2).+(new {{ z : {OBJ_T} m(x) => x }})",
                1,
                f"new {{ z : {OBJ_T} m(x) => x }}",
                "primitive Int.+ applied to a non-primitive argument",
            ),
            ('"a".concat("b").nope()', 1, '"ab"', "primitive String has no method nope"),
        ],
    )
    def test_stuck_at_its_fuel_and_timeout_one_below(self, src, steps, redex, reason):
        e = parse_expr(src)
        out = evaluate(e, steps + 1)
        assert out == reference(e, steps + 1) == Stuck(out.redex, reason, steps)
        assert out.redex == erase_surface(parse_expr(redex))
        assert evaluate(e, steps) == reference(e, steps) == Timeout(steps)

    @pytest.mark.parametrize(
        "src",
        [
            "let x = 2.+(3) in (x.*(x) : Int!)",
            "(let x = (1 : Int!) in let y = x.+(x) in let x = y.+(1) in x.+(y) : Int!)",
            "let z = 7 in new { s : Obj(a)[ m : Int! -> Int! ]! m(x) => let y = (x.+(z) : Int!) in y.*(2) }.m(z.+(1))",
            f"let k = 4 in (new {{ s : {OBJ_T} m(x) => (x.+(k) : Int!) }} : {OBJ_T})",
            f"let k = 4 in let o = new {{ s : {OBJ_T} m(x) => x.+(k) }} in let k = 9 in o",
        ],
    )
    def test_let_and_ascription(self, src):
        e = parse_expr(src)
        for fuel in range(12):
            assert evaluate(e, fuel) == reference(e, fuel), fuel

    @pytest.mark.parametrize(
        "src, value",
        [
            # The closure sees the `k` it was built under, not the caller's.
            (f"let k = 1 in let o = new {{ s : {OBJ_T} m(x) => x.+(k) }} in let k = 10 in o.m(0)", 1),
            # A parameter named like the self name shadows it.
            (f"new {{ x : {OBJ_T} m(x) => x.+(1) }}.m(1)", 2),
            (f"new {{ s : {OBJ_T} m(x) => if x.eq(0) then 0 else s.m(x.-(1)).+(2) }}.m(3)", 6),
        ],
    )
    def test_lexical_scope(self, src, value):
        e = parse_expr(src)
        out = evaluate(e)
        assert out == reference(e, 1_000)
        assert out.expr == PrimLit(value, "Int")

    def test_let_in_a_returned_object_reads_back_lowered(self):
        # The reference lowers `let` to an object with a fresh self name,
        # so the two values agree up to that name.
        e = parse_expr(f"let k = 4 in new {{ s : {OBJ_T} m(x) => let y = x in y.+(k) }}")
        out, ref = evaluate(e), reference(e, 100)
        assert out.steps == ref.steps == 1
        assert alpha_eq_expr(out.expr, ref.expr)
        assert not isinstance(out.expr.methods[0].body, Let)
        assert evaluate(Invoke(out.expr, "m", (), (PrimLit(3, "Int"),))).expr == PrimLit(7, "Int")

    def test_nested_closures_read_back_their_environment(self):
        e = parse_expr(
            "let a = 1 in new { s : Obj(a)[ mk : Int! -> Obj(b)[ get : Unit! -> Int! ]! ]! "
            "mk(n) => new { t : Obj(b)[ get : Unit! -> Int! ]! get(u) => n.+(a) } }.mk(41)"
        )
        out = evaluate(e)
        assert out == reference(e, 100)
        assert pretty_print(evaluate(Invoke(out.expr, "get", (), (PrimLit(None, "Unit"),))).expr) == "42"


def same_outcome(ours, ref, where):
    """`ours`, from `run_machine` or `evaluate`, and `ref`, from `evaluate`,
    agree in class and step count, and in their values up to alpha."""
    assert type(ours) is type(ref) and ours.steps == ref.steps, where
    if isinstance(ours, Value):
        assert canon_expr(readback(ours.expr)) == canon_expr(ref.expr), where
    elif isinstance(ours, Stuck):
        assert ours.reason == ref.reason, where


class TestMachineValues:
    """The machine run from an environment, on the values it holds, against
    the read-back terms `evaluate` runs."""

    def test_bound_inputs_act_as_substituted_ones(self):
        for name, body, gamma in corpus_inputs(range(10)):
            ref = evaluate(subst_term(body, gamma), 10_000)
            same_outcome(run_machine(body, bind(gamma), 10_000), ref, name)
            same_outcome(evaluate(body, 10_000, bind(gamma)), ref, name)

    def test_probing_a_closure_matches_invoking_its_read_back(self):
        # Each method of the closures the corpus bodies return, and of the
        # closures those methods return, three calls down, is probed as the
        # harness probes it: `r.m(a0, ...)` with `r` and the arguments bound
        # in the environment.
        probed = 0
        for name, body, gamma in corpus_inputs(range(10)):
            out = run_machine(body, bind(gamma), 10_000)
            todo = [(out.expr, 0)] if isinstance(out, Value) else []
            while todo:
                v, depth = todo.pop()
                if type(v) is not tuple:
                    continue
                for impl in v[0].methods:
                    args = (UNIT,) * len(impl.params)
                    params = tuple(f"a{i}" for i in range(len(args)))
                    call = Invoke(Var("r"), impl.name, (), tuple(Var(p) for p in params))
                    env = bind({"r": v, **dict(zip(params, args))})
                    for fuel in (0, 1, PROBE_FUEL):
                        ours = run_machine(call, env, fuel)
                        ref = evaluate(Invoke(readback(v), impl.name, (), args), fuel)
                        same_outcome(ours, ref, (name, impl.name, fuel))
                    if isinstance(ours, Value) and depth < 3:
                        todo.append((ours.expr, depth + 1))
                    probed += 1
        # The four list bodies return the closures: 660 method probes at
        # these seeds, fewer than 4 * 20 runs * 4 levels * 3 methods since
        # an empty list's tail diverges.
        assert probed >= 600

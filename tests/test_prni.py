"""The differential noninterference harness: substitution sampling,
related-pair generation, relatedness probing, and end-to-end verdicts."""

import random
import re
import zlib
from collections import Counter
from pathlib import Path

import pytest

import gobsec.algebra
import gobsec.interp
import gobsec.prni
import gobsec.syntax
from gobsec.cli import corpus_dir
from gobsec.interp import Timeout, evaluate, readback
from gobsec.parser import parse_expr, parse_program, parse_sectype, pretty_print
from gobsec.prni import (
    Counterexample,
    EmptyInterval,
    NoCounterexample,
    PrniConfig,
    ProbeContext,
    check_related,
    prni_test,
    sample_subst,
    verdict_to_json,
)
from gobsec.prni import _UNIVERSE, _mix, _rand_lit, _Stage
from gobsec.syntax import TOP, UNIT, Faceted, Invoke, Prim, PrimLit, TypeVar, canon, subst_term

from conftest import (
    INT,
    STR_FST_LEN,
    STRING,
    STRING_EQ,
    STRING_EQ_POLY,
    STRING_FST,
    STRING_HASH_EQ,
    STRING_LEN,
    related_pair,
)

LEN_CTX = """
type StringLen = Obj(a)[ length : Unit! -> Int! ]
type StrFstLen = Obj(a)[ first : Unit! -> String!, length : Unit! -> Int! ]
tvar X : StrFstLen .. StringLen
var x : String<X>
"""

PROGRAMS = Path(__file__).parent / "programs"

# Every program expected to leak, in the corpus and in `tests/programs/`.
INSECURE = [
    path
    for path in sorted([*corpus_dir().glob("*.gobsec"), *PROGRAMS.glob("*.gobsec")])
    if "expect insecure" in path.read_text(encoding="utf-8")
]

# An object input: `get` is exposed by the policy `G`, `peek` is not.
OBJ_CTX = """
type O = Obj(o)[ get : Unit! -> String!, peek : Unit! -> String! ]
type G = Obj(g)[ get : Unit! -> String! ]
"""


class TestSampleSubst:
    def test_candidates_respect_bounds(self):
        delta = {"X": (STR_FST_LEN, STRING_LEN)}
        pool = {"StrFstLen": STR_FST_LEN, "StringLen": STRING_LEN, "StringEq": STRING_EQ}
        seen = set()
        for seed in range(40):
            sigma = sample_subst(delta, pool, seed)
            seen.add(canon(sigma["X"]))
        assert seen == {canon(STR_FST_LEN), canon(STRING_LEN)}

    def test_empty_environment(self):
        assert sample_subst({}, {}, 0) == {}

    def test_singleton_interval(self):
        delta = {"X": (STRING_LEN, STRING_LEN)}
        sigma = sample_subst(delta, {}, 0)
        assert canon(sigma["X"]) == canon(STRING_LEN)

    def test_empty_interval_raises(self):
        delta = {"X": (TOP, Prim("String"))}
        with pytest.raises(EmptyInterval):
            sample_subst(delta, {}, 0)

    def test_earlier_choices_substitute_into_later_bounds(self):
        delta = {"X": (STRING_LEN, TOP), "Y": (TypeVar("X"), TOP)}
        for seed in range(10):
            sigma = sample_subst(delta, {}, seed)
            assert not isinstance(sigma["Y"], TypeVar)


class TestGenRelatedPair:
    def test_public_primitives_are_equal(self):
        v1, v2 = related_pair(Faceted(INT, INT), 6, _mix(1))
        assert v1 == v2

    def test_private_strings_are_independent(self):
        vals = set()
        for seed in range(30):
            v1, v2 = related_pair(Faceted(STRING, TOP), 6, _mix(seed))
            vals.add((v1.value, v2.value))
        assert any(a != b for a, b in vals)

    def test_length_policy_pairs_same_length(self):
        # Both spellings of the policy: standard and primitive (`<*>`).
        for s in (Faceted(STRING, STRING_LEN), parse_sectype("String<Obj(a)[ length : Unit<*> -> Int<*> ]>")):
            differing = 0
            for seed in range(50):
                v1, v2 = related_pair(s, 6, _mix(seed))
                assert len(v1.value) == len(v2.value)
                differing += v1.value != v2.value
            assert differing > 0

    def test_first_policy_pairs_share_the_first_character(self):
        differing = 0
        for seed in range(50):
            v1, v2 = related_pair(Faceted(STRING, STRING_FST), 6, _mix(seed))
            assert v1.value[:1] == v2.value[:1]
            differing += v1.value != v2.value
        assert differing > 0

    def test_first_and_length_policy(self):
        for seed in range(50):
            v1, v2 = related_pair(Faceted(STRING, STR_FST_LEN), 6, _mix(seed))
            assert len(v1.value) == len(v2.value)
            assert v1.value[:1] == v2.value[:1]

    def test_equality_policy_pairs_are_equal(self):
        # Every string is a class of its own at an equality policy.
        for seed in range(40):
            v1, v2 = related_pair(Faceted(STRING, STRING_EQ), 6, _mix(seed))
            assert v1 == v2

    @pytest.mark.parametrize("k", [0, 1])
    def test_equality_policy_pairs_are_equal_at_every_k(self, k):
        # At k <= 1 the relation relates every pair, but a primitive pair
        # does not depend on k: a list's deep elements, generated at such
        # depths, are still equal at an equality policy.
        for seed in range(200):
            v1, v2 = related_pair(Faceted(STRING, STRING_EQ), k, _mix(seed))
            assert v1 == v2

    def test_hash_policy_pairs_are_equal(self):
        for seed in range(40):
            v1, v2 = related_pair(Faceted(STRING, STRING_HASH_EQ), 6, _mix(seed))
            assert v1 == v2

    def test_object_pairs_follow_the_policy(self):
        s = parse_sectype("O<G>", parse_program(OBJ_CTX + "1").aliases)
        peeks_differ = False
        for seed in range(20):
            v1, v2 = map(readback, related_pair(s, 6, _mix(seed)))
            get1, get2 = (evaluate(Invoke(v, "get", (), (UNIT,))).expr for v in (v1, v2))
            assert get1 == get2
            peek1, peek2 = (evaluate(Invoke(v, "peek", (), (UNIT,))).expr for v in (v1, v2))
            peeks_differ |= peek1 != peek2
        assert peeks_differ

    def test_object_pairs_diverge_at_step_zero(self):
        s = parse_sectype("O<G>", parse_program(OBJ_CTX + "1").aliases)
        for v in map(readback, related_pair(s, 0, _mix(0))):
            for m in ("get", "peek"):
                assert isinstance(evaluate(Invoke(v, m, (), (UNIT,)), 100), Timeout)


# Every primitive policy declared in the corpus and `tests/programs/`: its
# kind and the number of classes it splits the literal universe into.
PARTITIONS = {
    "StringLen": ("String", 5),
    "StrFstLen": ("String", 13),
    "StringFst": ("String", 4),
    "StringEq": ("String", 121),
    "StringEqPoly": ("String", 121),
    "StringHashEq": ("String", 121),
    "IntEq": ("Int", 10),
}


class TestPartition:
    """A policy's classes are exactly what the probes can tell apart: no
    pair within a class is refuted, so generation yields no false
    counterexample, and pairs across classes are."""

    @staticmethod
    def related(kind, u, a, b):
        ctx = ProbeContext(seed=1, budget=10_000)
        return check_related(6, PrimLit(a, kind), PrimLit(b, kind), Faceted(Prim(kind), u), ctx)[0]

    def test_every_policy_of_a_typed_program_is_pinned(self):
        # The named declassification facets of primitives in every program
        # that is not expected to be ill-typed.
        named = set()
        for path in [*corpus_dir().glob("*.gobsec"), *PROGRAMS.glob("*.gobsec")]:
            text = path.read_text(encoding="utf-8")
            if "expect illtyped" not in text:
                aliases = parse_program(text).aliases
                named |= {n for n in re.findall(r"\b(?:Int|String|Bool|Unit)<(\w+)>", text) if n in aliases}
        assert named == set(PARTITIONS)

    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_classes(self, name, policies):
        kind, size = PARTITIONS[name]
        u = policies[name]
        classes = sorted(set(gobsec.prni._partition(kind, u, gobsec.prni._UNIVERSE[kind]).values()))
        assert len(classes) == size
        for cls in classes:
            for a in cls:
                for b in cls:
                    assert a == b or self.related(kind, u, a, b), (a, b)
        rng = random.Random(len(classes))
        for _ in range(50):
            c1, c2 = rng.sample(classes, 2)
            a, b = rng.choice(c1), rng.choice(c2)
            assert not self.related(kind, u, a, b), (a, b)


class TestCheckRelated:
    def test_equal_public_strings(self):
        ok, _ = check_related(6, PrimLit("abc", "String"), PrimLit("abc", "String"), Faceted(STRING, STRING), ProbeContext(seed=1))
        assert ok

    def test_length_policy_distinguishes_lengths(self):
        ok, path = check_related(
            2, PrimLit("abc", "String"), PrimLit("ab", "String"), Faceted(STRING, STRING_LEN), ProbeContext(seed=1)
        )
        assert not ok
        assert path[0].method == "length"

    def test_length_policy_accepts_same_length(self):
        ok, _ = check_related(
            6, PrimLit("abc", "String"), PrimLit("123", "String"), Faceted(STRING, STRING_LEN), ProbeContext(seed=1)
        )
        assert ok

    def test_first_policy_distinguishes_first_characters(self):
        ok, path = check_related(
            2, PrimLit("abc", "String"), PrimLit("123", "String"), Faceted(STRING, STR_FST_LEN), ProbeContext(seed=1)
        )
        assert not ok
        assert path[0].method == "first"

    def test_primitive_signature_policy_is_probed_at_public_arguments(self):
        ok, path = check_related(
            2, PrimLit("abc", "String"), PrimLit("ab", "String"), Faceted(STRING, STRING_EQ_POLY), ProbeContext(seed=1)
        )
        assert not ok
        assert path[0].method == "eq"
        ok, _ = check_related(
            6, PrimLit("abc", "String"), PrimLit("abc", "String"), Faceted(STRING, STRING_EQ_POLY), ProbeContext(seed=1)
        )
        assert ok

    def test_method_with_dependent_bounds_is_probed(self):
        # A bound of `Y` names `X`: each instantiation substitutes its choice
        # for `X` into `Y`'s bounds before choosing `Y`, so the probe runs at
        # closed types (`X := Int` makes the second method's result public).
        for t in (
            "Obj(a)[ m<X : Int .. Top, Y : X .. Top> : Unit! -> Int! ]!",
            "Obj(a)[ m<X : Int .. Top, Y : Int .. X> : Unit! -> Int<Y> ]!",
        ):
            v1, v2 = (parse_expr(f"new {{ z : {t} m(u) => {n} }}") for n in (1, 2))
            ctx = ProbeContext(pool={"Int": INT, "Top": TOP}, seed=1)
            ok, path = check_related(2, v1, v2, parse_sectype(t), ctx)
            assert not ok, t
            assert path[0].method == "m" and len(path[0].targs) == 2

    def test_zero_steps_relate_everything(self):
        ok, _ = check_related(0, PrimLit(1, "Int"), PrimLit(2, "Int"), Faceted(INT, INT), ProbeContext(seed=1))
        assert ok

    def test_refutation_is_monotone_in_k(self):
        for k in range(2, 7):
            ok, _ = check_related(
                k, PrimLit("abc", "String"), PrimLit("ab", "String"), Faceted(STRING, STRING_LEN), ProbeContext(seed=9)
            )
            assert not ok


class TestPrniTest:
    def cfg(self, pairs=300, seed=42):
        return PrniConfig(pairs=pairs, substs=10, k=6, seed=seed)

    def test_length_observation_is_secure(self):
        p = parse_program(LEN_CTX + "x.length()")
        v = prni_test(p, parse_sectype("Int!"), self.cfg())
        assert isinstance(v, NoCounterexample)

    def test_first_observation_leaks(self):
        p = parse_program(LEN_CTX + "x.first()")
        v = prni_test(p, parse_sectype("String!"), self.cfg(pairs=1000))
        assert isinstance(v, Counterexample)
        # The distinguishing observation is a pair of unequal public strings.
        o1, o2 = v.outputs
        assert o1 != o2

    def test_subject_observations(self):
        p = parse_program(LEN_CTX + "x")
        ok = prni_test(p, parse_sectype("String<StringLen>", p.aliases), self.cfg())
        assert isinstance(ok, NoCounterexample)
        bad = prni_test(
            p,
            parse_sectype("String<Obj(b)[ first : Unit! -> String! ]>", p.aliases),
            self.cfg(pairs=1000),
        )
        assert isinstance(bad, Counterexample)

    @pytest.mark.parametrize(
        "name, observe, seed", [("leak_first", "String!", 123), ("subject_fst", "String<StringFst>", 2020)]
    )
    def test_substitutions_that_all_agree_are_redrawn(self, name, observe, seed):
        # At these seeds all ten draws of X in `StrFstLen .. StringLen` are
        # the lower bound, where the first character is public; the leak
        # shows only at the upper bound.
        p = parse_program((corpus_dir() / f"{name}.gobsec").read_text(encoding="utf-8"))
        observe = parse_sectype(observe, p.aliases)
        v = prni_test(p, observe, PrniConfig(pairs=100, substs=10, k=6, seed=seed))
        assert isinstance(v, Counterexample)
        assert v.sigma_types["X"] == p.tvars["X"][1]

    def test_top_observation_never_refutes(self):
        p = parse_program(LEN_CTX + "x.first()")
        v = prni_test(p, parse_sectype("Top?"), self.cfg(pairs=100))
        assert isinstance(v, NoCounterexample)

    def test_reflexive_pairs_never_refute(self):
        # With no declared inputs the two runs are identical.
        p = parse_program("expect secure at Int!\n1.+(2)")
        v = prni_test(p, parse_sectype("Int!"), self.cfg(pairs=50))
        assert isinstance(v, NoCounterexample)

    def test_counterexample_replays(self):
        p = parse_program(LEN_CTX + "x.first()")
        v = prni_test(p, parse_sectype("String!"), self.cfg(pairs=1000))
        assert isinstance(v, Counterexample)
        from gobsec.interp import evaluate
        from gobsec.syntax import subst_type_vars_expr

        body = subst_type_vars_expr(p.body, v.sigma_types)
        out1 = evaluate(subst_term(body, v.gamma1_values))
        out2 = evaluate(subst_term(body, v.gamma2_values))
        assert pretty_print(out1.expr) != pretty_print(out2.expr)

    def test_same_seed_same_verdict_json(self):
        p = parse_program(LEN_CTX + "x.first()")
        a = verdict_to_json(prni_test(p, parse_sectype("String!"), self.cfg(pairs=500, seed=7)))
        b = verdict_to_json(prni_test(p, parse_sectype("String!"), self.cfg(pairs=500, seed=7)))
        assert a == b

    def test_different_seeds_explore_differently(self):
        p = parse_program(LEN_CTX + "x.first()")
        witnesses = set()
        for s in range(4):
            v = prni_test(p, parse_sectype("String!"), self.cfg(pairs=1000, seed=s))
            assert isinstance(v, Counterexample), s
            witnesses.add((tuple(sorted(v.gamma1.items())), tuple(sorted(v.gamma2.items()))))
        assert len(witnesses) >= 2

    def test_object_input_leak_is_refuted(self):
        p = parse_program((PROGRAMS / "object_leak.gobsec").read_text())
        v = prni_test(p, parse_sectype("String!"), self.cfg(pairs=50, seed=1))
        assert isinstance(v, Counterexample)
        assert v.outputs[0] != v.outputs[1]

    def test_object_input_at_its_policy_is_secure(self):
        # The secure twin: `G` exposes the observed method.
        p = parse_program((PROGRAMS / "object_policy.gobsec").read_text())
        v = prni_test(p, parse_sectype("String!"), self.cfg(pairs=50, seed=1))
        assert isinstance(v, NoCounterexample)

    def test_deep_list_elements_stay_related(self):
        # At this seed, list heads at `StringEq` drawn at step index 1 or
        # less reach the membership test; unless such a pair is equal
        # whatever its depth, membership testing tells the two lists apart
        # (it does when those heads are drawn independently).
        p = parse_program((corpus_dir() / "list_contains.gobsec").read_text(encoding="utf-8"))
        v = prni_test(p, p.expect.at, PrniConfig(pairs=25, seed=39))
        assert isinstance(v, NoCounterexample)

    @pytest.mark.parametrize("path", INSECURE, ids=lambda p: p.name)
    def test_insecure_programs_are_refuted_at_every_seed(self, path):
        p = parse_program(path.read_text(encoding="utf-8"))
        for seed in range(30):
            v = prni_test(p, p.expect.at, PrniConfig(pairs=1000, seed=seed))
            assert isinstance(v, Counterexample), seed

    def test_requires_simple_typing(self):
        from gobsec.typecheck import TypeError_

        p = parse_program("var x : String!\nx.frobnicate()")
        with pytest.raises(TypeError_):
            prni_test(p, parse_sectype("String!"), self.cfg(pairs=10))


class TestProbePath:
    """Trials and probes run on machine values, and inputs are drawn into
    prebuilt templates; a closure is read back to a term only to print a
    counterexample."""

    @staticmethod
    def events(monkeypatch):
        """The log of `check_related` returns and of read-back: `_readback`
        calls, and the term rewriting it is made of."""
        log = []
        readback, check_related = gobsec.interp._readback, gobsec.prni.check_related

        def counted_readback(v, memo):
            log.append(("readback", v))
            return readback(v, memo)

        def logged_check_related(*args, **kwargs):
            out = check_related(*args, **kwargs)
            log.append(("checked", None))
            return out

        def logged(name, fn):
            def go(*args, **kwargs):
                log.append((name, None))
                return fn(*args, **kwargs)

            return go

        monkeypatch.setattr(gobsec.interp, "_readback", counted_readback)
        monkeypatch.setattr(gobsec.prni, "check_related", logged_check_related)
        for name in ("erase_surface", "subst_term"):
            monkeypatch.setattr(gobsec.interp, name, logged(name, getattr(gobsec.interp, name)))
        return log

    @staticmethod
    def run(name, seed, directory=None):
        from gobsec.typecheck import sec_synth

        p = parse_program(((directory or corpus_dir()) / name).read_text(encoding="utf-8"))
        observe = p.expect.at or sec_synth(p.tvars, p.vars, p.body)
        return prni_test(p, observe, PrniConfig(pairs=25, seed=seed))

    def test_a_secure_list_program_reads_nothing_back(self, monkeypatch):
        log = self.events(monkeypatch)
        assert isinstance(self.run("list_concat_mixed.gobsec", 0), NoCounterexample)
        assert log and all(kind == "checked" for kind, _ in log)

    def test_object_inputs_are_read_back_only_for_the_witness(self, monkeypatch):
        # The list inputs are closures over their drawn leaves; they become
        # terms once the verdict is a counterexample, to be printed.
        log = self.events(monkeypatch)
        v = self.run("list_tail_leak.gobsec", 1, PROGRAMS)
        assert isinstance(v, Counterexample)
        last_check = max(i for i, (kind, _) in enumerate(log) if kind == "checked")
        assert all(kind == "checked" for kind, _ in log[:last_check])
        read = [value for kind, value in log[last_check + 1 :] if kind == "readback"]
        assert sum(type(value) is tuple for value in read) >= 2  # each side's list, a closure

    def test_only_the_counterexample_outputs_are_read_back(self, monkeypatch):
        log = self.events(monkeypatch)
        v = self.run("subject_fst.gobsec", 1)
        assert isinstance(v, Counterexample)
        last_check = max(i for i, (kind, _) in enumerate(log) if kind == "checked")
        assert all(kind == "checked" for kind, _ in log[:last_check])
        read = [value for _, value in log[last_check + 1 :]]
        assert [pretty_print(value) for value in read] == list(v.outputs)

    def test_fixed_arguments_serve_literal_receivers_of_other_kinds(self, monkeypatch):
        # `length` and `first` on two strings take a unit argument, which
        # `_public_arg` does not draw from the string receivers: their
        # samples are the row's fixed ones, so no argument tuple is built.
        calls = []
        args = gobsec.prni._Row.args

        def counted(*a, **kw):
            calls.append(a[0].name)
            return args(*a, **kw)

        monkeypatch.setattr(gobsec.prni._Row, "args", counted)
        assert isinstance(self.run("list_concat_mixed.gobsec", 0), NoCounterexample)
        assert calls == []


class TestEqualSides:
    """When both sides of a trial are one value, only a probe that draws
    two arguments can tell them apart: the machine is deterministic and
    the relation termination-insensitive. Such a trial is related without
    a probe where its plan draws no arguments (the plan is blind), and
    probed in full where it does."""

    # Closed, so both sides are the one object; `m` answers a private
    # argument at a public result.
    SELF_LEAK = """expect insecure at Obj(a)[ m : String? -> String! ]!
new { z : Obj(a)[ m : String? -> String? ]! m(x) => x }"""

    PROGRAM_FILES = sorted([*corpus_dir().glob("*.gobsec"), *PROGRAMS.glob("*.gobsec")])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_value_is_probed_where_its_plan_draws_arguments(self, seed):
        p = parse_program(self.SELF_LEAK)
        v = prni_test(p, p.expect.at, PrniConfig(seed=seed))
        assert isinstance(v, Counterexample)
        (step,) = v.observation
        assert step.method == "m" and step.args1 != step.args2

    def test_a_full_probe_relates_every_trial_the_rule_skips(self, monkeypatch):
        # Every trial is probed in full; those the rule skips (one value
        # at a blind plan) must all come out related.
        from gobsec.cli import run_corpus_file

        skipped = []
        check_related = gobsec.prni.check_related

        class Unskipped(_Stage):
            def blind(self, s):
                return False

        def recorded(k, v1, v2, s, ctx):
            out = check_related(k, v1, v2, s, ctx)
            if v1 is v2 and _Stage.blind(ctx.stage, s):
                skipped.append(out)
            return out

        monkeypatch.setattr(gobsec.prni, "_Stage", Unskipped)
        monkeypatch.setattr(gobsec.prni, "check_related", recorded)
        assert len(self.PROGRAM_FILES) == 27
        for path in self.PROGRAM_FILES:
            for seed in range(10):
                run_corpus_file(path, seed, pairs=25)
        assert len(skipped) > 1000
        assert set(skipped) == {(True, None)}

    def test_a_skipped_trial_makes_no_probe_call(self, monkeypatch):
        # `list_cons` at `X = String`: both inputs are public, so the sides
        # are one value, and the list's plan draws no arguments. A trial
        # logs its inputs' draws (`d`), its runs of the body (`r`) and its
        # probe calls (`c`); the plan draws nothing, so a `d` starts a trial.
        from gobsec.prni import _Template
        from gobsec.typecheck import sec_synth

        log = []

        def logged(event, fn):
            def go(*args):
                log.append(event)
                return fn(*args)

            return go

        monkeypatch.setattr(gobsec.prni, "run_machine", logged("r", gobsec.prni.run_machine))
        monkeypatch.setattr(gobsec.prni, "call", logged("c", gobsec.prni.call))
        monkeypatch.setattr(_Template, "draw", logged("d", _Template.draw))
        p = parse_program((corpus_dir() / "list_cons.gobsec").read_text(encoding="utf-8"))
        v = prni_test(p, sec_synth(p.tvars, p.vars, p.body), PrniConfig(pairs=25, seed=1))
        assert isinstance(v, NoCounterexample) and v.compared == 25
        trials = re.findall(r"dd(r+)(c*)", "".join(log))
        assert len(trials) == 25 and sum(map(len, map("".join, trials))) + 50 == len(log)
        assert {calls for runs, calls in trials if runs == "r"} == {""}
        assert any(runs == "r" for runs, _ in trials) and any(calls for _, calls in trials)


class TestStagedWork:
    """What depends on the types alone (method signatures, policy readings,
    substitutions, interval candidates, partitions, the templates' method
    definitions) is built once per verdict: it does not grow with the
    number of trials."""

    COUNTED = (
        (gobsec.algebra, "msig"),
        (gobsec.syntax, "subst_type_vars"),
        (gobsec.algebra, "in_interval"),
        (gobsec.prni, "_partition"),
        (gobsec.prni, "_policy"),
        (gobsec.prni, "_Row"),
    )

    def counts(self, pairs, program="list_concat_mixed.gobsec"):
        import sys

        from gobsec.syntax import MethodDef

        # The partitions are cached across verdicts; each count starts cold.
        gobsec.prni._partition.cache_clear()
        counts = dict.fromkeys([name for _, name in self.COUNTED] + ["MethodDef"], 0)

        def counted(name, fn):
            def go(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return go

        post_init = MethodDef.__post_init__

        def counted_post_init(self_):
            counts["MethodDef"] += 1
            post_init(self_)

        modules = [m for n, m in sys.modules.items() if n.startswith("gobsec.")]
        with pytest.MonkeyPatch.context() as mp:
            for home, name in self.COUNTED:
                fn = getattr(home, name)
                for m in modules:
                    if getattr(m, name, None) is fn:
                        mp.setattr(m, name, counted(name, fn))
            mp.setattr(MethodDef, "__post_init__", counted_post_init)
            p = parse_program((corpus_dir() / program).read_text(encoding="utf-8"))
            from gobsec.typecheck import sec_synth

            v = prni_test(p, sec_synth(p.tvars, p.vars, p.body), PrniConfig(pairs=pairs, seed=0))
        assert isinstance(v, NoCounterexample) and v.compared == pairs
        return counts

    def test_per_verdict_work_does_not_grow_with_pairs(self):
        few = self.counts(25)
        assert all(few.values()), few
        assert self.counts(200) == few

    def test_a_blind_plan_is_resolved_once_per_verdict(self):
        # At `X = String` the sides of a `list_cons` trial are one value,
        # and whether the list's plan is blind resolves its rows' links.
        few = self.counts(25, "list_cons.gobsec")
        assert few["_Row"] and few["MethodDef"], few
        assert self.counts(200, "list_cons.gobsec") == few

    @staticmethod
    def shape_checks(run):
        """The `check_shape` calls that `run()` makes, and its result."""
        import sys

        calls = 0
        check_shape = gobsec.syntax.check_shape

        def counted(*xs):
            nonlocal calls
            calls += 1
            check_shape(*xs)

        with pytest.MonkeyPatch.context() as mp:
            for n, m in sys.modules.items():
                if n.startswith("gobsec.") and getattr(m, "check_shape", None) is check_shape:
                    mp.setattr(m, "check_shape", counted)
            out = run()
        return calls, out

    @pytest.mark.parametrize("name", ["sec_len.gobsec", "subject_len.gobsec", "list_concat_mixed.gobsec"])
    def test_a_verdict_checks_no_shapes(self, name):
        # The harness's types are ones the package parsed or built, so its
        # interval and simple-typing questions go to the subtyping core
        # without the public entry points' shape check.
        from gobsec.typecheck import sec_synth

        p = parse_program((corpus_dir() / name).read_text(encoding="utf-8"))
        observe = p.expect.at or sec_synth(p.tvars, p.vars, p.body)
        calls, v = self.shape_checks(lambda: prni_test(p, observe, PrniConfig(pairs=25, seed=0)))
        assert isinstance(v, NoCounterexample)
        assert calls == 0

    @pytest.mark.parametrize("name", ["sec_len.gobsec", "prim_eq.gobsec"])
    def test_a_corpus_run_checks_no_shapes(self, name):
        # Parsed types all the way: the well-formedness checks (whose
        # scoping walk already checks shapes), typing, the `expect type`
        # comparison and the verdict all call the unchecked cores.
        from gobsec.cli import run_corpus_file

        assert "expect type" in (corpus_dir() / name).read_text(encoding="utf-8")
        calls, result = self.shape_checks(lambda: run_corpus_file(corpus_dir() / name, 0, pairs=25))
        assert result.passed, result.detail
        assert calls == 0

    def test_a_failed_facet_check_is_diagnosed_without_shape_checks(self):
        # The per-method diagnosis runs after the scoping walk has checked
        # the shapes, so it calls the unchecked cores as the check does.
        from gobsec.cli import run_corpus_file
        from gobsec.wellformed import wf_sectype

        calls, result = self.shape_checks(lambda: run_corpus_file(corpus_dir() / "wf_eq_bad.gobsec", 0, pairs=25))
        assert result.passed and result.detail == (
            "ill-formed environment: variable p: method eq: a standard signature over a primitive "
            "must take public primitive arguments or return a private result"
        )
        assert calls == 0
        issues: list = []
        s = parse_sectype("Obj(a)[ m : Int! -> Int! ]<Obj(b)[ m : Int! -> String! ]>")
        calls, ok = self.shape_checks(lambda: wf_sectype({}, s, issues))
        assert not ok and [(i.code, i.message) for i in issues] == [
            ("FacetMismatch", "method m: declassified signature is not above the safety signature")
        ]
        assert calls == 0

    def test_a_verdicts_stage_is_freed_by_reference_counting(self, monkeypatch):
        # Nothing the stage keeps refers back to it, so it goes with the
        # verdict even with the cycle collector off. (The `_Row.node` links
        # of a recursive plan are cycles by design, among the rows.)
        import gc
        import weakref

        from gobsec.typecheck import sec_synth

        stages = []

        class Recorded(_Stage):
            def __init__(self, pool):
                super().__init__(pool)
                stages.append(weakref.ref(self))

        monkeypatch.setattr(gobsec.prni, "_Stage", Recorded)
        p = parse_program((corpus_dir() / "list_concat_mixed.gobsec").read_text(encoding="utf-8"))
        observe = sec_synth(p.tvars, p.vars, p.body)
        gc.collect()
        gc.disable()
        try:
            v = prni_test(p, observe, PrniConfig(pairs=25, seed=0))
            alive = [ref() is not None for ref in stages]
        finally:
            gc.enable()
        assert isinstance(v, NoCounterexample)
        assert alive == [False]


class TestTrialWork:
    """A verdict builds no random generator: every draw is a function of
    its path. A trial whose two sides get equal inputs runs the body once:
    the machine is deterministic, so both sides share its outcome."""

    FUEL = 9_999  # the body's fuel, which tells its runs from the probes'

    def work(self, name):
        from gobsec.typecheck import sec_synth

        runs = generators = 0
        run_machine, init = gobsec.prni.run_machine, random.Random.__init__

        def counted_run(e, env, fuel):
            nonlocal runs
            runs += fuel == self.FUEL
            return run_machine(e, env, fuel)

        def counted_init(self_, *args, **kwargs):
            nonlocal generators
            generators += 1
            init(self_, *args, **kwargs)

        p = parse_program((corpus_dir() / name).read_text(encoding="utf-8"))
        observe = p.expect.at or sec_synth(p.tvars, p.vars, p.body)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gobsec.prni, "run_machine", counted_run)
            mp.setattr(random.Random, "__init__", counted_init)
            v = prni_test(p, observe, PrniConfig(pairs=25, seed=1, fuel=self.FUEL))
        assert isinstance(v, NoCounterexample) and v.compared == 25
        return runs, generators

    @pytest.mark.parametrize(
        "name, runs",
        [
            # Public inputs and an equality policy: the sides are always equal.
            ("login.gobsec", 25),
            ("prim_eq.gobsec", 25),
            # A `Top` input: 2 of the 25 trials draw the same string twice.
            ("prim_eq_high.gobsec", 48),
            # Two lists of several leaves each: no trial draws equal sides.
            ("list_concat_mixed.gobsec", 50),
        ],
    )
    def test_equal_sides_run_the_body_once(self, name, runs):
        assert self.work(name) == (runs, 0)


def _reference_mix(*parts):
    """The seed derivation as first written: a fold over the parts from a
    constant, each string read as its CRC-32."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        v = zlib.crc32(p.encode()) if isinstance(p, str) else int(p) & ((1 << 64) - 1)
        h = (h ^ v) * 0xBF58476D1CE4E5B9 & ((1 << 64) - 1)
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & ((1 << 64) - 1)
        h ^= h >> 31
    return h


# `_Template.draw` at the paths `_mix(0)`, `_mix(1)`, `_mix(2)`: both sides'
# leaves. `obj` is `O<G>`: `get` (public, one number), then `peek` (at `Top`,
# two numbers).
KNOWN_DRAWS = {
    ("fst_len", 0): (["cbca"], ["caab"]),
    ("fst_len", 1): (["a"], ["a"]),
    ("fst_len", 2): (["c"], ["c"]),
    ("top", 0): (["cbca"], [""]),
    ("top", 1): (["a"], [""]),
    ("top", 2): (["c"], ["ac"]),
    ("obj", 0): (["cbca", ""], ["cbca", ""]),
    ("obj", 1): (["a", ""], ["a", "aa"]),
    ("obj", 2): (["c", "ac"], ["c", "c"]),
}


def _reference_lit(kind, r):
    """`_rand_lit` as specified, digit by digit."""
    if kind == "Int":
        return PrimLit(r % 10, kind)
    if kind == "Bool":
        return PrimLit(bool(r & 1), kind)
    q, letters = r // 5, []
    for _ in range(r % 5):
        letters.append("abc"[q % 3])
        q //= 3
    return PrimLit("".join(letters), kind)


class TestStreams:
    """A draw's stream of random numbers is `_fold(path, i)` for `i = 0, 1,
    ...`, each reduced to the choice it makes, and a path continues a fold.
    Known answers pin the streams, so a change to them shows here before
    it moves a seeded verdict."""

    NUMBERS = [0, 7, 404, 405, 2**64 - 1, *(_reference_mix(i) for i in (1, 2, 3, 5))]

    def test_literal_known_answers(self):
        got = [tuple(_rand_lit(kind, r).value for kind in ("Int", "String", "Bool", "Unit")) for r in self.NUMBERS]
        assert got == [
            (0, "", False, None),
            (7, "ba", True, None),
            (4, "cccc", False, None),
            (5, "", True, None),
            (5, "", True, None),
            (1, "c", True, None),
            (2, "cb", False, None),
            (9, "baca", True, None),
            (3, "bbb", True, None),
        ]

    def test_literals_follow_their_specification(self):
        for r in [*self.NUMBERS, *range(2000), *(_reference_mix(i) for i in range(2000))]:
            for kind in ("Int", "String", "Bool"):
                assert _rand_lit(kind, r) == _reference_lit(kind, r), (kind, r)

    def test_literals_are_exactly_uniform(self):
        # 405 = 5 * 3**4 numbers: each length 81 times, and each of the 3**n
        # strings of length n equally often.
        strings = Counter(_rand_lit("String", r).value for r in range(405))
        assert set(strings) == set(_UNIVERSE["String"])
        assert Counter(len(v) for v in strings.elements()) == {n: 81 for n in range(5)}
        assert all(count == 81 // 3 ** len(v) for v, count in strings.items())
        assert sorted(_rand_lit("Int", r).value for r in range(10)) == list(range(10))
        assert sorted(_rand_lit("Bool", r).value for r in range(2)) == [False, True]

    def test_template_known_answers(self):
        obj = parse_sectype("O<G>", parse_program(OBJ_CTX + "1").aliases)
        got = {}
        for name, s in [("fst_len", Faceted(STRING, STR_FST_LEN)), ("top", Faceted(STRING, TOP)), ("obj", obj)]:
            template = _Stage({}).template(s, 2)
            for seed in (0, 1, 2):
                leaves1, leaves2 = template.draw(_mix(seed))
                got[name, seed] = [v.value for v in leaves1], [v.value for v in leaves2]
        assert got == KNOWN_DRAWS

    def test_two_arguments_of_one_probe_draw_independently(self):
        # Both arguments are private strings from the same template; the
        # path folds in their positions, so they agree only by chance
        # (about 6% for two strings of the universe), not always.
        s = parse_sectype("Obj(a)[ m : String? * String? -> Int! ]!")
        ctx = ProbeContext()
        (row,) = ctx.stage.node(s)
        assert [j for j, _ in row.gens] == [0, 1]
        equal = 0
        for seed in range(200):
            path = _mix(seed, "args")
            args1, args2, key = row.args(0, None, None, 6, ctx, path)
            assert (args1, args2, key) == row.args(0, None, None, 6, ctx, path)
            equal += args1[0] == args1[1]
        assert 0 < equal < 30

    @pytest.mark.parametrize(
        "parts",
        [(1, "pair", 7, 0), (-3, "check", 2), (0, "args", "('eq', 0, 1)", "eq", 1, 2), (2**70, "subst", 9)],
    )
    def test_a_fold_continues_from_its_prefix(self, parts):
        assert _mix(*parts) == _reference_mix(*parts)
        for cut in range(len(parts) + 1):
            assert _mix(*parts[cut:], h=_mix(*parts[:cut])) == _reference_mix(*parts)

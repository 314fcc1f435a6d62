"""The differential noninterference harness: substitution sampling,
related-pair generation, relatedness probing, and end-to-end verdicts."""

import random
from pathlib import Path

import pytest

import gobsec.interp
import gobsec.prni
from gobsec.cli import corpus_dir
from gobsec.interp import Timeout, evaluate
from gobsec.parser import parse_expr, parse_program, parse_sectype, pretty_print
from gobsec.prni import (
    Counterexample,
    EmptyInterval,
    NoCounterexample,
    PrniConfig,
    ProbeContext,
    check_related,
    gen_related_pair,
    prni_test,
    sample_subst,
    verdict_to_json,
)
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
)

LEN_CTX = """
type StringLen = Obj(a)[ length : Unit! -> Int! ]
type StrFstLen = Obj(a)[ first : Unit! -> String!, length : Unit! -> Int! ]
tvar X : StrFstLen .. StringLen
var x : String<X>
"""

PROGRAMS = Path(__file__).parent / "programs"

# An object input: `get` is exposed by the policy `G`, `peek` is not.
OBJ_CTX = """
type O = Obj(o)[ get : Unit! -> String!, peek : Unit! -> String! ]
type G = Obj(g)[ get : Unit! -> String! ]
"""


def _rng(seed=0):
    return random.Random(seed)


class TestSampleSubst:
    def test_candidates_respect_bounds(self):
        delta = {"X": (STR_FST_LEN, STRING_LEN)}
        pool = {"StrFstLen": STR_FST_LEN, "StringLen": STRING_LEN, "StringEq": STRING_EQ}
        seen = set()
        for seed in range(40):
            sigma = sample_subst(delta, pool, _rng(seed))
            seen.add(canon(sigma["X"]))
        assert seen == {canon(STR_FST_LEN), canon(STRING_LEN)}

    def test_empty_environment(self):
        assert sample_subst({}, {}, _rng()) == {}

    def test_singleton_interval(self):
        delta = {"X": (STRING_LEN, STRING_LEN)}
        sigma = sample_subst(delta, {}, _rng())
        assert canon(sigma["X"]) == canon(STRING_LEN)

    def test_empty_interval_raises(self):
        delta = {"X": (TOP, Prim("String"))}
        with pytest.raises(EmptyInterval):
            sample_subst(delta, {}, _rng())

    def test_earlier_choices_substitute_into_later_bounds(self):
        delta = {"X": (STRING_LEN, TOP), "Y": (TypeVar("X"), TOP)}
        for seed in range(10):
            sigma = sample_subst(delta, {}, _rng(seed))
            assert not isinstance(sigma["Y"], TypeVar)


class TestGenRelatedPair:
    def test_public_primitives_are_equal(self):
        v1, v2 = gen_related_pair(Faceted(INT, INT), 6, _rng(1))
        assert v1 == v2

    def test_private_strings_are_independent(self):
        vals = set()
        for seed in range(30):
            v1, v2 = gen_related_pair(Faceted(STRING, TOP), 6, _rng(seed))
            vals.add((v1.value, v2.value))
        assert any(a != b for a, b in vals)

    def test_length_policy_pairs_same_length(self):
        # Both spellings of the policy: standard and primitive (`<*>`).
        for s in (Faceted(STRING, STRING_LEN), parse_sectype("String<Obj(a)[ length : Unit<*> -> Int<*> ]>")):
            differing = 0
            for seed in range(50):
                v1, v2 = gen_related_pair(s, 6, _rng(seed))
                assert len(v1.value) == len(v2.value)
                differing += v1.value != v2.value
            assert differing > 0

    def test_first_policy_pairs_share_the_first_character(self):
        differing = 0
        for seed in range(50):
            v1, v2 = gen_related_pair(Faceted(STRING, STRING_FST), 6, _rng(seed))
            assert v1.value[:1] == v2.value[:1] != ""
            differing += v1.value != v2.value
        assert differing > 0

    def test_first_and_length_policy(self):
        for seed in range(50):
            v1, v2 = gen_related_pair(Faceted(STRING, STR_FST_LEN), 6, _rng(seed))
            assert len(v1.value) == len(v2.value)
            assert v1.value[:1] == v2.value[:1]

    def test_equality_policy_pairs_certified(self):
        # Unequal proposals cannot survive probing at an equality policy.
        for seed in range(40):
            v1, v2 = gen_related_pair(Faceted(STRING, STRING_EQ), 6, _rng(seed))
            assert v1 == v2

    @pytest.mark.parametrize("k", [0, 1])
    def test_primitive_pairs_are_certified_at_a_fixed_depth(self, k):
        # At k <= 1 the relation relates every pair, so a check at depth k
        # would certify unequal strings at an equality policy. A list's
        # deep elements are generated at such depths.
        for seed in range(200):
            v1, v2 = gen_related_pair(Faceted(STRING, STRING_EQ), k, _rng(seed))
            assert v1 == v2

    def test_hash_policy_pairs_certified(self):
        for seed in range(40):
            v1, v2 = gen_related_pair(Faceted(STRING, STRING_HASH_EQ), 6, _rng(seed))
            assert v1 == v2

    def test_object_pairs_follow_the_policy(self):
        s = parse_sectype("O<G>", parse_program(OBJ_CTX + "1").aliases)
        peeks_differ = False
        for seed in range(20):
            v1, v2 = gen_related_pair(s, 6, _rng(seed))
            get1, get2 = (evaluate(Invoke(v, "get", (), (UNIT,))).expr for v in (v1, v2))
            assert get1 == get2
            peek1, peek2 = (evaluate(Invoke(v, "peek", (), (UNIT,))).expr for v in (v1, v2))
            peeks_differ |= peek1 != peek2
        assert peeks_differ

    def test_object_pairs_diverge_at_step_zero(self):
        s = parse_sectype("O<G>", parse_program(OBJ_CTX + "1").aliases)
        for v in gen_related_pair(s, 0, _rng()):
            for m in ("get", "peek"):
                assert isinstance(evaluate(Invoke(v, m, (), (UNIT,)), 100), Timeout)


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
        "name, observe, seed", [("leak_first", "String!", 1627786250), ("subject_fst", "String<StringFst>", 1809123342)]
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
        trials = {
            prni_test(p, parse_sectype("String!"), self.cfg(pairs=1000, seed=s)).trial
            for s in range(4)
        }
        assert len(trials) >= 1  # all refute; trial indices may differ

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
        # At this seed an element four levels down is a pair of unequal
        # strings at `StringEq` unless elements are certified at a fixed
        # depth; membership testing then tells the two lists apart.
        p = parse_program((corpus_dir() / "list_contains.gobsec").read_text(encoding="utf-8"))
        v = prni_test(p, p.expect.at, PrniConfig(pairs=25, seed=581))
        assert isinstance(v, NoCounterexample)

    def test_requires_simple_typing(self):
        from gobsec.typecheck import TypeError_

        p = parse_program("var x : String!\nx.frobnicate()")
        with pytest.raises(TypeError_):
            prni_test(p, parse_sectype("String!"), self.cfg(pairs=10))


class TestProbePath:
    """Trials and probes run on machine values; a closure is read back to a
    term only to print a counterexample's outputs."""

    @staticmethod
    def events(monkeypatch):
        """The log of `_readback` calls and `check_related` returns."""
        log = []
        readback, check_related = gobsec.interp._readback, gobsec.prni.check_related

        def counted_readback(v, memo):
            log.append(("readback", v))
            return readback(v, memo)

        def logged_check_related(*args, **kwargs):
            out = check_related(*args, **kwargs)
            log.append(("checked", None))
            return out

        monkeypatch.setattr(gobsec.interp, "_readback", counted_readback)
        monkeypatch.setattr(gobsec.prni, "check_related", logged_check_related)
        return log

    @staticmethod
    def run(name, seed):
        from gobsec.typecheck import sec_synth

        p = parse_program((corpus_dir() / name).read_text(encoding="utf-8"))
        observe = p.expect.at or sec_synth(p.tvars, p.vars, p.body)
        return prni_test(p, observe, PrniConfig(pairs=25, seed=seed))

    def test_a_secure_list_program_reads_nothing_back(self, monkeypatch):
        log = self.events(monkeypatch)
        assert isinstance(self.run("list_concat_mixed.gobsec", 0), NoCounterexample)
        assert log and all(kind == "checked" for kind, _ in log)

    def test_only_the_counterexample_outputs_are_read_back(self, monkeypatch):
        log = self.events(monkeypatch)
        v = self.run("subject_fst.gobsec", 1)
        assert isinstance(v, Counterexample)
        last_check = max(i for i, (kind, _) in enumerate(log) if kind == "checked")
        assert all(kind == "checked" for kind, _ in log[:last_check])
        read = [value for _, value in log[last_check + 1 :]]
        assert [pretty_print(value) for value in read] == list(v.outputs)

"""The three benchmark workloads and their known-answer checks.

Each workload class is built from the freshly imported gobsec modules and
a workload seed (that is its set-up: input generation), then offers

* `measure(seconds)`: the timed phase, returning a `Result`;
* `unit()`: a fixed slice of the same work, used by the traced run and
  timed once untraced to give the tracing overhead.

Every call into gobsec goes through a module attribute, so the traced run
sees the tracing wrappers.
"""

from __future__ import annotations

import gc
import math
import random
import re
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ANSWERS = Path(__file__).resolve().parent / "answers"
FUZZ_REFERENCE = ANSWERS / "fuzz_reference.txt"
SUBTYPE_UNIVERSE = ANSWERS / "subtype_universe.txt"

clock = time.perf_counter


@dataclass
class Result:
    measured: dict[str, float]  # p50_ms, tail_ms, ops_per_s, steps_per_s, as measured
    in_ref: dict[str, float]  # p50_ref, tail_ref, ops_per_ref, steps_per_ref (see HostSpeed)
    named: dict[str, tuple[float, str]]  # the same numbers under their workload-specific names
    host: "HostSpeed"
    attempted: int = 0
    failed: int = 0
    samples: dict[str, object] = field(default_factory=dict)  # sample counts behind each statistic
    seeds: dict[str, object] = field(default_factory=dict)


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with gobsec: recursive
    construction of small tuple trees, the allocation-and-call pattern the
    interpreter spends its time in."""

    def tree(n):
        return (n,) if n <= 1 else (tree(n - 1), tree(n - 2))

    return sum(len(repr(tree(14))) if i % 10 == 0 else len(tree(14)) for i in range(30))


def time_reference() -> float:
    """Seconds one `reference_loop` takes, with the garbage collector off,
    so that the size of gobsec's live heap does not slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_loop()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Times `reference_loop` between measured spans, at most every
    INTERVAL seconds, and expresses each span in units `ref` of the
    reference-loop times sampled within WINDOW seconds of it.

    On a shared host the same work runs up to 1.7 times faster at times,
    and the host switches between its fast and slow states within seconds.
    The reference loop speeds up with it, so times in `ref` units stay
    steady where seconds do not, as long as each span is divided by the
    reference times measured around it rather than by a whole run's."""

    INTERVAL = 0.25
    WINDOW = 0.5

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        now = clock()
        if force or now >= self._next:
            self.times.append(now)
            self.samples.append(time_reference())
            self._next = clock() + self.INTERVAL

    def in_ref(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each (start, seconds) span's length in units of the median
        reference time sampled from WINDOW before its start to WINDOW after
        its end. The caller ticks before every span; this ticks once more
        after the last."""
        self.tick(force=True)
        out = []
        for start, dt in spans:
            lo = bisect_left(self.times, start - self.WINDOW)
            hi = bisect_right(self.times, start + dt + self.WINDOW)
            out.append(dt / statistics.median(self.samples[lo:hi]))
        return out


def tail(xs: list[float]) -> tuple[int, float, int]:
    """(p, value, beyond): the highest whole percentile, at most 99, with at
    least ten samples above it, by nearest rank. With ten or fewer samples
    it is the maximum, with nothing beyond."""
    xs = sorted(xs)
    n = len(xs)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            return p, xs[k - 1], n - k
    return 100, xs[-1], 0


def latency(prefix: str, xs: list[float], scale: float = 1.0) -> tuple[float, float, dict]:
    """Median and tail of `xs` times `scale`, with the sample counts
    behind them."""
    p, value, beyond = tail(xs)
    return statistics.median(xs) * scale, value * scale, {
        f"{prefix}_n": len(xs),
        f"{prefix}_tail_percentile": p,
        f"{prefix}_tail_beyond": beyond,
    }


def expected_kind(text: str) -> str:
    """The `expect secure|insecure|illtyped` annotation, read without the
    gobsec parser."""
    m = re.search(r"^expect\s+(secure|insecure|illtyped)\b", text, re.M)
    if m is None:
        raise ValueError("corpus file has no expect annotation")
    return m.group(1)


def declares_inputs(text: str) -> bool:
    """Whether the file declares a `var` or `tvar` input. A file with none
    is a closed program, for which `prni_test` runs a single pair."""
    return re.search(r"^t?var\s", text, re.M) is not None


def derived_seeds(seed: int, label: str):
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.getrandbits(31)


# ---------------------------------------------------------------------------
# corpus-prni
# ---------------------------------------------------------------------------


class CorpusPrni:
    """The shipped corpus through `cli.run_corpus_file` with typing plus
    the differential test, one whole pass per derived seed."""

    name = "corpus-prni"
    # Pairs per secure file. At 25 a 30-second run makes about 17 passes,
    # each at its own seed; at 50, with half as many, the tail's spread over
    # ten runs was half as large again.
    PAIRS = 25
    # An insecure file's test stops at its first counterexample; it gets the
    # CLI's default cap, so a refutation never fails for want of pairs (one
    # in a hundred seeds needs more than 50).
    REFUTE_PAIRS = 1000
    MIN_PASSES = 4  # from 4 passes on, the tail percentile lies among the list files

    def __init__(self, g: SimpleNamespace, seed: int):
        self.g = g
        self.files = sorted(g.cli.corpus_dir().glob("*.gobsec"))
        texts = {p.name: p.read_text(encoding="utf-8") for p in self.files}
        self.expect = {name: expected_kind(text) for name, text in texts.items()}
        # PRNI pairs each secure verdict runs, read from the source, not from
        # the verdict (which reports every requested pair).
        self.pairs_run = {
            name: (self.PAIRS if declares_inputs(text) else 1)
            for name, text in texts.items()
            if self.expect[name] == "secure"
        }
        self.seeds = derived_seeds(seed, self.name)
        self.unit_seed = next(derived_seeds(seed, self.name))

    def _verdict(self, path: Path, seed: int) -> bool:
        kind = self.expect[path.name]
        pairs = self.REFUTE_PAIRS if kind == "insecure" else self.PAIRS
        r = self.g.cli.run_corpus_file(path, seed, False, pairs)
        return r.file == path.name and r.expect == kind and r.passed

    def measure(self, seconds: float) -> Result:
        host = HostSpeed()
        verdicts: list[tuple[float, float]] = []  # (start, seconds)
        pairs: list[int] = []  # PRNI pairs each verdict ran; 0 unless secure
        pass_s: list[float] = []
        used: list[int] = []
        failed = 0
        start = clock()
        while len(pass_s) < self.MIN_PASSES or clock() - start < seconds:
            seed = next(self.seeds)
            used.append(seed)
            for path in self.files:
                host.tick()
                t0 = clock()
                ok = self._verdict(path, seed)
                verdicts.append((t0, clock() - t0))
                pairs.append(self.pairs_run.get(path.name, 0))
                failed += not ok
            pass_s.append(sum(dt for _, dt in verdicts[-len(self.files):]))
        verdict_s = [dt for _, dt in verdicts]
        verdict_ref = host.in_ref(verdicts)
        p50, tail_ms, samples = latency("verdict", verdict_s, 1e3)
        p50_ref, tail_ref, _ = latency("verdict", verdict_ref)
        verdicts_per_s = len(verdict_s) / sum(verdict_s)
        pairs_per_s = sum(pairs) / sum(dt for dt, n in zip(verdict_s, pairs) if n)
        samples.update(passes=len(pass_s), pairs=self.PAIRS, secure_pairs_run=sum(pairs), pass_s=pass_s)
        return Result(
            measured={
                "p50_ms": p50,
                "tail_ms": tail_ms,
                "ops_per_s": verdicts_per_s,
                "steps_per_s": pairs_per_s,
            },
            in_ref={
                "p50_ref": p50_ref,
                "tail_ref": tail_ref,
                "ops_per_ref": len(verdict_ref) / sum(verdict_ref),
                "steps_per_ref": sum(pairs) / sum(t for t, n in zip(verdict_ref, pairs) if n),
            },
            named={
                "verdict_p50_ms": (p50, "ms"),
                "verdict_tail_ms": (tail_ms, "ms"),
                "verdicts_per_s": (verdicts_per_s, "1/s"),
                "pairs_per_s": (pairs_per_s, "1/s"),
            },
            host=host,
            attempted=len(verdict_s),
            failed=failed,
            samples=samples,
            seeds={"pass_seeds": used},
        )

    def unit(self) -> tuple[int, int]:
        """One corpus pass at the first derived seed."""
        failed = sum(not self._verdict(p, self.unit_seed) for p in self.files)
        return len(self.files), failed


# ---------------------------------------------------------------------------
# fuzz-eval
# ---------------------------------------------------------------------------


def outcome_key(outcome) -> tuple[str, int, str]:
    """(class, steps, value) of an evaluation outcome, as the reference
    file records it; primitive values print as kind:repr."""
    kind = type(outcome).__name__
    value = "-"
    if kind == "Value":
        e = outcome.expr
        value = f"{e.kind}:{e.value!r}" if type(e).__name__ == "PrimLit" else type(e).__name__
    return kind, outcome.steps, value


def load_fuzz_reference() -> dict[int, tuple[str, int, str]]:
    ref = {}
    for line in FUZZ_REFERENCE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            seed, kind, steps, value = line.split(" ", 3)
            ref[int(seed)] = (kind, int(steps), value)
    return ref


class FuzzEval:
    """A seeded block of `interp.gen_welltyped` terms evaluated by
    `interp.evaluate` at fuel 10 000, cycling until time is up."""

    name = "fuzz-eval"
    POOL = 10_000  # generator seeds the reference file covers
    BLOCK = 4_000
    FUEL = 10_000
    UNIT_TERMS = 400

    def __init__(self, g: SimpleNamespace, seed: int):
        self.g = g
        self.term_seeds = random.Random(f"{self.name}:{seed}").sample(range(self.POOL), self.BLOCK)
        self.terms = [g.interp.gen_welltyped(s)[1] for s in self.term_seeds]
        self.reference = load_fuzz_reference()

    def _check(self, k: int, outcome) -> bool:
        key = outcome_key(outcome)
        return key[0] != "Stuck" and key == self.reference[self.term_seeds[k]]

    def measure(self, seconds: float) -> Result:
        evaluate = self.g.interp.evaluate
        host = HostSpeed()
        evals: list[tuple[float, float]] = []  # (start, seconds)
        steps = 0
        failed = 0
        start = clock()
        k = 0
        while not evals or clock() - start < seconds:
            host.tick()
            i = k % self.BLOCK
            t0 = clock()
            out = evaluate(self.terms[i], self.FUEL)
            evals.append((t0, clock() - t0))
            steps += out.steps
            failed += not self._check(i, out)
            k += 1
        eval_s = [dt for _, dt in evals]
        eval_ref = host.in_ref(evals)
        busy = sum(eval_s)
        p50, p99, samples = latency("eval", eval_s, 1e3)
        p50_ref, p99_ref, _ = latency("eval", eval_ref)
        samples.update(distinct_terms=min(k, self.BLOCK), contractions=steps)
        return Result(
            measured={
                "p50_ms": p50,
                "tail_ms": p99,
                "ops_per_s": len(eval_s) / busy,
                "steps_per_s": steps / busy,
            },
            in_ref={
                "p50_ref": p50_ref,
                "tail_ref": p99_ref,
                "ops_per_ref": len(eval_ref) / sum(eval_ref),
                "steps_per_ref": steps / sum(eval_ref),
            },
            named={
                "eval_p50_us": (p50 * 1e3, "us"),
                "eval_p99_ms": (p99, "ms"),
                "evals_per_s": (len(eval_s) / busy, "1/s"),
                "contractions_per_s": (steps / busy, "1/s"),
            },
            host=host,
            attempted=len(eval_s),
            failed=failed,
            samples=samples,
            seeds={"term_seeds_first": self.term_seeds[:8], "term_seeds_n": self.BLOCK},
        )

    def unit(self) -> tuple[int, int]:
        """The first UNIT_TERMS terms of the block."""
        evaluate = self.g.interp.evaluate
        failed = sum(not self._check(i, evaluate(self.terms[i], self.FUEL)) for i in range(self.UNIT_TERMS))
        return self.UNIT_TERMS, failed


# ---------------------------------------------------------------------------
# typing
# ---------------------------------------------------------------------------

_METHODS = ("m", "n", "p")


def random_closed_type(s, rng: random.Random, depth: int = 2, self_vars: tuple[str, ...] = ()):
    """The test suite's criterion-5 type generator (tests/conftest.py),
    drawing the same random numbers, over the syntax module `s`."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if self_vars and rng.random() < 0.4:
            return s.SelfVar(rng.choice(self_vars))
        return rng.choice([s.Prim("Int"), s.Prim("String"), s.Prim("Bool"), s.TOP])
    binder = f"s{len(self_vars)}"
    inner = self_vars + (binder,)
    names = rng.sample(_METHODS, rng.randint(1, 2))
    methods = []
    for name in sorted(names):
        if rng.random() < 0.25:
            kinds = ["Int", "String", "Bool", "Unit"]
            methods.append((name, s.PrimSig((rng.choice(kinds),), rng.choice(kinds))))
            continue
        tparams = ()
        if rng.random() < 0.3:
            tparams = (s.TParam("X", random_closed_type(s, rng, depth - 1, inner), s.TOP),)
        args = (_random_sectype(s, rng, depth - 1, inner),)
        ret = _random_sectype(s, rng, depth - 1, inner)
        methods.append((name, s.GenericSig(tparams, args, ret)))
    return s.ObjType(binder, tuple(methods))


def _random_sectype(s, rng: random.Random, depth: int, self_vars: tuple[str, ...]):
    t = random_closed_type(s, rng, depth, self_vars)
    roll = rng.random()
    if roll < 0.5:
        return s.Faceted(t, t)
    if roll < 0.8:
        return s.Faceted(t, s.TOP)
    return s.Faceted(t, random_closed_type(s, rng, depth - 1, self_vars))


def subtype_universe(s) -> list:
    """Criterion 4's 146 closed types (tests/test_acceptance.py)."""
    alpha = s.SelfVar("s")
    sps = [s.public(s.Prim("Int")), s.Faceted(alpha, alpha), s.public(s.TOP)]
    sigs = [s.GenericSig((), (a,), r) for a in sps for r in sps]
    sigs += [s.PrimSig(("Int",), "Int"), s.PrimSig(("String",), "Int")]
    universe = [s.Prim("Int"), s.Prim("String"), s.TOP]
    for s1 in sigs:
        universe.append(s.ObjType("s", (("m", s1),)))
        universe.append(s.ObjType("s", (("n", s1),)))
    for s1 in sigs:
        for s2 in sigs:
            universe.append(s.ObjType("s", (("m", s1), ("n", s2))))
    return universe


def load_subtype_answers() -> list[str]:
    return [ln for ln in SUBTYPE_UNIVERSE.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]


class Typing:
    """Rounds of (a) a typing-only corpus pass, (b) equivalence laws on
    fresh random types, (c) `sub_type` goals over the fixed universe."""

    name = "typing"
    SAMPLES = 8_000
    # Part (b)'s cost sits in a few heavy samples, so it gets most of the
    # round: about 80 samples take 0.6 s, 200 goals 0.2 s, a pass 65 ms.
    LAW_CHUNK = 80
    GOAL_CHUNK = 200
    UNIT_SAMPLES = 100
    UNIT_GOALS = 1_000

    def __init__(self, g: SimpleNamespace, seed: int):
        self.g = g
        rng = random.Random(f"{self.name}:{seed}")
        files = sorted(g.cli.corpus_dir().glob("*.gobsec"))
        self.sources = [(p.name, p.read_text(encoding="utf-8")) for p in files]
        self.accept = [expected_kind(text) == "secure" for _, text in self.sources]
        self.samples = [random_closed_type(g.syntax, rng, 2) for _ in range(self.SAMPLES)]
        self.universe = subtype_universe(g.syntax)
        self.answers = load_subtype_answers()
        m = len(self.universe)
        if len(self.answers) != m or any(len(row) != m for row in self.answers):
            raise ValueError("subtype answer table does not match the universe")
        self.goals = list(range(m * m))
        rng.shuffle(self.goals)

    def _accepts(self, text: str) -> bool:
        """What `gobsec check` decides for one file."""
        g = self.g
        try:
            prog = g.parser.parse_program(text)
        except g.parser.ParseError:
            return False
        issues: list = []
        g.wellformed.wf_tvar_env(prog.tvars, issues)
        g.wellformed.wf_term_env(prog.tvars, prog.vars, issues)
        if any(i.severity == "error" for i in issues):
            return False
        try:
            g.typecheck.sec_synth(prog.tvars, prog.vars, prog.body)
        except g.typecheck.TypeError_:
            return False
        if prog.expect is not None and prog.expect.at is not None:
            return g.typecheck.sec_check(prog.tvars, prog.vars, prog.body, prog.expect.at)[0]
        return True

    def _check_pass(self, checks: list[tuple[float, float]] | None = None) -> int:
        """Failures of one typing-only corpus pass; appends each file's
        check (start, seconds) to `checks`."""
        failed = 0
        for (_, text), want in zip(self.sources, self.accept):
            t0 = clock()
            got = self._accepts(text)
            if checks is not None:
                checks.append((t0, clock() - t0))
            failed += got != want
        return failed

    def _laws(self, t) -> list[bool]:
        """Criterion 5's laws: reflexivity; fold/unfold and symmetry;
        transitivity along the unfolding chain."""
        equiv, unfold = self.g.algebra.type_equiv, self.g.algebra.unfold
        out = [equiv(t, t)]
        if isinstance(t, self.g.syntax.ObjType):
            u = unfold(t)
            out += [equiv(t, u), equiv(u, t)]
            uu = unfold(u)
            out += [equiv(u, uu), equiv(t, uu)]
        return out

    def _goals(self, first: int, count: int) -> tuple[list[bool], list[bool]]:
        """(answers, expected) for `count` goals from position `first`."""
        sub_type, sigma = self.g.subtyping.sub_type, self.g.syntax.EMPTY_SIGMA
        m = len(self.universe)
        picks = [divmod(self.goals[(first + k) % len(self.goals)], m) for k in range(count)]
        got = [sub_type({}, sigma, self.universe[i], self.universe[j]) for i, j in picks]
        return got, [self.answers[i][j] == "1" for i, j in picks]

    def measure(self, seconds: float) -> Result:
        host = HostSpeed()
        pass_s: list[float] = []
        checks: list[tuple[float, float]] = []  # (start, seconds) of each file check
        law_chunks: list[tuple[float, float]] = []
        goal_chunks: list[tuple[float, float]] = []
        laws = goals = samples_used = 0
        failed = attempted = 0
        start = clock()
        while not pass_s or clock() - start < seconds:
            host.tick()
            t0 = clock()
            bad = self._check_pass(checks)
            pass_s.append(clock() - t0)
            failed += bad
            attempted += len(self.sources)

            chunk = [self.samples[(samples_used + k) % self.SAMPLES] for k in range(self.LAW_CHUNK)]
            samples_used += self.LAW_CHUNK
            host.tick()
            t0 = clock()
            held = [self._laws(t) for t in chunk]
            law_chunks.append((t0, clock() - t0))
            for h in held:
                laws += len(h)
                attempted += len(h)
                failed += h.count(False)

            host.tick()
            t0 = clock()
            got, want = self._goals(goals, self.GOAL_CHUNK)
            goal_chunks.append((t0, clock() - t0))
            goals += self.GOAL_CHUNK
            attempted += len(got)
            failed += sum(a != b for a, b in zip(got, want))
        file_s = [dt for _, dt in checks]
        law_s = sum(dt for _, dt in law_chunks)
        goal_s = sum(dt for _, dt in goal_chunks)
        file_ref = host.in_ref(checks)
        law_ref = sum(host.in_ref(law_chunks))
        goal_ref = sum(host.in_ref(goal_chunks))
        # Per-file times spread over many distinct costs, so their median
        # moves smoothly as the machine's speed varies; the pass time, one
        # fixed cost, jumps between the machine's fast and slow states.
        p50, tail_ms, samples = latency("check_file", file_s, 1e3)
        p50_ref, tail_ref, _ = latency("check_file", file_ref)
        samples.update(check_passes=len(pass_s), law_checks=laws, law_samples=samples_used,
                       sample_pool=self.SAMPLES, goals=goals)
        return Result(
            measured={
                "p50_ms": p50,
                "tail_ms": tail_ms,
                "ops_per_s": laws / law_s,
                "steps_per_s": goals / goal_s,
            },
            in_ref={
                "p50_ref": p50_ref,
                "tail_ref": tail_ref,
                "ops_per_ref": laws / law_ref,
                "steps_per_ref": goals / goal_ref,
            },
            named={
                "check_pass_ms": (statistics.median(pass_s) * 1e3, "ms"),
                "check_file_p50_ms": (p50, "ms"),
                "check_file_tail_ms": (tail_ms, "ms"),
                "equiv_laws_per_s": (laws / law_s, "1/s"),
                "subtype_goals_per_s": (goals / goal_s, "1/s"),
            },
            host=host,
            attempted=attempted,
            failed=failed,
            samples=samples,
            seeds={"goal_order_first": self.goals[:8]},
        )

    def unit(self) -> tuple[int, int]:
        """One check pass, UNIT_SAMPLES law samples and UNIT_GOALS goals."""
        failed = self._check_pass()
        held = [ok for t in self.samples[: self.UNIT_SAMPLES] for ok in self._laws(t)]
        got, want = self._goals(0, self.UNIT_GOALS)
        failed += held.count(False) + sum(a != b for a, b in zip(got, want))
        return len(self.sources) + len(held) + len(got), failed


WORKLOADS = {w.name: w for w in (CorpusPrni, FuzzEval, Typing)}

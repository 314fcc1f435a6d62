"""Acceptance suite: one test per shipped claim, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`).

1. The corpus reproduces every published typing judgment exactly.
2. Safety fuzzing: 10,000 generated well-typed terms never get stuck.
3. Security soundness, differentially: no secure corpus program is
   refuted; every insecure one is, within 1000 input pairs.
4. Algorithmic subtyping agrees with the declarative-search oracle on an
   exhaustive small universe, up to a documented one-directional gap.
5. Type equivalence: the published examples and the equivalence laws on
   10,000 random samples.
6. The auxiliary-function tables: bounds, membership, signatures, result
   declassification, and signature soundness on their pinned values.
7. Determinism: seeded runs are byte-identical; parallel and serial
   corpus runs agree.
"""

from __future__ import annotations

import concurrent.futures
import json
import random
import time


from gobsec.algebra import (
    has_method,
    msig,
    rdecl,
    soundsig,
    type_equiv,
    unfold,
    upper_bound,
)
from gobsec.cli import corpus_dir, run_corpus_file
from gobsec.interp import Stuck, evaluate, gen_welltyped
from gobsec.subtyping import declarative_oracle, sub_type
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
    canon,
    free_self_vars,
    public,
)

from conftest import (
    BOOL,
    INT,
    STR_FST_LEN,
    STRING,
    STRING_EQ,
    STRING_EQ_BAD,
    STRING_LEN,
    UNIT_T,
    depth2_universe,
    gsig,
    random_closed_type,
)

SEED = 42


def _report(criterion: str, ok: bool, detail: str, elapsed: float) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"{mark} {criterion}: {detail} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Corpus typing verdicts
# ---------------------------------------------------------------------------

# Files pinned to the published judgments they reproduce.
_REQUIRED_FILES = {
    "login.gobsec": "secure",
    "login_leak.gobsec": "illtyped",
    "login_hash.gobsec": "secure",
    "list_cons.gobsec": "secure",
    "list_concat.gobsec": "secure",
    "list_contains.gobsec": "secure",
    "list_concat_mixed.gobsec": "secure",
    "sec_len.gobsec": "secure",
    "leak_first.gobsec": "insecure",
    "subject_len.gobsec": "secure",
    "subject_fst.gobsec": "insecure",
    "prim_eq.gobsec": "secure",
    "prim_eq_high.gobsec": "secure",
    "prim_eq_decl.gobsec": "secure",
    "prim_concat_high.gobsec": "secure",
    "wf_eq_bad.gobsec": "illtyped",
    "wf_bool_int.gobsec": "illtyped",
}


def test_criterion_1_corpus_typing_verdicts():
    t0 = time.monotonic()
    files = sorted(corpus_dir().glob("*.gobsec"))
    assert len(files) >= 14
    results = [run_corpus_file(p, SEED, typing_only=True) for p in files]
    failed = [r for r in results if not r.passed]
    by_name = {r.file: r for r in results}
    for name, kind in _REQUIRED_FILES.items():
        assert name in by_name, f"required corpus file {name} is missing"
        assert by_name[name].expect == kind, name
    elapsed = time.monotonic() - t0
    ok = not failed and elapsed < 5.0
    _report(
        "criterion-1 corpus-typing",
        ok,
        f"{len(results) - len(failed)}/{len(results)} files match",
        elapsed,
    )
    assert not failed, failed
    assert elapsed < 5.0, f"typing corpus took {elapsed:.1f}s (limit 5s)"


# ---------------------------------------------------------------------------
# 2. Safety fuzzing
# ---------------------------------------------------------------------------


def test_criterion_2_safety_fuzz():
    t0 = time.monotonic()
    stuck = []
    for seed in range(10_000):
        _, e, _ = gen_welltyped(seed)
        out = evaluate(e, fuel=10_000)
        if isinstance(out, Stuck):
            stuck.append((seed, out.reason))
    elapsed = time.monotonic() - t0
    ok = not stuck and elapsed < 300.0
    _report("criterion-2 safety-fuzz", ok, f"10000 terms, {len(stuck)} stuck", elapsed)
    assert not stuck, stuck[:3]
    assert elapsed < 300.0, f"fuzzing took {elapsed:.1f}s (limit 300s)"


# ---------------------------------------------------------------------------
# 3. Security soundness, differentially
# ---------------------------------------------------------------------------


def test_criterion_3_differential_corpus():
    t0 = time.monotonic()
    files = sorted(corpus_dir().glob("*.gobsec"))
    results = [run_corpus_file(p, SEED, typing_only=False, pairs=1000) for p in files]
    failed = [r for r in results if not r.passed]
    insecure = [r for r in results if r.expect == "insecure"]
    elapsed = time.monotonic() - t0
    ok = not failed and len(insecure) >= 4 and elapsed < 600.0
    _report(
        "criterion-3 differential",
        ok,
        f"{len(results) - len(failed)}/{len(results)} verdicts, {len(insecure)} insecure programs refuted",
        elapsed,
    )
    assert not failed, [(r.file, r.detail) for r in failed]
    assert len(insecure) >= 4
    assert elapsed < 600.0, f"differential corpus took {elapsed:.1f}s (limit 600s)"


# ---------------------------------------------------------------------------
# 4. Subtyping oracle agreement
# ---------------------------------------------------------------------------


def _mentions_recursion(t) -> bool:
    return isinstance(t, ObjType) and any(
        free_self_vars(ObjType("x", ((m, s),))) for m, s in t.methods
    )


def test_criterion_4_oracle_agreement():
    t0 = time.monotonic()
    universe = depth2_universe()
    nodes = list(universe)
    seen = {canon(t) for t in universe}
    for t in universe:
        if isinstance(t, ObjType) and t.methods:
            u = unfold(t)
            if canon(u) not in seen:
                seen.add(canon(u))
                nodes.append(u)
    memo: dict = {}
    n = len(nodes)
    base = [[False] * n for _ in range(n)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            base[i][j] = declarative_oracle({}, EMPTY_SIGMA, a, b, budget=8, pool=(), memo=memo)
    # Explicit transitivity, computed exactly as reachability over the
    # single-rule edges through the universe.
    adj = [[j for j in range(n) if base[i][j]] for i in range(n)]
    reach = []
    for i in range(n):
        vis = [False] * n
        vis[i] = True
        stack = [i]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not vis[y]:
                    vis[y] = True
                    stack.append(y)
        reach.append(vis)
    oracle_exceeds: list = []
    known_gaps: list = []
    m = len(universe)
    for i in range(m):
        for j in range(m):
            alg = sub_type({}, EMPTY_SIGMA, universe[i], universe[j])
            orc = reach[i][j]
            if alg == orc:
                continue
            if orc and not alg:
                oracle_exceeds.append((i, j))
            else:
                known_gaps.append((i, j))
    # Documented gap: the algorithm decides subtyping coinductively
    # (assume-on-revisit), so on recursive types whose relatedness needs
    # the goal itself (or a bare self variable below the empty interface),
    # it derives strictly more than the declarative system's finite trees.
    # Every disagreement must be of that one shape.
    gap_ok = all(
        _mentions_recursion(universe[i]) or _mentions_recursion(universe[j])
        for i, j in known_gaps
    )
    elapsed = time.monotonic() - t0
    total = m * m
    agreeing = total - len(known_gaps) - len(oracle_exceeds)
    ok = not oracle_exceeds and gap_ok and elapsed < 60.0
    _report(
        "criterion-4 oracle",
        ok,
        f"{agreeing}/{total} pairs agree; {len(known_gaps)} documented coinduction gaps; "
        f"{len(oracle_exceeds)} derivations missed by the algorithm",
        elapsed,
    )
    assert not oracle_exceeds, oracle_exceeds[:5]
    assert gap_ok
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s (limit 60s)"


# ---------------------------------------------------------------------------
# 5. Type equivalence
# ---------------------------------------------------------------------------


def test_criterion_5_type_equivalence():
    t0 = time.monotonic()

    def mk(b, x, arg_top):
        sv = SelfVar(b)
        arg = public(TOP) if arg_top else Faceted(sv, sv)
        sig = GenericSig((TParam(x, sv, TOP),), (arg,), Faceted(sv, sv))
        return ObjType(b, (("m", sig),))

    # Published example 1: binder renaming.
    assert type_equiv(mk("alpha", "X", False), mk("beta", "X", False))
    # Published example 2: one-level unfolding with renamed inner binders.
    outer = mk("alpha", "X", True)
    inner = mk("beta", "Y", True)
    unfolded = ObjType(
        "alpha",
        (
            (
                "m",
                GenericSig(
                    (TParam("X", SelfVar("alpha"), TOP),),
                    (public(TOP),),
                    Faceted(inner, inner),
                ),
            ),
        ),
    )
    assert type_equiv(outer, unfolded)

    rng = random.Random(SEED)
    renames = 0
    for i in range(10_000):
        t = random_closed_type(rng, 2)
        assert type_equiv(t, t)  # reflexivity
        if isinstance(t, ObjType):
            u = unfold(t)
            assert type_equiv(t, u)  # fold/unfold law
            assert type_equiv(u, t)  # symmetry
            uu = unfold(u)
            assert type_equiv(u, uu)
            assert type_equiv(t, uu)  # transitivity along the chain
            renames += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _report(
        "criterion-5 equivalence",
        ok,
        f"published examples plus laws on 10000 samples ({renames} recursive)",
        elapsed,
    )
    assert elapsed < 60.0, f"equivalence laws took {elapsed:.1f}s (limit 60s)"


# ---------------------------------------------------------------------------
# 6. Auxiliary-function tables
# ---------------------------------------------------------------------------


def test_criterion_6_unit_tables():
    t0 = time.monotonic()
    # Result declassification.
    assert rdecl(Faceted(INT, INT), "Bool") == BOOL
    assert canon(rdecl(Faceted(STRING, STRING_EQ), "Bool")) == canon(TOP)
    assert rdecl(Faceted(UNIT_T, UNIT_T), "Int") == INT
    # Signature soundness.
    assert soundsig(gsig([public(STRING)], public(BOOL)))  # public argument
    assert not soundsig(STRING_EQ_BAD.sig("eq"))  # private arg, public result
    # Bounds and membership.
    assert upper_bound({}, STRING) == STRING
    assert upper_bound({"X": (STR_FST_LEN, STRING_LEN)}, TypeVar("X")) == STRING_LEN
    assert has_method({}, STRING_LEN, "length")
    assert not has_method({}, STRING_LEN, "eq")
    assert has_method({"X": (STRING, STRING_EQ)}, TypeVar("X"), "eq")
    # Signatures.
    assert msig({}, STRING_LEN, "length") == gsig([public(UNIT_T)], public(INT))
    assert msig({}, STRING, "eq") == PrimSig(("String",), "Bool")
    elapsed = time.monotonic() - t0
    _report("criterion-6 unit-tables", True, "all pinned table values match", elapsed)


# ---------------------------------------------------------------------------
# 7. Determinism
# ---------------------------------------------------------------------------


def test_criterion_7_determinism():
    t0 = time.monotonic()
    from click.testing import CliRunner

    from gobsec.cli import main

    runner = CliRunner()
    leak = corpus_dir() / "leak_first.gobsec"
    args = ["prni", str(leak), "--observe", "String!", "--seed", "7", "--json"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2 and json.loads(out1)["verdict"] == "counterexample"

    files = sorted(corpus_dir().glob("*.gobsec"))
    serial = [run_corpus_file(p, SEED, typing_only=False, pairs=150).to_dict() for p in files]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        parallel = sorted(
            (r.to_dict() for r in pool.map(lambda p: run_corpus_file(p, SEED, typing_only=False, pairs=150), files)),
            key=lambda d: d["file"],
        )
    serial = sorted(serial, key=lambda d: d["file"])
    elapsed = time.monotonic() - t0
    ok = serial == parallel
    _report("criterion-7 determinism", ok, "seeded runs byte-identical; parallel == serial", elapsed)
    assert serial == parallel

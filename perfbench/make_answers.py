"""Regenerate the known answers the benchmark checks against.

    python3 perfbench/make_answers.py [fuzz|subtype ...]

* `answers/fuzz_reference.txt`: for each generator seed in the fuzz pool,
  the outcome class, contraction count and value of the generated term,
  computed by iterating the reference small-step `interp.step` (not
  `interp.evaluate`), after the same surface erasure `evaluate` applies.
* `answers/subtype_universe.txt`: `sub_type` on every ordered pair of
  criterion 4's universe, written only after the same validation against
  `declarative_oracle` that acceptance criterion 4 performs.

Run it only when the specification itself changes: the files are the
yardstick faster engines are held to.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from gobsec import algebra, interp, subtyping, syntax  # noqa: E402

from workloads import FUZZ_REFERENCE, SUBTYPE_UNIVERSE, FuzzEval, outcome_key, subtype_universe  # noqa: E402


def reference_outcome(e, fuel: int):
    """Drive `interp.step` to a value, a stuck state or the fuel limit,
    classifying as `interp.evaluate` documents."""
    e = interp.erase_surface(e)
    steps = 0
    while steps < fuel:
        try:
            nxt = interp.step(e)
        except interp.StuckError as ex:
            return interp.Stuck(ex.redex, ex.reason, steps)
        if nxt is None:
            return interp.Value(e, steps)
        e = nxt
        steps += 1
    if syntax.is_value(e):
        return interp.Value(e, steps)
    return interp.Timeout(steps)


def make_fuzz() -> None:
    lines = [f"# seed outcome steps value: gen_welltyped(seed) under interp.step, fuel {FuzzEval.FUEL}"]
    for seed in range(FuzzEval.POOL):
        _, e, _ = interp.gen_welltyped(seed)
        kind, steps, value = outcome_key(reference_outcome(e, FuzzEval.FUEL))
        if kind == "Stuck":
            raise SystemExit(f"generator seed {seed} gets stuck: the type-safety property fails")
        lines.append(f"{seed} {kind} {steps} {value}")
    FUZZ_REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mentions_recursion(t) -> bool:
    return isinstance(t, syntax.ObjType) and any(
        syntax.free_self_vars(syntax.ObjType("x", ((m, s),))) for m, s in t.methods
    )


def make_subtype() -> None:
    universe = subtype_universe(syntax)
    nodes = list(universe)
    seen = {syntax.canon(t) for t in universe}
    for t in universe:
        if isinstance(t, syntax.ObjType) and t.methods:
            u = algebra.unfold(t)
            if syntax.canon(u) not in seen:
                seen.add(syntax.canon(u))
                nodes.append(u)
    memo: dict = {}
    n = len(nodes)
    adj = [
        [j for j, b in enumerate(nodes) if subtyping.declarative_oracle({}, syntax.EMPTY_SIGMA, a, b, budget=8, pool=(), memo=memo)]
        for a in nodes
    ]
    m = len(universe)
    rows = []
    for i in range(m):
        reach = [False] * n
        reach[i] = True
        stack = [i]
        while stack:
            for y in adj[stack.pop()]:
                if not reach[y]:
                    reach[y] = True
                    stack.append(y)
        row = ""
        for j in range(m):
            alg = subtyping.sub_type({}, syntax.EMPTY_SIGMA, universe[i], universe[j])
            if reach[j] and not alg:
                raise SystemExit(f"sub_type misses the oracle's derivation for pair {i},{j}")
            if alg and not reach[j] and not (_mentions_recursion(universe[i]) or _mentions_recursion(universe[j])):
                raise SystemExit(f"sub_type derives {i},{j} outside the documented coinduction gap")
            row += "1" if alg else "0"
        rows.append(row)
    header = (
        f"# sub_type(universe[i], universe[j]) for criterion 4's {m} types, row i, column j; "
        f"{sum(r.count('1') for r in rows)} true of {m * m}, validated against declarative_oracle"
    )
    SUBTYPE_UNIVERSE.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


if __name__ == "__main__":
    targets = sys.argv[1:] or ["fuzz", "subtype"]
    SUBTYPE_UNIVERSE.parent.mkdir(exist_ok=True)
    for target in targets:
        {"fuzz": make_fuzz, "subtype": make_subtype}[target]()
        print(f"wrote {target}")

"""The summary that scripts/bench_pairs.py writes, on fixed numbers."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(exit_code, ops, p50, law_samples, failed=0):
    return {
        "exit": exit_code,
        "detail": {"samples": {"law_samples": law_samples, "sample_pool": 8000}},
        "result": {
            "attempted": 100,
            "failed": failed,
            "metrics": {"ops_per_ref": {"value": ops}, "p50_ref": {"value": p50}},
        },
    }


def test_summary_of_fixed_pairs():
    parent_ops = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_ops = [4.0, 1.0, 9.0, 12.0, 15.0]  # loses the second pair
    parent_p50 = [1.0, 1.0, 1.0, 1.0, 1.0]
    change_p50 = [1.5, 1.5, 0.5, 1.5, 1.5]  # wins only the third pair
    pairs = [
        {
            "seed": 10 + k,
            "parent": _run(0, parent_ops[k], parent_p50[k], 80),
            "change": _run(1 if k == 4 else 0, change_ops[k], change_p50[k], 320, failed=int(k == 4)),
        }
        for k in range(5)
    ]
    got = bench_pairs.summarize(pairs, {"ops_per_ref": "higher", "p50_ref": "lower"})

    assert got["pairs"] == 5
    assert got["seeds"] == [10, 11, 12, 13, 14]
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["attempted"] == {"parent": 500, "change": 500}
    assert got["exit_codes"] == [0, 1]
    assert got["law_samples"] == {"parent": [80] * 5, "change": [320] * 5}
    assert got["sample_pool"] == 8000

    ops = got["metrics"]["ops_per_ref"]
    # Inclusive quartiles of 1..5 are 2, 3, 4; of 1, 4, 9, 12, 15 are 4, 9, 12.
    assert ops["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert ops["change"] == {"q1": 4.0, "median": 9.0, "q3": 12.0}
    assert ops["change_over_parent"] == 3.0
    assert ops["change_wins"] == 4
    assert ops["parent_iqr"] == 2.0
    assert ops["worse_by"] == -2.0
    assert ops["better"] == "higher"

    p50 = got["metrics"]["p50_ref"]
    assert p50["change"]["median"] == 1.5
    assert p50["change_over_parent"] == 1.5
    assert p50["change_wins"] == 1
    assert p50["parent_iqr"] == 0.0
    assert p50["worse_by"] == 0.5


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("1101-1104") == [1101, 1102, 1103, 1104]
    assert bench_pairs.parse_seeds("3,5,9") == [3, 5, 9]

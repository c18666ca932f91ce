"""Verdicts of `scripts/bench_pairs.py`'s summary of parent/change pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def pairs(parent, change, failed=(0, 0)):
    return [{"seed": k,
             "parent": {"exit": 0, "attempted": 10, "failed": failed[0] if k == 0 else 0,
                        "wall_s": p},
             "change": {"exit": 0, "attempted": 10, "failed": failed[1] if k == 0 else 0,
                        "wall_s": c}}
            for k, (p, c) in enumerate(zip(parent, change))]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
FASTER = [0.70, 0.71, 0.69, 0.72, 0.68, 0.70, 0.71, 0.69, 0.70, 0.72]


@pytest.mark.parametrize("case, verdict", [
    (pairs(PARENT, FASTER), "better"),
    (pairs(PARENT[:9], FASTER[:9]), "within bound"),  # fewer than 10 pairs ran
    (pairs(PARENT, FASTER, failed=(0, 1)), "within bound"),  # the change failed more ops
    (pairs(PARENT, [p * 1.3 for p in PARENT]), "worse than bound"),
    (pairs([0.5, 1.5] * 5, [1.0] * 10), "unresolved"),  # parent spread 1.0 > bound 0.25
    (pairs([0.5, 1.5] * 5, [0.45, 1.4] * 5), "unresolved"),  # every pair won, not every run
    (pairs([0.5, 1.5] * 5, [0.4] * 10), "within bound"),  # every run beats every parent run
], ids=["ten_pairs_won", "nine_pairs", "more_failed_ops", "slower", "wide_parent_spread",
        "wide_spread_pairs_won", "wide_spread_runs_beaten"])
def test_summary_verdicts(case, verdict):
    summary = bench_pairs.summarise(case, [WALL])
    assert summary["wall_s"]["verdict"] == verdict
    assert summary["ops"]["failed"] == {"parent": case[0]["parent"]["failed"],
                                        "change": case[0]["change"]["failed"]}


def test_first_seed_is_required():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--out", "unused.json"])

"""The pair summary of scripts/bench_pairs.py, on fixed numbers."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = bench_pairs  # dataclasses resolve annotations through it
_SPEC.loader.exec_module(bench_pairs)

PARENT = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]


def test_medians_quartiles_and_wins():
    s = bench_pairs.summarize(PARENT, [1.5] * 9 + [3.0])
    # exclusive quartiles of ten values sit at ranks 2.75, 5.5 and 8.25
    assert s.parent == pytest.approx((2.175, 2.45, 2.725))
    assert s.change == (1.5, 1.5, 1.5)
    assert (s.wins, s.pairs) == (9, 10)
    assert s.claim  # 9 of 10, and a gap of 0.95 against a spread of 0.55


@pytest.mark.parametrize("change,reason", [
    ([1.5] * 8 + [3.0, 3.0], "8 of 10 wins"),
    ([p - 0.5 for p in PARENT], "a gap of 0.5 inside the spread of 0.55"),
    ([1.5] * 8 + [2.8, 2.9], "a tie is no win: 8 of 10"),
])
def test_claim_rule_fails(change, reason):
    assert not bench_pairs.summarize(PARENT, change).claim, reason


def test_fewer_than_ten_pairs_make_no_claim():
    s = bench_pairs.summarize(PARENT[:9], [1.0] * 9)
    assert s.wins == 9 and not s.claim


def test_higher_is_better_flips_the_wins():
    s = bench_pairs.summarize(PARENT, [4.0] * 10, better="higher")
    assert s.wins == 10 and s.claim
    assert bench_pairs.summarize(PARENT, [4.0] * 10).wins == 0


def test_a_single_pair_has_its_value_for_quartiles():
    assert bench_pairs.summarize([2.0], [1.0]).parent == (2.0, 2.0, 2.0)


@pytest.mark.parametrize("better,change,regressed", [
    # the parent's median is 2.45; a 10 % bound flags a median beyond 2.695 (lower
    # is better) or below 2.205 (higher is better)
    ("lower", [2.69] * 10, False),
    ("lower", [2.70] * 10, True),
    ("higher", [2.21] * 10, False),
    ("higher", [2.20] * 10, True),
])
def test_a_median_worse_by_more_than_the_bound_is_flagged(better, change, regressed):
    s = bench_pairs.summarize(PARENT, change, better, bound=0.1)
    assert s.regressed is regressed
    assert not s.claim


def test_without_a_bound_nothing_is_flagged():
    assert not bench_pairs.summarize(PARENT, [100.0] * 10).regressed

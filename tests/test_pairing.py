"""Regular-pairing sampler tests: structure, frequency, determinism, errors."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btevolve import pairing
from btevolve.errors import PairingError
from btevolve.pairing import PairingPlan, sample_pairing


def check_simple_regular(plan: PairingPlan, n: int, k: int):
    degrees = Counter()
    seen = set()
    for a, b in plan.pairs:
        assert 0 <= a < b < n  # canonical order implies no self-pairs
        assert (a, b) not in seen
        seen.add((a, b))
        degrees[a] += 1
        degrees[b] += 1
    assert len(plan.pairs) == n * k // 2
    assert all(degrees[i] == k for i in range(n))
    assert list(plan.pairs) == sorted(plan.pairs)


def test_thousand_samples_regular_and_frequency_balanced():
    n, k = 20, 4
    pair_counts = Counter()
    for seed in range(1000):
        plan = sample_pairing(n, k, seed)
        check_simple_regular(plan, n, k)
        pair_counts.update(plan.pairs)
    expected = 1000 * k / (n - 1)  # each unordered pair has marginal k/(n-1)
    low, high = 0.7 * expected, 1.3 * expected
    assert len(pair_counts) == n * (n - 1) // 2  # every pair shows up at all
    worst_low = min(pair_counts.values())
    worst_high = max(pair_counts.values())
    assert low <= worst_low and worst_high <= high, (worst_low, worst_high, expected)


def test_dense_degrees_sample_quickly():
    for n, k in ((20, 10), (20, 19), (12, 10), (8, 7), (4, 3)):
        check_simple_regular(sample_pairing(n, k, 123), n, k)
    complete = sample_pairing(6, 5, 0)
    assert set(complete.pairs) == {(i, j) for i in range(6) for j in range(i + 1, 6)}


def test_plan_orientation_shows_every_member_first_in_half_its_pairs():
    # every feasible degree at n <= 12, odd ones through the extra member
    for n in range(2, 13):
        for k in range(1, n):
            if n * k % 2:
                continue
            for seed in range(20):
                plan = sample_pairing(n, k, seed)
                orders = pairing._left_first(plan.pairs, n)
                assert len(orders) == len(plan.pairs) and all(type(first) is bool for first in orders)
                firsts = Counter(left if first else right for (left, right), first in zip(plan.pairs, orders))
                assert all(firsts[i] in (k // 2, (k + 1) // 2) for i in range(n)), (n, k, seed)
                assert pairing._left_first(plan.pairs, n) == orders


def test_odd_stub_count_rejected():
    with pytest.raises(ValueError):
        sample_pairing(5, 3, 0)
    with pytest.raises(ValueError):
        sample_pairing(3, 1, 0)


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        sample_pairing(6, 0, 0)
    with pytest.raises(ValueError):
        sample_pairing(6, 6, 0)
    with pytest.raises(ValueError):
        sample_pairing(1, 1, 0)


def test_restart_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(pairing, "RESTART_BUDGET", 0)
    with pytest.raises(PairingError, match="n=20 within 0 restarts"):
        sample_pairing(20, 4, 0)


def test_same_seed_same_plan():
    a = sample_pairing(16, 5, 99)
    b = sample_pairing(16, 5, 99)
    assert a == b
    c = sample_pairing(16, 5, 100)
    assert c.pairs != a.pairs  # overwhelmingly likely for a healthy sampler


@given(st.integers(2, 24), st.data())
@settings(max_examples=80, deadline=None)
def test_any_feasible_degree_yields_simple_regular_graph(n, data):
    k = data.draw(st.integers(1, n - 1))
    if (n * k) % 2 != 0:
        k -= 1  # nudge to the nearest feasible degree
    if k < 1:
        return
    seed = data.draw(st.integers(0, 2**32 - 1))
    check_simple_regular(sample_pairing(n, k, seed), n, k)

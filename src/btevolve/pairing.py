"""Random k-regular comparison schedules.

Every candidate is matched with exactly k distinct peers, no self-pairs and
no duplicate pairs.  Sampling pairs half-edge stubs uniformly (configuration
model); colliding stubs are requeued and reshuffled rather than throwing the
whole sample away, with a full restart only when no valid edge can absorb
the leftovers.  Dense schedules (k close to n-1) are routinely needed for
the final selection round, and pure full-sample rejection cannot produce
them in any realistic number of tries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import PairingError

RESTART_BUDGET = 10_000


@dataclass(frozen=True)
class PairingPlan:
    """A sampled schedule: unordered index pairs, canonically sorted."""

    pairs: tuple[tuple[int, int], ...]


def _suitable(edges: set, potential: dict) -> bool:
    # True if at least one requeued stub pair can still form a new edge.
    nodes = list(potential)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if (min(u, v), max(u, v)) not in edges:
                return True
    return False


def _pair_stubs(n: int, k: int, rng: np.random.Generator):
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * k
    while True:  # each pass returns or leaves unpaired stubs for the next
        potential: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        it = iter(stubs)
        for a, b in zip(it, it):
            if a > b:
                a, b = b, a
            if a != b and (a, b) not in edges:
                edges.add((a, b))
            else:
                potential[a] += 1
                potential[b] += 1
        if not potential:
            return edges
        if not _suitable(edges, potential):
            return None  # stuck: remaining stubs only form loops or duplicates
        stubs = [node for node, count in potential.items() for _ in range(count)]


def sample_pairing(n: int, k: int, seed: int) -> PairingPlan:
    """Sample a simple k-regular pairing of n candidates, deterministic in seed.

    Raises ValueError when no such graph exists (k out of range or n*k odd)
    and PairingError if RESTART_BUDGET restarts find none.
    """
    if n < 2:
        raise ValueError("need at least two candidates to pair")
    if not 1 <= k <= n - 1:
        raise ValueError(f"degree k={k} out of range for n={n}")
    if (n * k) % 2 != 0:
        raise ValueError(f"no {k}-regular pairing exists on {n} candidates: n*k is odd")
    rng = np.random.default_rng(seed)
    for _ in range(RESTART_BUDGET):
        edges = _pair_stubs(n, k, rng)
        if edges is not None:
            return PairingPlan(tuple(sorted(edges)))
    raise PairingError(f"no simple {k}-regular pairing found for n={n} within {RESTART_BUDGET} restarts")


def _left_first(pairs, n: int) -> list[bool]:
    """For each of a k-regular plan's `pairs`, (left, right) index tuples
    below n, whether left is shown first: every member is first in
    floor(k/2) or ceil(k/2) of its pairs, in exactly k/2 at even k.

    The pairs are walked as closed trails and each is shown first on the
    side it is walked from, so a trail leaves every member as often as it
    enters it.  At odd k every member is first paired with one extra member
    n too, so that every degree is even and such trails cover every pair.
    """
    neighbours = [[] for _ in range(n + 1)]
    for left, right in [*pairs, *[(i, n) for i in range(n)] * (2 * len(pairs) // n % 2)]:
        neighbours[left].append(right)
        neighbours[right].append(left)
    shown = set()  # (first, second) of each pair walked
    for at in range(n + 1):
        # at an even-degree member, a trail can only get stuck where it started
        while neighbours[at]:
            neighbours[other := neighbours[at].pop()].remove(at)
            shown.add((at, other))
            at = other
    return [pair in shown for pair in pairs]


"""The seed scheme: a numpy SeedSequence child seed for every random draw.

Every randomized step of a run draws from derive_seed(root, round, purpose,
index...), so no result depends on scheduling order.  Sampling is round 0,
the evolution rounds are 1..t and the final comparison round is t+1.  The
batched functions replay SeedSequence (`_seed_state`) and PCG64's seeding
(`pcg64_seeds`) bit for bit on numpy arrays, one row per seed, from entropy
parts as `_entropy` takes them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigError

# purpose codes for seed derivation; part of the documented scheme above
_P_SAMPLE = 0
_P_PAIRING = 1
_P_ORDER = 2
_P_JUDGE = 3
_P_RETRY = 4
_P_MUTATE = 5


def derive_seed(root: int, *path: int) -> int:
    """Child seed for (root, round, purpose, index...), stable across platforms."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1, np.uint64)[0])


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), replayed by _seed_state
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16


@functools.lru_cache(maxsize=None)
def _hash_chain(start: int, mult: int, count: int) -> np.ndarray:
    """start, start*mult, start*mult**2, ... modulo 2**32, as a (count, 1) column."""
    chain = [start]
    for _ in range(count - 1):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Consecutive hashmix calls, one per row of the result: row r xors with
    consts[r] and multiplies by consts[r + 1]; `values` broadcasts over rows."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words `x` with hashed words `y`, element by element."""
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def _entropy_words(value) -> list[int]:
    """An entropy integer as SeedSequence splits it: little-endian 32-bit words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed path elements must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _entropy(*parts) -> np.ndarray:
    """The (words, rows) uint32 entropy array of SeedSequence([*parts]) for each row.

    A part is a shared non-negative int, split into words as SeedSequence
    splits it, or a 1-D integer numpy column of one word per row in [0, 2**32).
    """
    words = []
    for part in parts:
        if isinstance(part, np.ndarray):
            in_range = part.size == 0 or 0 <= part.min() <= part.max() <= _MASK32
            if part.ndim != 1 or part.dtype.kind not in "iu" or not in_range:
                raise ValueError("a seed column must be a 1-D integer array of values in [0, 2**32)")
            words.append(part)
        else:
            words.extend(_entropy_words(part))
    return np.array(np.broadcast_arrays(*words), dtype=np.uint32)


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, uint32) for every column
    of a (words, rows) uint32 entropy array, as an (n_words, rows) array.

    Replays the entropy mixing on all rows at once, with the four pool lanes
    stacked so a batch costs a few dozen ufunc calls.  Every row's entropy
    has the same length; zero words past the end of an entropy shorter than
    the pool change nothing, as SeedSequence hashes zeros there.
    """
    rows = entropy.shape[1]
    # mixing calls hashmix 4 times to fill the pool, 12 times to mix it and 4
    # times per entropy word past the pool; call c uses constants c and c + 1
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, len(entropy) - _POOL_SIZE)
    consts = _hash_chain(_INIT_A, _MULT_A, calls + 1)

    with np.errstate(over="ignore"):
        # fill the pool with the first words, hashing zeros past the end of the entropy
        pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
        pool[: len(entropy)] = entropy[:_POOL_SIZE]
        pool = _hashmix(pool, consts[: _POOL_SIZE + 1])
        # every lane mixes into every other lane; a source lane is not
        # changed while it is mixed into the other three
        call = _POOL_SIZE
        for src in range(_POOL_SIZE):
            dst = [lane for lane in range(_POOL_SIZE) if lane != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[call : call + _POOL_SIZE]))
            call += _POOL_SIZE - 1
        # each remaining word mixes into all four lanes
        for word in entropy[_POOL_SIZE:]:
            pool = _mix(pool, _hashmix(word, consts[call : call + _POOL_SIZE + 1]))
            call += _POOL_SIZE
        # generate_state hashes the pool lanes in turn, cycling past the fourth
        lanes = pool[np.arange(n_words) % _POOL_SIZE]
        return _hashmix(lanes, _hash_chain(_INIT_B, _MULT_B, n_words + 1))


def _uint64_words(state: np.ndarray) -> np.ndarray:
    """Pairs of uint32 state rows read as uint64 rows, low word first."""
    return state[1::2].astype(np.uint64) << np.uint64(32) | state[0::2]


def derive_seeds(root: int, *parts) -> np.ndarray:
    """derive_seed(root, *row) for every row of the entropy parts, bit for bit, as uint64.

    `parts` follow `_entropy`: shared ints and numpy columns of words below
    2**32, so `derive_seeds(root, r, p, np.arange(n))[i]` is
    `derive_seed(root, r, p, i)`.  One `_seed_state` pass over every row.
    """
    return _uint64_words(_seed_state(_entropy(root, *parts), 2))[0]


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def pcg64_seeds(*parts) -> tuple[list[int], list[int]]:
    """PCG64's states and increments once seeded from SeedSequence([*row]),
    for every row of the entropy parts (as in `_entropy`), bit for bit.

    One `_seed_state` pass draws each row's generate_state(4, uint64): the
    seed's high and low halves, then the increment's.  PCG64's seeding
    (state = inc, then state = (state + seed) * M + inc) runs on Python ints.
    """
    high, low, inc_high, inc_low = _uint64_words(_seed_state(_entropy(*parts), 8)).tolist()
    incs = [(h << 65 | l << 1 | 1) & _MASK128 for h, l in zip(inc_high, inc_low)]
    states = [((inc + (h << 64 | l)) * _PCG_MULT + inc) & _MASK128 for h, l, inc in zip(high, low, incs)]
    return states, incs


def seed_uniforms(seeds) -> np.ndarray:
    """np.random.default_rng(s).random() for every seed in `seeds`, bit for bit.

    Every seed enters `pcg64_seeds` as two entropy words: a zero high word
    below 2**32 changes nothing, as SeedSequence hashes zeros past the end of
    its entropy.  Each generator's first step and XSL-RR output run on Python
    ints, and the top 53 bits give the double.  Seeds must lie in [0, 2**64).
    """
    values = [operator.index(s) for s in seeds]
    if values and not (min(values) >= 0 and max(values) <= _MASK64):
        raise ValueError("seeds must lie in [0, 2**64)")
    words = np.array(values, dtype=np.uint64)
    out = []
    for state, inc in zip(*pcg64_seeds(words & np.uint64(_MASK32), words >> np.uint64(32))):
        state = (state * _PCG_MULT + inc) & _MASK128
        folded = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out.append(((folded >> rot | folded << (64 - rot)) & _MASK64) >> 11)
    return np.array(out, dtype=np.float64) * 2.0**-53


@dataclass(frozen=True)
class RoundSeeds:
    """The seeds of one comparison round: derive_seed(root, round, purpose, i)
    for its pairing (i = 0), each pair's order and judge seeds, and each
    member's mutation seed (none in the final round).  `left_first[p]` is
    default_rng(order[p]).random() < 0.5."""

    pairing: int
    order: list[int]
    left_first: list[bool]
    judge: list[int]
    mutate: list[int]


def seed_schedule(root: int, n: int, k: int, generations: int, final_k: int) -> list[RoundSeeds]:
    """Every seed of rounds 1..generations+1 of a run, one RoundSeeds per round.

    Rounds 1..generations compare n*k/2 pairs and mutate n members; round
    generations+1 compares n*final_k/2 pairs.  All seeds come from one
    `derive_seeds` pass over every (round, purpose, index) column and all
    orders from one `seed_uniforms` call, bit-identical to `derive_seed` and
    `default_rng(order_seed).random()` per index.  A round or index of 2**32
    or more would take SeedSequence a second entropy word, so it raises
    ConfigError rather than build a column.
    """
    if generations + 1 > _MASK32 or max(n, n * k // 2, n * final_k // 2) > _MASK32 + 1:
        raise ConfigError("seed schedule: a round or index reaches 2**32")
    sizes = [(n * k // 2, n)] * generations + [(n * final_k // 2, 0)]
    purposes = (_P_PAIRING, _P_ORDER, _P_JUDGE, _P_MUTATE)
    counts = np.array([(1, pairs, pairs, mutations) for pairs, mutations in sizes]).ravel()
    starts = np.cumsum(counts) - counts
    purpose = np.tile(purposes, len(sizes)).repeat(counts)
    seeds = derive_seeds(
        root,
        np.arange(1, len(sizes) + 1).repeat(len(purposes)).repeat(counts),
        purpose,
        np.arange(counts.sum()) - starts.repeat(counts),
    )

    left_first = iter((seed_uniforms(seeds[purpose == _P_ORDER].tolist()) < 0.5).tolist())
    seeds = iter(seeds.tolist())
    # keyword arguments are evaluated in order, so each field takes the next columns
    return [
        RoundSeeds(
            pairing=next(seeds),
            order=list(islice(seeds, pairs)),
            left_first=list(islice(left_first, pairs)),
            judge=list(islice(seeds, pairs)),
            mutate=list(islice(seeds, mutations)),
        )
        for pairs, mutations in sizes
    ]

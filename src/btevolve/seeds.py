"""The seed scheme: the words of one SeedSequence per round, and scalar draws from a seed.

Every randomized step of a run draws from a word of
seed_words(root, round, count=...), numpy's SeedSequence([root, round])
stretched to `count` 64-bit words in one call, so no result depends on
scheduling order.  Sampling is round 0, whose word i seeds sample i; the
evolution rounds are 1..t and the final comparison round is t+1, and in each
of those word 0 seeds the pairing plan, word 1+i the mutation of member i
(unused in the final round) and word 1+n+p the judge call of pair p.  A
parse retry, which happens to few calls, draws derive_seed(root, round, 4,
pair, attempt), a word 0 of its own.  Which side of a pair is shown first is
not drawn: pairing.py orients each round's plan so that every member is
shown first in half of its pairs.  The batched functions replay
SeedSequence's hash (`_seed_state`) bit for bit on numpy arrays, one row per
seed, from entropy parts as `_entropy` takes them, for callers that need a
word of many sequences at once; `pcg64_generators` hands each row's words to
numpy's own PCG64, so the package replays no other numpy algorithm.  A step
that needs only a number or two from its seed, as each synthetic backend
call does, takes them from `seed_uniform`: draw d of a seed is a pure
function of (seed, d), with no generator built.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# the path element of a parse retry's seed, derive_seed(root, round, _P_RETRY, pair, attempt)
_P_RETRY = 4


def seed_words(root: int, *path: int, count: int) -> list[int]:
    """The first `count` 64-bit words of SeedSequence([root, *path]), as ints, in one call.

    Word i does not depend on `count`, so a prefix of a longer call is the
    shorter call.  Stable across platforms.
    """
    return np.random.SeedSequence([root, *path]).generate_state(count, np.uint64).tolist()


def derive_seed(root: int, *path: int) -> int:
    """Child seed of (root, *path): word 0 of seed_words(root, *path)."""
    return seed_words(root, *path, count=1)[0]


# SplitMix64 (Steele, Lea & Flood 2014): its increment and output function, over 64-bit words
_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def seed_uniform(seed, draw: int = 0) -> float:
    """Draw number `draw` (0, 1, ...) of `seed`: a double in [0, 1), a pure function of both.

    The seed, any non-negative integer (a numpy one draws what its int
    does), is folded to 64 bits: a seed below 2**64 is itself, and each
    higher 64-bit word is xored into one SplitMix64 step of the fold of the
    words below it.  The draw is SplitMix64's output function at the folded
    seed + (draw + 1) * gamma, modulo 2**64, with its top 53 bits read as a
    fraction.  A negative seed raises ValueError, as numpy's default_rng does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"a seed must be non-negative, got {seed}")
    folded = seed & _MASK64
    while seed := seed >> 64:
        folded = _mix64((folded + _GOLDEN_GAMMA) & _MASK64) ^ (seed & _MASK64)
    return (_mix64((folded + (draw + 1) * _GOLDEN_GAMMA) & _MASK64) >> 11) * 2.0**-53


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
    splits it, or a 1-D integer numpy column of one word per row in [0, 2**32);
    every column has the same length.
    """
    words, rows = [], set()
    for part in parts:
        if isinstance(part, np.ndarray):
            in_range = part.size == 0 or 0 <= part.min() <= part.max() <= _MASK32
            if part.ndim != 1 or part.dtype.kind not in "iu" or not in_range:
                raise ValueError("a seed column must be a 1-D integer array of values in [0, 2**32)")
            words.append(part)
            rows.add(len(part))
        else:
            words.extend(_entropy_words(part))
    if len(rows) > 1:
        raise ValueError(f"seed columns must have one length, got {sorted(rows)}")
    entropy = np.empty((len(words), *rows), dtype=np.uint32)
    for i, word in enumerate(words):
        entropy[i] = word
    return entropy


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


class _SeedWords(ISeedSequence):
    """One row of generate_state(4, uint64) words, handed to numpy's PCG64 as
    its SeedSequence: PCG64 seeds itself from that one call, and any other
    request raises ValueError, so a bit generator seeded another way fails."""

    def __init__(self, words: np.ndarray):
        self._words = words  # four C-contiguous uint64 words, in _uint64_words' order

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words answer generate_state(4, uint64) only, not ({n_words}, {np.dtype(dtype)})")
        return self._words


def pcg64_generators(*parts):
    """default_rng(SeedSequence([*row])) for every row of the entropy parts
    (as in `_entropy`), bit for bit, yielded row by row.

    One `_seed_state` pass draws every row's generate_state(4, uint64), and
    numpy's own PCG64 seeds itself from each row through `_SeedWords`.
    """
    words = np.ascontiguousarray(_uint64_words(_seed_state(_entropy(*parts), 8)).T)
    for row in words:
        yield np.random.Generator(np.random.PCG64(_SeedWords(row)))


@dataclass(frozen=True)
class RoundSeeds:
    """The seeds of one comparison round, words of seed_words(root, round):
    word 0 for its pairing, word 1+i for member i's mutation (unused in the
    final round) and word 1+n+p for pair p's judge call."""

    pairing: int
    judge: list[int]
    mutate: list[int]


def seed_schedule(root: int, n: int, k: int, generations: int, final_k: int) -> Iterator[RoundSeeds]:
    """Every seed of rounds 1..generations+1 of a run, one RoundSeeds per round, drawn as it is reached.

    Rounds 1..generations compare n*k/2 pairs and round generations+1
    compares n*final_k/2; each round's seeds are one seed_words call of
    1 + n + pairs words, so however many rounds a run names, one round's
    seeds are drawn at a time.
    """
    for r in range(1, generations + 2):
        words = seed_words(root, r, count=1 + n + n * (k if r <= generations else final_k) // 2)
        yield RoundSeeds(pairing=words[0], judge=words[1 + n :], mutate=words[1 : 1 + n])

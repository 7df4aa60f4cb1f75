"""Seed scheme tests: frozen derivations, the batched replays of SeedSequence
and the PCG64 generators seeded from them against numpy itself, the
entropy parts they all take, and the scalar draws of a seed."""

import numpy as np
import pytest

from btevolve.seeds import (
    _entropy,
    _seed_state,
    _SeedWords,
    _uint64_words,
    derive_seed,
    derive_seeds,
    pcg64_generators,
    seed_schedule,
    seed_uniform,
    seed_words,
)


@pytest.mark.parametrize(
    ("shared", "words"),
    [(2**32 - 1, [2**32 - 1]), (2**32, [0, 1]), (2**64, [0, 0, 1])],
    ids=["one-word", "two-words", "three-words"],
)
def test_entropy_splits_a_shared_part_as_seed_sequence(shared, words):
    column = np.array([0, 7, 2**32 - 1])
    entropy = _entropy(shared, column, shared)
    assert entropy.dtype == np.uint32
    assert entropy.tolist() == [[w] * 3 for w in words] + [column.tolist()] + [[w] * 3 for w in words]
    assert derive_seeds(shared, column, shared).tolist() == [derive_seed(shared, i, shared) for i in column.tolist()]
    states = [rng.bit_generator.state for rng in pcg64_generators(shared, column, shared)]
    assert states == [np.random.default_rng([shared, i, shared]).bit_generator.state for i in column.tolist()]


@pytest.mark.parametrize(
    "column",
    [
        np.array([3, 2**32]),
        np.array([2**32], dtype=np.uint64),
        np.array([-1, 3]),
        np.array([1.0, 2.0]),
        np.zeros((2, 2), dtype=np.int64),
    ],
    ids=["2-to-the-32", "uint64-2-to-the-32", "negative", "float", "two-dimensional"],
)
def test_entropy_rejects_a_column_that_is_not_one_word_per_row(column):
    with pytest.raises(ValueError):
        _entropy(5, column)
    with pytest.raises(ValueError):
        derive_seeds(5, column)


def test_entropy_rejects_columns_of_different_lengths():
    with pytest.raises(ValueError, match="one length"):
        _entropy(5, np.arange(3), np.arange(1))
    assert _entropy(5, np.arange(3), 2, np.arange(3)).shape == (4, 3)


def test_derive_seed_purpose_paths_distinct():
    seeds = {
        derive_seed(5, r, purpose, idx)
        for r in range(4)
        for purpose in range(6)
        for idx in range(10)
    }
    assert len(seeds) == 4 * 6 * 10


def _scalar_seeds(root, *path, indices):
    return [derive_seed(root, *path, i) for i in indices]


def test_derive_seeds_matches_derive_seed_for_random_roots():
    rng = np.random.default_rng(17)
    small = [int(r) for r in rng.integers(0, 2**31, size=6)]
    large = [int(r) for r in rng.integers(2**32, 2**63, size=6)] + [int(r) << 40 for r in small]
    for root in small + large:
        path = (int(rng.integers(0, 5)), int(rng.integers(0, 6)))
        indices = [int(i) for i in rng.integers(0, 500, size=int(rng.integers(1, 40)))]
        batch = derive_seeds(root, *path, np.array(indices))
        assert batch.dtype == np.uint64
        assert batch.tolist() == _scalar_seeds(root, *path, indices=indices)


@pytest.mark.parametrize("root", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize(
    "path",
    [(), (3,), (1, 2), (2**32, 5), (0, 2**64 - 1), (4, 2**32 - 1, 7), (1, 2, 3, 4, 5)],
)
def test_derive_seeds_matches_derive_seed_at_edges(root, path):
    for indices in ([0, 2**32 - 1], [9, 2, 40, 2, 0], range(3, 30, 4), []):
        column = np.array(indices, dtype=np.int64)
        assert derive_seeds(root, *path, column).tolist() == _scalar_seeds(root, *path, indices=indices)


@pytest.mark.parametrize(
    "root, path, indices",
    [(-1, (0, 0), [0]), (5, (0, -2), [0]), (5, (0, 0), [3, -1]), (5, (0, 0), [2**32])],
)
def test_derive_seeds_rejects_out_of_range_inputs(root, path, indices):
    with pytest.raises(ValueError):
        derive_seeds(root, *path, np.array(indices))
    if min(root, *path, *indices) < 0:  # SeedSequence rejects a negative element too
        with pytest.raises(ValueError):
            derive_seed(root, *path, *indices)


def _replayed_words(roots, round_no, count):
    """seed_words(root, round_no, count=count) for each root, by the package's own
    replay of SeedSequence on a column of roots: the roots are split into
    SeedSequence's 32-bit words and grouped by how many they take."""
    by_width = {}
    for root in roots:
        by_width.setdefault(max(1, -(-root.bit_length() // 32)), []).append(root)
    words = {}
    for width, group in by_width.items():
        columns = [np.array([root >> 32 * w & 0xFFFFFFFF for root in group]) for w in range(width)]
        rows = _uint64_words(_seed_state(_entropy(*columns, round_no), 2 * count)).T.tolist()
        words.update(zip(group, rows))
    return [words[root] for root in roots]


def _expected_schedule(roots, n, k, generations, final_k):
    """seed_schedule's fields for each root, from `_replayed_words`: word 0
    the pairing, word 1+i member i's mutation, word 1+n+p pair p's judge call."""
    rounds = []
    for r in range(1, generations + 2):
        pairs = n * (k if r <= generations else final_k) // 2
        rounds.append([(w[0], w[1 + n :], w[1 : 1 + n]) for w in _replayed_words(roots, r, 1 + n + pairs)])
    return [list(schedule) for schedule in zip(*rounds)]


@pytest.mark.parametrize(
    "shape",
    [(8, 3, 2, 5), (8, 2, 0, 3), (8, 7, 1, 7), (12, 4, 2, 1), (4, 1, 3, 1)],
    ids=["small", "generations-0", "k-n-1", "final-k-1", "n-4"],
)
def test_seed_schedule_matches_derive_seed(shape):
    # every round's seeds and the sample seeds are the words of derive_seed's
    # SeedSequence at (root, round), as the package's own replay computes them
    roots = [0, 2**32 - 1, 2**32, 2**64 + 5]
    roots += [int(r) for r in np.random.default_rng(sum(shape)).integers(0, 2**63, size=4)]
    expected = _expected_schedule(roots, *shape)
    for root, rounds in zip(roots, expected):
        got = [(s.pairing, s.judge, s.mutate) for s in seed_schedule(root, *shape)]
        assert got == rounds, root
        assert [pairing for pairing, _, _ in got] == [derive_seed(root, r) for r in range(1, len(got) + 1)]
    n = shape[0]
    samples = [seed_words(root, 0, count=n) for root in roots]
    assert samples == _replayed_words(roots, 0, n)
    assert [words[0] for words in samples] == [derive_seed(root, 0) for root in roots]


def test_seed_words_frozen_values():
    # pins the scheme: generation 0's first two sample seeds at root 0, and a
    # round's words, each a prefix of a longer call
    assert seed_words(0, 0, count=2) == [15793235383387715774, 12390638538380655177]
    assert seed_words(7, 1, count=3) == seed_words(7, 1, count=40)[:3]
    for root, path in ((0, (0,)), (7, (1,)), (2**64 + 5, (3,)), (5, (2, 4, 1, 0)), (9, ())):
        assert derive_seed(root, *path) == seed_words(root, *path, count=1)[0]
        assert type(derive_seed(root, *path)) is int


def test_seed_schedule_draws_one_round_at_a_time_whatever_the_generations():
    # a run naming 2**32 - 1 generations costs nothing until its rounds are reached
    schedule = seed_schedule(3, 4, 1, 2**32 - 1, 1)
    first = next(schedule)
    words = seed_words(3, 1, count=1 + 4 + 2)
    assert (first.pairing, first.mutate, first.judge) == (words[0], words[1:5], words[5:])


@pytest.mark.parametrize("words", [1, 2, 4, 5, 7])
def test_pcg64_seeds_match_seed_sequence(words):
    # entropy shorter than, as long as and longer than SeedSequence's pool of 4 words
    entropy = np.random.default_rng(words).integers(0, 2**32, size=(words, 40), dtype=np.uint32)
    entropy[:, 0] = 0
    entropy[:, 1] = 2**32 - 1
    generators = list(pcg64_generators(*entropy))
    expected = [np.random.default_rng(np.random.SeedSequence(column)) for column in entropy.T]
    assert [rng.bit_generator.state for rng in generators] == [rng.bit_generator.state for rng in expected]
    for rng, reference in zip(generators, expected):
        assert rng.random() == reference.random()
        assert rng.normal() == reference.normal()
        assert rng.permutation(40).tolist() == reference.permutation(40).tolist()
    assert list(pcg64_generators(*entropy[:, :0])) == []


def test_seed_words_answer_pcg64_seeding_only():
    words = _SeedWords(np.arange(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        words.generate_state(8, np.uint32)
    with pytest.raises(ValueError):
        np.random.MT19937(words)  # seeds itself from uint32 words


@pytest.mark.parametrize(
    ("seed", "draws"),
    [
        (0, (0.8833108082136426, 0.43152799704850997)),
        (1, (0.5665615751722809, 0.7457817572627011)),
        (2**64 - 1, (0.8939429202831845, 0.9125972035944532)),
        (2**64 + 5, (0.8807895827318415, 0.8289319590208399)),
    ],
    ids=["zero", "one", "2-to-the-64-minus-1", "2-to-the-64-plus-5"],
)
def test_seed_uniform_frozen_values(seed, draws):
    # pins the synthetic world's draws: SplitMix64's output at seed + (draw + 1) * gamma
    assert (seed_uniform(seed), seed_uniform(seed, 1)) == draws


def test_seed_uniform_folds_a_seed_past_64_bits_without_dropping_its_high_words():
    assert seed_uniform(2**64 + 5) != seed_uniform(5)
    assert seed_uniform(2**64) not in (seed_uniform(0), seed_uniform(1))
    assert seed_uniform(2**128) != seed_uniform(0)
    assert seed_uniform(2**128) != seed_uniform(2**64)


@pytest.mark.parametrize("kind", [np.uint64, np.int64, np.uint32, np.int8])
def test_seed_uniform_takes_a_numpy_integer_as_its_int(kind):
    for seed in (0, 1, 100):
        assert seed_uniform(kind(seed), 1) == seed_uniform(seed, 1)
    assert seed_uniform(np.uint64(2**64 - 1)) == seed_uniform(2**64 - 1)


@pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**64)])
def test_seed_uniform_rejects_a_negative_seed_as_default_rng_does(seed):
    with pytest.raises(ValueError):
        seed_uniform(seed)
    with pytest.raises(ValueError):
        np.random.default_rng(seed)


@pytest.mark.parametrize("seed", [1.0, "3", None])
def test_seed_uniform_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(TypeError):
        seed_uniform(seed)

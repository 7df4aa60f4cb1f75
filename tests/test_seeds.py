"""Seed scheme tests: frozen derivations, the batched replays of SeedSequence
and the PCG64 generators seeded from them against numpy itself, the
entropy parts they all take, and the scalar draws of a seed."""

import numpy as np
import pytest

from btevolve.errors import ConfigError
from btevolve.seeds import (
    _entropy,
    _SeedWords,
    derive_seed,
    derive_seeds,
    pcg64_generators,
    seed_schedule,
    seed_uniform,
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


def _expected_schedule(root, n, k, generations, final_k):
    """seed_schedule's fields, one derive_seed per seed."""
    rounds = []
    for r in range(1, generations + 2):
        pairs, mutations = (n * k // 2, n) if r <= generations else (n * final_k // 2, 0)
        rounds.append(
            (
                derive_seed(root, r, 1, 0),
                _scalar_seeds(root, r, 3, indices=range(pairs)),
                _scalar_seeds(root, r, 5, indices=range(mutations)),
            )
        )
    return rounds


@pytest.mark.parametrize(
    "shape",
    [(8, 3, 2, 5), (8, 2, 0, 3), (8, 7, 1, 7), (12, 4, 2, 1), (4, 1, 3, 1)],
    ids=["small", "generations-0", "k-n-1", "final-k-1", "n-4"],
)
def test_seed_schedule_matches_derive_seed(shape):
    roots = [0, 2**32 - 1, 2**32, 2**64 + 5]
    roots += [int(r) for r in np.random.default_rng(sum(shape)).integers(0, 2**63, size=4)]
    for root in roots:
        schedule = seed_schedule(root, *shape)
        got = [(s.pairing, s.judge, s.mutate) for s in schedule]
        assert got == _expected_schedule(root, *shape), root


def test_seed_schedule_rejects_a_path_word_of_2_to_the_32():
    # a round of 2**32 would need a second SeedSequence word, so it raises
    # before any column is built
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        seed_schedule(3, 4, 1, 2**32 - 1, 1)
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        seed_schedule(3, 2**32 + 4, 1, 1, 1)  # mutation index 2**32


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

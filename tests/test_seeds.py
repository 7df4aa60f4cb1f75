"""Seed scheme tests: the entropy parts every batched seed function takes."""

import numpy as np
import pytest

from btevolve.seeds import _entropy, derive_seed, derive_seeds, pcg64_seeds


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
    states, incs = pcg64_seeds(shared, column, shared)
    expected = [np.random.PCG64(np.random.SeedSequence([shared, i, shared])).state["state"] for i in column.tolist()]
    assert (states, incs) == ([s["state"] for s in expected], [s["inc"] for s in expected])


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

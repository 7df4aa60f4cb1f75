"""The shared value checks in btevolve.errors."""

import numpy as np
import pytest

from btevolve.errors import is_finite_real


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        (1, True),
        (-2.5, True),
        (np.float32(0.5), True),
        (10**400, False),
        (float("nan"), False),
        (True, False),
        ("1", False),
    ],
    ids=["int", "float", "numpy-float", "int-too-large-for-a-float", "nan", "bool", "string"],
)
def test_is_finite_real(value, expected):
    assert is_finite_real(value) is expected

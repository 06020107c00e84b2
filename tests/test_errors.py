"""The checks of the numbers a caller passes in."""
import re

import numpy as np
import pytest

from hypercnot import Pol, ValidationError
from hypercnot.errors import check_count


@pytest.mark.parametrize("value, low, expected", [
    (3, 1, 3),
    (0, 0, 0),
    (np.int64(3), 1, 3),
    (Pol.L, 0, 1),
])
def test_a_count_is_returned_as_an_int(value, low, expected):
    got = check_count(value, "n", low=low)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value, low", [
    (True, 1),
    (np.bool_(True), 1),
    (1.0, 1),
    ("1", 1),
    (-1, 0),
    (np.int64(-1), 0),
    (0, 1),
])
def test_what_is_no_count_is_refused(value, low):
    with pytest.raises(ValidationError, match=f"^n must be an int >= {low}, got {re.escape(repr(value))}$"):
        check_count(value, "n", low=low)


def test_a_count_above_its_limit_is_refused():
    assert check_count(4, "n", 4) == 4
    with pytest.raises(ValidationError, match=r"^n must be <= 4, got 5$"):
        check_count(5, "n", 4)

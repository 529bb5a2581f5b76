from __future__ import annotations

import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Python's default limit of 4,300 digits on int to str conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python prints an int of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)

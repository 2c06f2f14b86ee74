"""``errors.integer`` states the package's integer rule once: a Python or
numpy integer passes as an ``int``, and anything else, ``bool`` included,
raises the caller's error class naming the argument.  Each caller's own
tests check that it applies the rule."""

import re

import numpy as np
import pytest

from yolite.errors import ConfigError, integer


def raises(cls, message):
    """``pytest.raises`` for exactly ``cls`` with exactly ``message``."""
    return pytest.raises(cls, match=f"^{re.escape(message)}$")


class TestIntegerRule:
    @pytest.mark.parametrize("value", [0, -3, 2 ** 70, np.int64(5), np.int32(-2),
                                       np.uint16(7), np.uint64(2 ** 63)],
                             ids=lambda v: f"{type(v).__name__}-{v}")
    def test_integers_pass_as_int(self, value):
        got = integer(value, "x")
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, np.float64(2.0),
                                       "2", None, 1 + 0j],
                             ids=lambda v: f"{type(v).__name__}-{v}")
    def test_others_raise_naming_the_argument(self, value):
        with raises(ValueError, f"widgets must be an integer, got {value!r}"):
            integer(value, "widgets")

    def test_the_caller_picks_the_class(self):
        with raises(ConfigError, "seed must be an integer, got 1.5"):
            integer(1.5, "seed", ConfigError)

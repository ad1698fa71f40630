"""The kernel's integer Bernoulli rule: ``n < bernoulli_threshold(p)``
must decide exactly what ``random() < p`` decides, where ``random()``
is the 53-bit draw ``n * 2**-53`` (the kernel-vs-``compiled`` cells in
``tests/integration/test_columnar.py`` hold the C side to the bytes)."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ckernel import bernoulli_threshold

TOP = 2**53
SMALLEST_NORMAL = sys.float_info.min


def _multiple(k: int, toward: float | None) -> float:
    """``k * 2**-53``, or its neighbour toward *toward*."""
    p = math.ldexp(k, -53)
    return p if toward is None else math.nextafter(p, toward)


probabilities = st.one_of(
    st.sampled_from(
        [0.0, 1.0, 5e-324, SMALLEST_NORMAL, math.nextafter(SMALLEST_NORMAL, 0.0), 0.5, 0.0625]
    ),
    st.floats(0.0, SMALLEST_NORMAL, allow_subnormal=True),
    st.builds(_multiple, st.integers(0, TOP), st.sampled_from([None, 0.0, 1.0])),
    st.floats(0.0, 1.0),
)


@given(p=probabilities, offset=st.integers(-3, 3), anywhere=st.integers(0, TOP - 1))
def test_integer_threshold_decides_like_random_below_p(p, offset, anywhere):
    threshold = bernoulli_threshold(p)
    assert 0 <= threshold <= TOP
    for draw in (min(max(threshold + offset, 0), TOP - 1), anywhere):
        assert (draw < threshold) == (draw * 2.0**-53 < p), (p, draw)


def test_exact_thresholds():
    assert bernoulli_threshold(0.0) == 0
    assert bernoulli_threshold(1.0) == TOP
    assert bernoulli_threshold(5e-324) == 1
    assert bernoulli_threshold(0.0625) == 2**49


@pytest.mark.parametrize("p", [-1e-300, 1.5, math.nan, math.inf])
def test_non_probabilities_are_refused(p):
    with pytest.raises(ValueError):
        bernoulli_threshold(p)

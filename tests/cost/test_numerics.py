"""The plain-Python numerics of the costing path are bit-identical to numpy.

numpy is the oracle here and only here: the costing path itself never
imports it.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cost.numerics import interp, linspace, polyval

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def same(a: float, b) -> bool:
    """Bit-identical, signed zeros included."""
    b = float(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(finite, st.integers(min_value=-4096, max_value=4096)),
       coefficients=st.lists(finite, min_size=1, max_size=6))
@example(x=-1, coefficients=[-0.0])
@example(x=-1.0, coefficients=[-0.0])
def test_polyval_matches_numpy(x, coefficients):
    assert same(polyval(x, coefficients),
                np.polynomial.polynomial.polyval(x, coefficients))


@st.composite
def tables(draw):
    xp = sorted(set(draw(st.lists(finite, min_size=2, max_size=16))))
    if len(xp) < 2:
        xp = [xp[0], xp[0] + 1.0]
    fp = draw(st.lists(finite, min_size=len(xp), max_size=len(xp)))
    return xp, fp


@settings(max_examples=400, deadline=None)
@given(table=tables(), data=st.data())
def test_interp_matches_numpy(table, data):
    xp, fp = table
    # probe breakpoints, points between them and points beyond both ends
    x = data.draw(st.one_of(st.sampled_from(xp),
                            st.floats(min_value=xp[0] - 10, max_value=xp[-1] + 10)))
    assert same(interp(x, xp, fp), np.interp(x, xp, fp))


@settings(max_examples=400, deadline=None)
@given(start=finite, stop=finite, num=st.integers(min_value=0, max_value=70))
def test_linspace_matches_numpy(start, stop, num):
    ours = linspace(start, stop, num)
    theirs = np.linspace(start, stop, num)
    assert len(ours) == len(theirs)
    assert all(same(a, b) for a, b in zip(ours, theirs))


def test_linspace_denormal_step_matches_numpy():
    """A step that underflows to zero takes numpy's divide-first branch."""
    start, stop = 0.0, 5e-324
    assert [float(v) for v in np.linspace(start, stop, 4)] == linspace(start, stop, 4)

"""Scalar numerics for the costing path, in plain Python.

Costing one design point evaluates a few polynomials and table
interpolations. Importing numpy for that costs more than the costing, so
this module re-implements the three numpy routines the scalar path uses,
with numpy's own arithmetic so each result is bit-identical to numpy's:

* :func:`polyval` — ``numpy.polynomial.polynomial.polyval`` (Horner);
* :func:`interp` — ``numpy.interp`` at one point;
* :func:`linspace` — ``numpy.linspace`` with its endpoint.

The tests check each against numpy as the oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence

__all__ = ["polyval", "interp", "linspace", "sorted_axis"]


def polyval(x: float, coefficients: Sequence[float]) -> float:
    """``c[0] + c[1]*x + c[2]*x**2 + ...`` by Horner's rule, as numpy does.

    ``x`` keeps its type in ``x * 0``, as in numpy: an integer ``x`` adds
    an integer zero, so ``polyval(-1, [-0.0])`` is ``0.0``, not ``-0.0``.
    """
    c = [float(v) for v in coefficients]
    acc = c[-1] + x * 0
    for coeff in reversed(c[:-1]):
        acc = coeff + acc * x
    return acc


def interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """Piece-wise linear interpolation of ``(xp, fp)`` at ``x``.

    ``xp`` must be strictly increasing; beyond its ends the value is
    clamped to ``fp[0]`` and ``fp[-1]``, as in ``numpy.interp``.
    """
    x = float(x)
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j >= len(xp) - 1:
        return fp[-1]
    if xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[j]


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced values from ``start`` to ``stop`` inclusive."""
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1
    if div <= 0:
        return [i * delta + start for i in range(num)]
    step = delta / div
    if step == 0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def sorted_axis(
    owner: str, x_name: str, xs: Sequence[float], y_name: str, ys: Sequence[float]
) -> tuple[list[float], list[float]]:
    """``(xs, ys)`` as floats, sorted by x: a valid table for :func:`interp`.

    Raises :class:`ValueError` naming the field when a value is not
    finite or two xs are equal, since interpolation over such a table
    returns NaN or divides by zero.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    for name, values in ((x_name, xs), (y_name, ys)):
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{owner}: {name} must be finite, got {bad[0]!r}")
    order = sorted(range(len(xs)), key=xs.__getitem__)
    xs = [xs[i] for i in order]
    ys = [ys[i] for i in order]
    for x0, x1 in zip(xs, xs[1:]):
        if x0 == x1:
            raise ValueError(f"{owner}: {x_name} must be strictly increasing, "
                             f"got {x0!r} twice")
    return xs, ys

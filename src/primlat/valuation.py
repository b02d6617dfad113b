"""Valuations on lattices, the induced metric, and closed balls.

All arithmetic is exact rational (fractions.Fraction); equality tests are
exact, never epsilon-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import lcm
from operator import add, ne

from .core import FiniteLattice, LatticeError, bits


class ValuationError(LatticeError):
    def __init__(self, reason, witness):
        super().__init__(f"{reason} at {witness!r}")
        self.reason = reason
        self.witness = witness


def common_scale(values):
    """``(ints, D)``: the rationals ``values`` as integers over their least
    common denominator D, so ``values[k] == Fraction(ints[k], D)``.

    Sums and comparisons of the integers are exact and cost no gcd.
    """
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def first_mismatch(xs, ys):
    """The first position where two sequences differ, or None."""
    return next(compress(count(), map(ne, xs, ys)), None)


def _as_fraction_map(lat, values):
    out = {}
    for lab in lat.labels:
        if lab not in values:
            raise ValuationError("valuation not total", lab)
        out[lab] = Fraction(values[lab])
    return out


@dataclass(frozen=True)
class ValuationCheck:
    is_valuation: bool
    is_isotone: bool
    witness: tuple | None  # first failing pair, if any


def check_valuation(lat: FiniteLattice, values) -> ValuationCheck:
    """Test v(x∨y) + v(x∧y) == v(x) + v(y) and isotonicity, with witness.

    The witness is the first failing pair (x, y >= x) in element order; each
    row of pairs is one comparison of integer lists.
    """
    v = _as_fraction_map(lat, values)
    n = lat.n
    vi, _ = common_scale([v[lab] for lab in lat.labels])
    witness = None
    for i, (jrow, mrow) in enumerate(zip(lat.join_table, lat.meet_table)):
        lhs = map(add, map(vi.__getitem__, jrow[i:n]), map(vi.__getitem__, mrow[i:n]))
        j = first_mismatch(lhs, map(vi[i].__add__, vi[i:]))
        if j is not None:
            witness = (lat.labels[i], lat.labels[i + j])
            break
    isotone = all(vi[i] <= vi[j] for i in range(n) for j in bits(lat.leq_rows[i]))
    return ValuationCheck(witness is None, isotone, witness)


def height_valuation(lat: FiniteLattice):
    """Element heights as a rational valuation candidate."""
    return {lab: Fraction(lat.heights[i]) for i, lab in enumerate(lat.labels)}


class LatticeMetric:
    """d(x, y) = v(x∨y) − v(x∧y) for an isotone valuation v."""

    def __init__(self, lat: FiniteLattice, values):
        check = check_valuation(lat, values)
        if not check.is_valuation:
            raise ValuationError("not a valuation", check.witness)
        if not check.is_isotone:
            raise ValuationError("valuation not isotone", None)
        self.lattice = lat
        self.v = _as_fraction_map(lat, values)
        vi = [self.v[lab] for lab in lat.labels]
        self.table = tuple(
            tuple(vi[lat.join_i(i, j)] - vi[lat.meet_i(i, j)] for j in range(lat.n))
            for i in range(lat.n)
        )
        failure = _metric_axiom_failure(self.table)
        assert failure is None, failure

    def d(self, a, b) -> Fraction:
        return self.table[self.lattice.index(a)][self.lattice.index(b)]


def _metric_axiom_failure(table):
    """The first metric axiom a square table of rationals breaks, or None.

    Pairs are checked row by row.  Scaled by their common denominator the
    distances are integers, so the triangle inequality over every k is one
    C-level ``min`` per pair.
    """
    n = len(table)
    flat, _ = common_scale([d for row in table for d in row])
    t = [flat[k : k + n] for k in range(0, n * n, n)]
    cols = list(zip(*t))
    for i, row in enumerate(t):
        if row[i] != 0:
            return "metric must vanish on the diagonal"
        for j, col in enumerate(cols):
            if row[j] < 0:
                return "metric must be non-negative"
            if (row[j] == 0) != (i == j):
                return "metric must be nondegenerate"
            if row[j] != t[j][i]:
                return "metric must be symmetric"
            if row[j] > min(map(add, row, col)):
                return "triangle inequality"
    return None


def metric_from_valuation(lat: FiniteLattice, values) -> LatticeMetric:
    return LatticeMetric(lat, values)


def closed_ball(metric: LatticeMetric, center, radius) -> tuple:
    """{y : d(center, y) <= radius}, in declared element order."""
    r = Fraction(radius)
    if r < 0:
        raise ValuationError("radius must be non-negative", radius)
    lat = metric.lattice
    i = lat.index(center)
    return tuple(lat.labels[j] for j in range(lat.n) if metric.table[i][j] <= r)


def open_ball(metric: LatticeMetric, center, radius) -> tuple:
    r = Fraction(radius)
    if r < 0:
        raise ValuationError("radius must be non-negative", radius)
    lat = metric.lattice
    i = lat.index(center)
    return tuple(lat.labels[j] for j in range(lat.n) if metric.table[i][j] < r)

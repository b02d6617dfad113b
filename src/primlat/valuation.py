"""Valuations on lattices, the induced metric, and closed balls.

All arithmetic is exact rational (fractions.Fraction); equality tests are
exact, never epsilon-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .core import FiniteLattice, LatticeError, bits


class ValuationError(LatticeError):
    def __init__(self, reason, witness):
        super().__init__(f"{reason} at {witness!r}")
        self.reason = reason
        self.witness = witness


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
    """Test v(x∨y) + v(x∧y) == v(x) + v(y) and isotonicity, with witness."""
    v = _as_fraction_map(lat, values)
    vi = [v[lab] for lab in lat.labels]
    witness = None
    is_val = True
    for i in range(lat.n):
        for j in range(i, lat.n):
            if vi[lat.join_i(i, j)] + vi[lat.meet_i(i, j)] != vi[i] + vi[j]:
                is_val = False
                witness = (lat.labels[i], lat.labels[j])
                break
        if not is_val:
            break
    isotone = all(
        vi[i] <= vi[j] for i in range(lat.n) for j in bits(lat.leq_rows[i])
    )
    return ValuationCheck(is_val, isotone, witness)


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
    scale = lcm(*(d.denominator for row in table for d in row))
    t = [[d.numerator * (scale // d.denominator) for d in row] for row in table]
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

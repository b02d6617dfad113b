"""Valuations on lattices and the induced metric.

All arithmetic is exact rational (fractions.Fraction); equality tests are
exact, never epsilon-based.  A metric table holds integers over the
valuation's common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import lcm
from operator import add, ne, sub

from .core import FiniteLattice, InvariantError, LatticeError, bits


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

    The witness is the first failing pair (x, y >= x) in element order.
    """
    v = _as_fraction_map(lat, values)
    n = lat.n
    vi, _ = common_scale([v[lab] for lab in lat.labels])
    failure = modular_failure(lat, vi)
    witness = None if failure is None else tuple(lat.labels[k] for k in failure)
    isotone = all(vi[i] <= vi[j] for i in range(n) for j in bits(lat.leq_rows[i]))
    return ValuationCheck(witness is None, isotone, witness)


def modular_failure(lat: FiniteLattice, vi):
    """The first pair (i, j >= i), in row order, with vi[i ∨ j] + vi[i ∧ j]
    != vi[i] + vi[j], or None; each row is one comparison of lists.  The law
    is symmetric, so the first failing row has no failing j < i either."""
    n = lat.n
    for i, (jrow, mrow) in enumerate(zip(lat.join_table, lat.meet_table)):
        lhs = map(add, map(vi.__getitem__, jrow[i:n]), map(vi.__getitem__, mrow[i:n]))
        j = first_mismatch(lhs, map(vi[i].__add__, vi[i:]))
        if j is not None:
            return i, i + j
    return None


class LatticeMetric:
    """d(x, y) = v(x∨y) − v(x∧y) for a strictly isotone valuation v.

    ``table[i][j]`` is d(i, j) as an integer over ``scale``, the least common
    denominator of v, so ``d`` returns ``Fraction(table[i][j], scale)``.
    """

    def __init__(self, lat: FiniteLattice, values):
        check = check_valuation(lat, values)
        if not check.is_valuation:
            raise ValuationError("not a valuation", check.witness)
        if not check.is_isotone:
            raise ValuationError("valuation not isotone", None)
        vi, self.scale = common_scale([Fraction(values[lab]) for lab in lat.labels])
        labels, n = lat.labels, lat.n
        for i, j in lat.covers_i:
            if vi[i] == vi[j]:
                raise ValuationError("valuation not strictly isotone", (labels[i], labels[j]))
        self.lattice = lat
        self.table = tuple(
            tuple(map(sub, map(vi.__getitem__, jrow[:n]), map(vi.__getitem__, mrow[:n])))
            for jrow, mrow in zip(lat.join_table, lat.meet_table)
        )
        failure = _metric_axiom_failure(self.table)
        if failure is not None:
            raise InvariantError(failure)

    def d(self, a, b) -> Fraction:
        return Fraction(self.table[self.lattice.index(a)][self.lattice.index(b)], self.scale)


def _metric_axiom_failure(table):
    """The first metric axiom a square table of rationals breaks, or None.

    Pairs are checked row by row; the triangle inequality over every k is
    one C-level ``min`` per pair.
    """
    cols = list(zip(*table))
    for i, row in enumerate(table):
        if row[i] != 0:
            return "metric must vanish on the diagonal"
        for j, col in enumerate(cols):
            if row[j] < 0:
                return "metric must be non-negative"
            if (row[j] == 0) != (i == j):
                return "metric must be nondegenerate"
            if row[j] != table[j][i]:
                return "metric must be symmetric"
            if row[j] > min(map(add, row, col)):
                return "triangle inequality"
    return None


def metric_from_valuation(lat: FiniteLattice, values) -> LatticeMetric:
    return LatticeMetric(lat, values)

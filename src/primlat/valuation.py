"""Valuations on lattices and the induced metric.

All arithmetic is exact rational (fractions.Fraction); equality tests are
exact, never epsilon-based.  A metric table holds integers over the
valuation's common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import compress, count, repeat
from math import lcm
from operator import add, ne, not_, sub

from .core import FiniteLattice, InvariantError, LatticeError, Record, bits


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


def total_fractions(lat, values, missing):
    """Every label's value as a Fraction, in label order.  At the first
    label ``values`` does not name, raises ``missing(label)``: each caller
    names its own error."""
    out = {}
    for lab in lat.labels:
        if lab not in values:
            raise missing(lab)
        out[lab] = Fraction(values[lab])
    return out


class ValuationCheck(Record):
    """Whether values are a valuation and isotone, with the first failing
    pair, if any, as ``witness``.  ``scaled`` is (lattice, values as
    integers over their least common denominator, that denominator): what
    ``LatticeMetric`` builds its table from.  It is not compared, hashed
    or shown."""

    __slots__ = ("is_valuation", "is_isotone", "witness", "scaled")
    _compared = __slots__[:3]

    def __init__(self, is_valuation: bool, is_isotone: bool, witness, scaled=None):
        super().__init__(is_valuation, is_isotone, witness, scaled)


def check_valuation(lat: FiniteLattice, values) -> ValuationCheck:
    """Test v(x∨y) + v(x∧y) == v(x) + v(y) and isotonicity, with witness.

    The witness is the first failing pair (x, y >= x) in element order.
    """
    v = total_fractions(lat, values, partial(ValuationError, "valuation not total"))
    vi, scale = common_scale([v[lab] for lab in lat.labels])
    failure = modular_failure(lat, vi)
    witness = None if failure is None else tuple(lat.labels[k] for k in failure)
    return ValuationCheck(witness is None, order_failure(lat, vi) is None, witness, (lat, vi, scale))


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


def order_failure(lat: FiniteLattice, vi):
    """The first pair (i, j), in row order, with i <= j and vi[i] > vi[j], or None."""
    return next(((i, j) for i, row in enumerate(lat.leq_rows) for j in bits(row) if vi[i] > vi[j]), None)


class LatticeMetric:
    """d(x, y) = v(x∨y) − v(x∧y) for a strictly isotone valuation v.

    ``values`` maps each label to its value, or is the ``ValuationCheck``
    that ``check_valuation`` returned for ``lat``, so a caller that has
    checked the values does not pay for a second scan.  ``table[i][j]`` is
    d(i, j) as an integer over ``scale``, the least common denominator of
    v, so ``d`` returns ``Fraction(table[i][j], scale)``.
    """

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, lat: FiniteLattice, values):
        check = values if isinstance(values, ValuationCheck) else check_valuation(lat, values)
        if check.scaled is None or check.scaled[0] is not lat:
            raise LatticeError("valuation check made on another lattice")
        if not check.is_valuation:
            raise ValuationError("not a valuation", check.witness)
        if not check.is_isotone:
            raise ValuationError("valuation not isotone", None)
        _, vi, scale = check.scaled
        labels, n = lat.labels, lat.n
        for i, j in lat.covers_i:
            if vi[i] == vi[j]:
                raise ValuationError("valuation not strictly isotone", (labels[i], labels[j]))
        table = tuple(
            tuple(map(sub, map(vi.__getitem__, jrow[:n]), map(vi.__getitem__, mrow[:n])))
            for jrow, mrow in zip(lat.join_table, lat.meet_table)
        )
        failure = _metric_axiom_failure(table)
        if failure is not None:
            raise InvariantError(failure)
        vars(self).update(lattice=lat, table=table, scale=scale)

    def d(self, a, b) -> Fraction:
        return Fraction(self.table[self.lattice.index(a)][self.lattice.index(b)], self.scale)


def _metric_axiom_failure(table):
    """The first metric axiom a square table of integers breaks, or None.

    The table of a strictly isotone valuation is a metric by theorem
    (Birkhoff, Lattice Theory, 3rd ed., 1967, ch. X: a lattice with a
    positive valuation is a metric lattice); this is the second route, the
    axioms checked on the numbers.  Pairs are taken row by row, and at each
    pair the axioms in the order diagonal (once per row), non-negative,
    nondegenerate, symmetric, triangle, so a table that breaks two axioms
    names the first.  The cheap axioms give each row a first failing
    column; the triangle inequality is tested on the columns before it.

    The triangle test packs integers into one int per row (Lamport,
    "Multiple byte processing with full-word instructions", CACM 18(8),
    1975).  The entries are taken as integers, as ``LatticeMetric`` builds
    them over the valuation's common denominator, so no pass rescales them;
    a table of rationals must be brought over one denominator first
    (``common_scale``).  They are shifted by the least entry L <= 0 into
    fields of w bits, w a multiple of 8 with 2^(w-1) > 2U for U the largest
    shifted entry (at least -L).
    t[i][j] <= t[i][k] + t[k][j] for every k says the shifted row i plus
    the shifted column j is at least c = t[i][j] - 2L in every field.
    Each field of row + column + (2^(w-1) - c) stays in [0, 2^w), as
    0 <= c <= 2U, so no field carries into the next, and its top bit, the
    guard, is set iff the inequality holds at that k.  One pair is then two
    additions and an AND.  In a symmetric table the test at (i, j < i) is
    the test at (j, i), already passed, so only j >= i is tested; (i, i)
    stays, as it fails on a row with a negative entry.
    """
    n = len(table)
    rows = list(map(list, table))
    cols = [list(col) for col in zip(*rows)]
    symmetric = rows == cols
    entries = set().union(*rows)
    low, high = min(0, min(entries, default=0)), max(0, max(entries, default=0))
    size = (2 * (high - low)).bit_length() // 8 + 1  # bytes per field
    ones = int.from_bytes(b"\x01".ljust(size, b"\0") * n, "little")
    guards = ones << 8 * size - 1
    offset = {t: guards - (t - 2 * low) * ones for t in entries}

    def pack(seq):
        shifted = map(low.__rsub__, seq)
        return int.from_bytes(b"".join(map(int.to_bytes, shifted, repeat(size), repeat("little"))), "little")

    packed_rows = list(map(pack, rows))
    packed_cols = packed_rows if symmetric else list(map(pack, cols))
    for i, row in enumerate(rows):
        if row[i] != 0:
            return "metric must vanish on the diagonal"
        # the first column of each cheap axiom's failure, n for none
        negative = next(compress(count(), map((0).__gt__, row)), n) if low < 0 else n
        zero = next((j for j in compress(count(), map(not_, row)) if j != i), n) if row.count(0) > 1 else n
        asymmetric = n if symmetric else next(compress(count(), map(ne, row, cols[i])), n)
        stop = min(negative, zero, asymmetric)
        start = i if symmetric else 0
        sums = map(packed_rows[i].__add__, packed_cols[start:stop])
        fields = map(add, sums, map(offset.__getitem__, row[start:stop]))
        if first_mismatch(map(guards.__and__, fields), repeat(guards)) is not None:
            return "triangle inequality"
        if stop < n:
            if stop == negative:
                return "metric must be non-negative"
            return "metric must be nondegenerate" if stop == zero else "metric must be symmetric"
    return None


def metric_from_valuation(lat: FiniteLattice, values) -> LatticeMetric:
    return LatticeMetric(lat, values)

"""Projections of elements and sequences onto family levels.

Three projections move an element from a fine lattice onto a coarser
member: map-to-zero, Sasaki-based, and metric-ball-based.  A fourth
(`ceiling`) coarsens upward and exists for reporting convenience.
All joins/meets happen in each level's induced tables, never on raw masks;
the enclosing Boolean lattice used for Sasaki maps and metric balls is the
least chain level containing both the element and the target carrier.
"""

from __future__ import annotations

from .core import LatticeError
from .primorial import Level, PrimorialLattice
from .valuation import closed_ball, height_valuation, metric_from_valuation


def _check_element(pl: PrimorialLattice, x):
    top = pl.chain[-1]
    if x not in top.carrier_set:
        raise LatticeError(f"element {x!r} outside the top carrier")


def _enclosing_chain_level(pl: PrimorialLattice, x, target: Level) -> Level:
    """Least chain level whose carrier contains both x and the target."""
    for lvl in pl.chain:
        if x in lvl.carrier_set and target.carrier_set <= lvl.carrier_set:
            return lvl
    raise LatticeError(f"no chain level contains {x!r} and {target.name or target.carrier!r}")


def proj_zero(pl: PrimorialLattice, level_name, x):
    """x when the level carries it, else 0 (as a join inside the level)."""
    _check_element(pl, x)
    target = pl.level(level_name)
    hits = sorted({x, 0} & target.carrier_set)
    return target.lattice.join_all(hits)


def proj_sasaki(pl: PrimorialLattice, level_name, x):
    """Join over the level of the element's shadows on the carrier.

    Computed both ways, through the Sasaki maps (x ∨ y') ∧ y taken in the
    enclosing Boolean level and as joins of plain meets x ∧ y, and the two
    results are asserted equal before returning.
    """
    _check_element(pl, x)
    target = pl.level(level_name)
    outer = _enclosing_chain_level(pl, x, target)
    lat = outer.lattice
    xi = lat.index(x)
    shadows_def = set()
    shadows_meet = set()
    for y in target.carrier:
        yi = lat.index(y)
        comp = lat.index(outer.complement(y))
        shadows_def.add(lat.labels[lat.meet_i(lat.join_i(xi, comp), yi)])
        shadows_meet.add(lat.labels[lat.meet_i(xi, yi)])
    a = target.lattice.join_all(sorted(shadows_def & target.carrier_set))
    b = target.lattice.join_all(sorted(shadows_meet & target.carrier_set))
    assert a == b, "Sasaki-map and plain-meet forms must agree"
    return b


def proj_metric(pl: PrimorialLattice, level_name, x):
    """Meet over the level of the smallest metric ball around x that
    reaches the carrier.

    The metric is the height metric of the enclosing Boolean level; the
    radius grows until the closed ball intersects the carrier.
    """
    _check_element(pl, x)
    target = pl.level(level_name)
    outer = _enclosing_chain_level(pl, x, target)
    metric = _height_metric(outer)
    max_r = outer.lattice.heights[outer.lattice.top_i]
    for r in range(max_r + 1):
        ball = set(closed_ball(metric, x, r)) & target.carrier_set
        if ball:
            return target.lattice.meet_all(sorted(ball))
    raise AssertionError("the level's top always lies in some ball")


def proj_ceiling(pl: PrimorialLattice, level_name, x):
    """Meet over the level of every carrier element above x."""
    _check_element(pl, x)
    target = pl.level(level_name)
    ups = [y for y in target.carrier if x & ~y == 0]
    return target.lattice.meet_all(ups)


_PROJECTORS = {
    "zero": proj_zero,
    "sasaki": proj_sasaki,
    "metric": proj_metric,
    "ceiling": proj_ceiling,
}
METHODS = tuple(_PROJECTORS)

_metric_cache = {}


def _height_metric(level: Level):
    key = (level.top_n, level.carrier)
    if key not in _metric_cache:
        lat = level.lattice
        _metric_cache[key] = metric_from_valuation(lat, height_valuation(lat))
    return _metric_cache[key]


def _projector(method: str):
    try:
        return _PROJECTORS[method]
    except KeyError:
        raise LatticeError(f"unknown projection method {method!r}") from None


def project(pl: PrimorialLattice, level_name, x, method: str):
    return _projector(method)(pl, level_name, x)


def project_sequence(pl: PrimorialLattice, level_name, items, method: str):
    """Pointwise projection; the output has the input's length.

    Each distinct element is projected once, through the same checked
    ``proj_*`` function as ``project``, in order of first occurrence (so an
    error names the first bad element of the input), and the sequence is
    mapped through that table.
    """
    fn = _projector(method)
    items = tuple(items)
    table = {}
    for x in items:
        if x not in table:
            table[x] = fn(pl, level_name, x)
    return tuple(map(table.__getitem__, items))

"""Projections of elements and sequences onto family levels.

Three projections move an element from a fine lattice onto a coarser
member: map-to-zero, Sasaki-based, and metric (the meet of the carrier
elements nearest under the height metric, read from the enclosing level's
heights).  A fourth (`ceiling`) coarsens upward and exists for reporting
convenience.  All joins/meets happen in each level's induced tables, never
on raw masks; the enclosing Boolean lattice used for the Sasaki maps and
the height metric is the least chain level containing both the element
and the target carrier.
"""

from __future__ import annotations

from .core import IDENTITY_ROW, MAX_ATOMS, InvariantError, LatticeError
from .primorial import Level, PrimorialLattice


def _check_element(pl: PrimorialLattice, x):
    top = pl.chain[-1]
    if x not in top.carrier_set:
        raise LatticeError(f"element {x!r} outside the top carrier")


def _enclosing_chain_level(pl: PrimorialLattice, x, target: Level) -> Level:
    """Least chain level whose carrier contains both x and the target."""
    for lvl in pl.chain:
        if x in lvl.carrier_set and target.carrier_set <= lvl.carrier_set:
            return lvl
    raise LatticeError(f"no chain level contains {x!r} and {target.carrier!r}")


def proj_zero(pl: PrimorialLattice, level_name, x):
    """x when the level carries it, else 0."""
    _check_element(pl, x)
    return x if x in pl.level(level_name).carrier_set else 0


def proj_sasaki(pl: PrimorialLattice, level_name, x):
    """Join over the level of the element's shadows on the carrier.

    Computed both ways, through the Sasaki maps (x ∨ y') ∧ y taken in the
    enclosing Boolean level and as joins of plain meets x ∧ y; the two
    results must be equal, or ``InvariantError`` is raised.
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
    if a != b:
        raise InvariantError(f"Sasaki-map and plain-meet forms must agree at {x!r} onto {level_name}")
    return b


def proj_metric(pl: PrimorialLattice, level_name, x):
    """Meet over the level of the carrier elements nearest to x.

    The distance is the height metric d(x, y) = h(x∨y) − h(x∧y) of the
    enclosing Boolean level, read as integers from that level's heights and
    operation rows.  The target lies inside that level, so the nearest
    elements are the carrier's part of the smallest closed ball around x
    that meets the carrier.
    """
    _check_element(pl, x)
    target = pl.level(level_name)
    lat = _enclosing_chain_level(pl, x, target).lattice
    h, i = lat.heights, lat.index(x)
    jrow, mrow = lat.join_table[i], lat.meet_table[i]
    dist = [h[jrow[j]] - h[mrow[j]] for j in map(lat.index, target.carrier)]
    near = min(dist)
    return target.lattice.meet_all([y for y, d in zip(target.carrier, dist) if d == near])


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


def _projector(method: str):
    try:
        return _PROJECTORS[method]
    except KeyError:
        raise LatticeError(f"unknown projection method {method!r}") from None


def project(pl: PrimorialLattice, level_name, x, method: str):
    return _projector(method)(pl, level_name, x)


def project_sequence(pl: PrimorialLattice, level_name, items, method: str) -> bytes:
    """Pointwise projection as ``bytes``, one element per byte; the output
    has the input's length.

    Each distinct element is projected once, through the same checked
    ``proj_*`` function as ``project``, in order of first occurrence (so an
    error names the first bad element of the input).  The results fill a
    padded 256-byte row, and the sequence is translated through it.
    """
    fn = _projector(method)
    if pl.top_n > MAX_ATOMS:
        raise LatticeError(
            f"sequences hold elements of 2^N for N <= {MAX_ATOMS}, not of 2^{pl.top_n}"
        )
    if not isinstance(items, bytes):
        items = tuple(items)
    row = bytearray(IDENTITY_ROW)
    for x in dict.fromkeys(items):
        row[x] = fn(pl, level_name, x)
    return bytes(items).translate(row)

import pytest
from hypothesis import settings

from primlat.core import enumerate_lattices
from primlat.primorial import generate_primorial

from helpers import lattice_from_covers

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


def chain(k):
    labels = [f"c{i}" for i in range(k)]
    return lattice_from_covers(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def pentagon():
    return lattice_from_covers(
        ["0", "a", "b", "p", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "p"), ("p", "1")],
    )


def diamond():
    return lattice_from_covers(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
    )


def benzene():
    lat = lattice_from_covers(
        ["0", "p", "q", "p'", "q'", "1"],
        [("0", "p"), ("0", "q"), ("p", "q'"), ("q", "p'"), ("q'", "1"), ("p'", "1")],
    )
    omap = {"0": "1", "1": "0", "p": "p'", "p'": "p", "q": "q'", "q'": "q"}
    return lat, omap


def mo2():
    """The six-element orthomodular MO2: two complement pairs under 0 and 1."""
    lat = lattice_from_covers(
        ["0", "a", "A", "b", "B", "1"],
        [("0", x) for x in "aAbB"] + [(x, "1") for x in "aAbB"],
    )
    omap = {"0": "1", "1": "0", "a": "A", "A": "a", "b": "B", "B": "b"}
    return lat, omap


def hs3():
    """The horizontal sum of two 2^3 blocks glued at 0 and 1, with its
    orthocomplement."""
    labels, covers, omap = ["0", "1"], [], {"0": "1", "1": "0"}
    for block in "xy":
        atoms = [f"{block}{i}" for i in range(3)]
        coatoms = [f"{block}{i}{j}" for i, j in ((1, 2), (0, 2), (0, 1))]
        labels += atoms + coatoms
        for i, a in enumerate(atoms):
            covers += [("0", a), (coatoms[i], "1")]
            covers += [(a, c) for j, c in enumerate(coatoms) if i != j]
            omap[a], omap[coatoms[i]] = coatoms[i], a
    return lattice_from_covers(labels, covers), omap


def powerset(n):
    labels = list(range(1 << n))
    covers = [(a, a | (1 << b)) for a in labels for b in range(n) if not a >> b & 1]
    return lattice_from_covers(labels, covers)


def powerset_complement(n):
    full = (1 << n) - 1
    return {x: full ^ x for x in range(1 << n)}


@pytest.fixture(scope="session")
def small_lattices():
    """One representative per isomorphism class, n = 1..6."""
    out = []
    for n in range(1, 7):
        out.extend(enumerate_lattices(n))
    return out


@pytest.fixture(scope="session")
def family5():
    return generate_primorial(5)


@pytest.fixture(scope="session")
def family4():
    return generate_primorial(4)

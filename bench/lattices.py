"""Seeded lattice inputs built as products of small factor lattices.

Each factor carries an involutive antitone negation (an orthocomplement
where the factor has one) and a probability assignment that is valid for
that negation.  Products keep both: the negation acts componentwise and
the probability is a convex combination of the factor probabilities, which
stays additive on every pair the program's distributivity gate admits.
The class of a product is known from its factors, so outputs can be
checked without trusting the program under test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Factor:
    name: str
    elems: tuple
    covers: tuple
    neg: dict
    prob: dict
    flags: frozenset  # "distributive", "modular", "boolean", "ortho", "orthomodular"


def _chain(k):
    elems = tuple(f"c{i}" for i in range(k))
    return Factor(
        f"C{k}",
        elems,
        tuple((elems[i], elems[i + 1]) for i in range(k - 1)),
        {elems[i]: elems[k - 1 - i] for i in range(k)},
        {elems[i]: Fraction(i, k - 1) for i in range(k)},
        frozenset({"distributive", "modular"} | ({"boolean", "ortho", "orthomodular"} if k == 2 else set())),
    )


def weights(rng, k):
    """k positive rational weights summing to 1."""
    raw = [rng.randint(1, 9) for _ in range(k)]
    return [Fraction(w, sum(raw)) for w in raw]


def factor(name, rng):
    """A fresh factor; ``rng`` draws its probability weights."""
    if name == "B2":
        return _chain(2)
    if name.startswith("C"):
        return _chain(int(name[1:]))
    if name == "M3":
        w = weights(rng, 3)
        return Factor(
            "M3",
            ("0", "p", "q", "r", "1"),
            (("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")),
            {"0": "1", "1": "0", "p": "p", "q": "q", "r": "r"},
            {"0": Fraction(0), "p": w[0], "q": w[1], "r": w[2], "1": Fraction(1)},
            frozenset({"modular"}),
        )
    if name == "N5":
        wa, wc = weights(rng, 2)
        return Factor(
            "N5",
            ("0", "a", "b", "c", "1"),
            (("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")),
            {"0": "1", "1": "0", "a": "b", "b": "a", "c": "c"},
            {"0": Fraction(0), "a": wa, "b": wa, "c": wc, "1": Fraction(1)},
            frozenset(),
        )
    if name in ("MO2", "O6"):
        s, t = Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(1, 9), 10)
        if name == "O6":  # p <= q' forces p(p) + p(q) <= 1
            t = min(t, 1 - s)
            covers = (("0", "a"), ("0", "b"), ("a", "B"), ("b", "A"), ("A", "1"), ("B", "1"))
            flags = {"ortho"}
        else:
            covers = tuple(("0", x) for x in "aAbB") + tuple((x, "1") for x in "aAbB")
            flags = {"modular", "ortho", "orthomodular"}
        return Factor(
            name,
            ("0", "a", "A", "b", "B", "1"),
            covers,
            {"0": "1", "1": "0", "a": "A", "A": "a", "b": "B", "B": "b"},
            {"0": Fraction(0), "a": s, "A": 1 - s, "b": t, "B": 1 - t, "1": Fraction(1)},
            frozenset(flags),
        )
    if name == "HS3":  # horizontal sum of two 2^3 blocks glued at 0 and 1
        elems, covers, neg, prob = ["0", "1"], [], {"0": "1", "1": "0"}, {"0": Fraction(0), "1": Fraction(1)}
        for block in "xy":
            w = weights(rng, 3)
            atoms = [f"{block}{i}" for i in range(3)]
            coatoms = [f"{block}{i}{j}" for i, j in ((1, 2), (0, 2), (0, 1))]
            elems += atoms + coatoms
            for i, a in enumerate(atoms):
                covers.append(("0", a))
                covers.append((coatoms[i], "1"))
                for j, c in enumerate(coatoms):
                    if i != j:
                        covers.append((a, c))
                neg[a], neg[coatoms[i]] = coatoms[i], a
                prob[a], prob[coatoms[i]] = w[i], 1 - w[i]
        return Factor("HS3", tuple(elems), tuple(covers), neg, prob, frozenset({"ortho", "orthomodular"}))
    raise ValueError(f"unknown factor {name!r}")


def _heights(f: Factor):
    down = {e: [] for e in f.elems}
    for a, b in f.covers:
        down[b].append(a)
    memo = {}

    def h(e):
        if e not in memo:
            memo[e] = max((h(d) + 1 for d in down[e]), default=0)
        return memo[e]

    return {e: h(e) for e in f.elems}


@dataclass
class LatticeSpec:
    """A product lattice with its text-format stanzas and known class."""

    labels: list  # element order as written
    covers: list
    neg: dict
    valuation: dict
    prob: dict
    flags: frozenset
    atoms: list
    bottom: str
    top: str
    name: str = ""

    @property
    def n(self):
        return len(self.labels)


def product(names, rng):
    """Product of named factors, relabelled and reordered from ``rng``."""
    factors = [factor(nm, rng) for nm in names]
    heights = [_heights(f) for f in factors]
    mix = weights(rng, len(factors))
    up = [{e: [] for e in f.elems} for f in factors]
    for f, u in zip(factors, up):
        for a, b in f.covers:
            u[a].append(b)
    tuples = list(itertools.product(*(f.elems for f in factors)))
    ids = rng.sample(range(10 * len(tuples), 100 * len(tuples)), len(tuples))
    label = {t: f"e{i}" for t, i in zip(tuples, ids)}
    covers = []
    for t in tuples:
        for k, u in enumerate(up):
            for b in u[t[k]]:
                covers.append((label[t], label[t[:k] + (b,) + t[k + 1 :]]))
    bottom = tuple(f.elems[0] for f in factors)
    atoms = [c for a, c in covers if a == label[bottom]]
    top = label[tuple(f.elems[-1] for f in factors)]
    flags = frozenset.intersection(*(f.flags for f in factors))
    order = [label[t] for t in tuples]
    rng.shuffle(order)
    rng.shuffle(covers)
    return LatticeSpec(
        labels=order,
        covers=covers,
        neg={label[t]: label[tuple(f.neg[x] for f, x in zip(factors, t))] for t in tuples},
        valuation={label[t]: sum(h[x] for h, x in zip(heights, t)) for t in tuples},
        prob={
            label[t]: sum((w * f.prob[x] for w, f, x in zip(mix, factors, t)), Fraction(0))
            for t in tuples
        },
        flags=flags,
        atoms=atoms,
        bottom=label[bottom],
        top=top,
    )


def drop_top(spec: LatticeSpec) -> LatticeSpec:
    """The poset without its top: the coatoms then have no join."""
    keep = [e for e in spec.labels if e != spec.top]
    return LatticeSpec(
        labels=keep,
        covers=[(a, b) for a, b in spec.covers if b != spec.top],
        neg={},
        valuation={},
        prob={},
        flags=frozenset({"non-lattice"}),
        atoms=spec.atoms,
        bottom=spec.bottom,
        top="",
    )


def to_text(spec: LatticeSpec, name: str) -> str:
    lines = [f"lattice {name}", "elements " + " ".join(spec.labels)]
    for k in range(0, len(spec.covers), 16):
        lines.append("covers " + " ".join(f"{a}<{b}" for a, b in spec.covers[k : k + 16]))
    if spec.neg:
        if "ortho" in spec.flags or "broken-ortho" in spec.flags:
            seen = set()
            pairs = []
            for a in spec.labels:
                if a not in seen:
                    seen.update((a, spec.neg[a]))
                    pairs.append(f"{a}:{spec.neg[a]}")
            lines.append("ortho " + " ".join(pairs))
        else:
            lines.append("negation " + " ".join(f"{a}->{spec.neg[a]}" for a in spec.labels))
    if spec.valuation:
        lines.append("valuation " + " ".join(f"{a}={spec.valuation[a]}" for a in spec.labels))
    if spec.prob:
        lines.append("prob " + " ".join(f"{a}={spec.prob[a]}" for a in spec.labels))
    return "\n".join(lines) + "\n"

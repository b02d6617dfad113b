"""Law predicates shared by the unit tests and the acceptance suite.

Each helper returns None when the law holds everywhere, or a witness tuple
naming the first failure; the callers assert on None so failures show the
counterexample.
"""

import argparse
import contextlib
import io
import itertools

from primlat.cli import (
    cmd_analyze,
    cmd_classify,
    cmd_dposet,
    cmd_enumerate,
    cmd_hasse,
    cmd_metric,
    cmd_negation,
    cmd_ortho,
    cmd_primorial,
    cmd_probability,
    cmd_project,
    cmd_reduce,
)
from primlat.core import FiniteLattice, FinitePoset, classify, distributive_by_identity
from primlat.primorial import Level, _inclusion_rows, boolean_carrier, reduce_boolean
from primlat.projection import METHODS
from primlat.seqproc import PRESETS


def _idx(lat):
    return range(lat.n)


def lattice_laws(lat: FiniteLattice):
    """Idempotent, commutative, associative, absorptive, both operations."""
    for x in _idx(lat):
        if lat.join_i(x, x) != x or lat.meet_i(x, x) != x:
            return ("idempotent", lat.labels[x])
        for y in _idx(lat):
            if lat.join_i(x, y) != lat.join_i(y, x):
                return ("commutative-join", lat.labels[x], lat.labels[y])
            if lat.meet_i(x, y) != lat.meet_i(y, x):
                return ("commutative-meet", lat.labels[x], lat.labels[y])
            if lat.join_i(x, lat.meet_i(x, y)) != x:
                return ("absorptive-join", lat.labels[x], lat.labels[y])
            if lat.meet_i(x, lat.join_i(x, y)) != x:
                return ("absorptive-meet", lat.labels[x], lat.labels[y])
            for z in _idx(lat):
                if lat.join_i(lat.join_i(x, y), z) != lat.join_i(x, lat.join_i(y, z)):
                    return ("associative-join", lat.labels[x], lat.labels[y], lat.labels[z])
                if lat.meet_i(lat.meet_i(x, y), z) != lat.meet_i(x, lat.meet_i(y, z)):
                    return ("associative-meet", lat.labels[x], lat.labels[y], lat.labels[z])
    return None


def modular_two_identity(lat: FiniteLattice) -> bool:
    """The two-identity axiomatization of modular lattices.

    On something already known to be a lattice the second identity is
    automatic; together they hold iff the lattice is modular.
    """
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                lhs = lat.join_i(lat.meet_i(x, y), lat.meet_i(x, z))
                rhs = lat.meet_i(lat.join_i(lat.meet_i(z, x), y), x)
                if lhs != rhs:
                    return False
                if lat.meet_i(lat.join_i(x, lat.join_i(y, z)), z) != z:
                    return False
    return True


def monotony(lat: FiniteLattice):
    for a in _idx(lat):
        for b in _idx(lat):
            if not lat.leq_i(a, b):
                continue
            for x in _idx(lat):
                for y in _idx(lat):
                    if not lat.leq_i(x, y):
                        continue
                    if not lat.leq_i(lat.meet_i(a, x), lat.meet_i(b, y)):
                        return ("meet", a, b, x, y)
                    if not lat.leq_i(lat.join_i(a, x), lat.join_i(b, y)):
                        return ("join", a, b, x, y)
    return None


def minimax(lat: FiniteLattice, rows, cols, samples):
    """maxmini <= minimax over element grids of the given shape."""
    for grid in samples:
        maxmini = lat.join_all_i(
            [lat.meet_all_i([grid[i][j] for j in range(cols)]) for i in range(rows)]
        )
        minimax_ = lat.meet_all_i(
            [lat.join_all_i([grid[i][j] for i in range(rows)]) for j in range(cols)]
        )
        if not lat.leq_i(maxmini, minimax_):
            return grid
    return None


def distributive_inequalities(lat: FiniteLattice):
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                if not lat.leq_i(
                    lat.join_i(lat.meet_i(x, y), lat.meet_i(x, z)),
                    lat.meet_i(x, lat.join_i(y, z)),
                ):
                    return ("join-super", x, y, z)
                if not lat.leq_i(
                    lat.join_i(x, lat.meet_i(y, z)),
                    lat.meet_i(lat.join_i(x, y), lat.join_i(x, z)),
                ):
                    return ("meet-sub", x, y, z)
                lhs = lat.join_all_i(
                    [lat.meet_i(x, y), lat.meet_i(x, z), lat.meet_i(y, z)]
                )
                rhs = lat.meet_all_i(
                    [lat.join_i(x, y), lat.join_i(x, z), lat.join_i(y, z)]
                )
                if not lat.leq_i(lhs, rhs):
                    return ("median", x, y, z)
    return None


def modular_inequality(lat: FiniteLattice):
    for x in _idx(lat):
        for y in _idx(lat):
            if not lat.leq_i(x, y):
                continue
            for z in _idx(lat):
                if not lat.leq_i(
                    lat.join_i(x, lat.meet_i(y, z)), lat.meet_i(y, lat.join_i(x, z))
                ):
                    return (x, y, z)
    return None


def distributivity_equivalents(lat: FiniteLattice):
    """(disjunctive, conjunctive, median) forms each hold on all triples."""
    disjunctive = conjunctive = median = True
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                if lat.meet_i(x, lat.join_i(y, z)) != lat.join_i(
                    lat.meet_i(x, y), lat.meet_i(x, z)
                ):
                    disjunctive = False
                if lat.join_i(x, lat.meet_i(y, z)) != lat.meet_i(
                    lat.join_i(x, y), lat.join_i(x, z)
                ):
                    conjunctive = False
                if lat.meet_all_i(
                    [lat.join_i(x, y), lat.join_i(x, z), lat.join_i(y, z)]
                ) != lat.join_all_i(
                    [lat.meet_i(x, y), lat.meet_i(x, z), lat.meet_i(y, z)]
                ):
                    median = False
    return disjunctive, conjunctive, median


def bound_identities(lat: FiniteLattice):
    t, b = lat.top_i, lat.bottom_i
    for x in _idx(lat):
        if lat.join_i(x, t) != t or lat.meet_i(x, b) != b:
            return ("bounds", lat.labels[x])
        if lat.join_i(x, b) != x or lat.meet_i(x, t) != x:
            return ("identity", lat.labels[x])
    return None


def distributive_cancellation(lat: FiniteLattice):
    """x∨a == x∨b and x∧a == x∧b force a == b on distributive lattices."""
    for x in _idx(lat):
        for a in _idx(lat):
            for b in _idx(lat):
                if (
                    lat.join_i(x, a) == lat.join_i(x, b)
                    and lat.meet_i(x, a) == lat.meet_i(x, b)
                    and a != b
                ):
                    return (x, a, b)
    return None


def complement_selections(lat: FiniteLattice, report=None):
    """Every total complement-choice function, as index tuples."""
    rep = report or classify(lat)
    per_element = []
    for lab in lat.labels:
        comps = [lat.index(c) for c in rep.complements_of[lab]]
        if not comps:
            return
        per_element.append(comps)
    yield from itertools.product(*per_element)


def classic_ten_hold(lat: FiniteLattice, comp) -> bool:
    """The ten Boolean identity pairs under a fixed complement selection."""
    t, b = lat.top_i, lat.bottom_i
    if lattice_laws(lat) is not None or bound_identities(lat) is not None:
        return False
    for x in _idx(lat):
        if lat.join_i(x, comp[x]) != t or lat.meet_i(x, comp[x]) != b:
            return False
        if comp[comp[x]] != x:
            return False
        for y in _idx(lat):
            if comp[lat.join_i(x, y)] != lat.meet_i(comp[x], comp[y]):
                return False
            if comp[lat.meet_i(x, y)] != lat.join_i(comp[x], comp[y]):
                return False
            for z in _idx(lat):
                if lat.join_i(x, lat.meet_i(y, z)) != lat.meet_i(
                    lat.join_i(x, y), lat.join_i(x, z)
                ):
                    return False
                if lat.meet_i(x, lat.join_i(y, z)) != lat.join_i(
                    lat.meet_i(x, y), lat.meet_i(x, z)
                ):
                    return False
    return True


def huntington_fourth_holds(lat: FiniteLattice, comp) -> bool:
    """Idempotent/commutative/associative joins plus Huntington's identity."""
    for x in _idx(lat):
        if lat.join_i(x, x) != x:
            return False
        for y in _idx(lat):
            if lat.join_i(x, y) != lat.join_i(y, x):
                return False
            lhs = lat.join_i(
                comp[lat.join_i(comp[x], comp[y])], comp[lat.join_i(comp[x], y)]
            )
            if lhs != x:
                return False
            for z in _idx(lat):
                if lat.join_i(lat.join_i(x, y), z) != lat.join_i(x, lat.join_i(y, z)):
                    return False
    return True


def commutes_pairs(lat: FiniteLattice, perm):
    out = set()
    for i in _idx(lat):
        for j in _idx(lat):
            if lat.join_i(lat.meet_i(i, j), lat.meet_i(i, perm[j])) == i:
                out.add((i, j))
    return out


def orthomodular_forms(lat: FiniteLattice, perm):
    """The equivalent characterizations: symmetry of commutes, the
    orthomodular identity, the Sasaki fixed-point form, and the two
    unconditional identities."""
    comm = commutes_pairs(lat, perm)
    symmetric = all((j, i) in comm for i, j in comm)
    om_identity = all(
        lat.join_i(i, lat.meet_i(perm[i], j)) == j
        for i in _idx(lat)
        for j in _idx(lat)
        if lat.leq_i(i, j)
    )
    sasaki_form = all(
        lat.meet_i(j, lat.join_i(i, perm[j])) == i
        for i in _idx(lat)
        for j in _idx(lat)
        if lat.leq_i(i, j)
    )
    form4 = all(
        lat.join_i(lat.meet_i(i, j), lat.meet_i(j, perm[lat.meet_i(i, j)])) == j
        for i in _idx(lat)
        for j in _idx(lat)
    )
    form5 = all(
        lat.meet_i(lat.join_i(i, j), lat.join_i(i, perm[lat.join_i(i, j)])) == i
        for i in _idx(lat)
        for j in _idx(lat)
    )
    return symmetric, om_identity, sasaki_form, form4, form5


def elkan_law(lat: FiniteLattice, perm) -> bool:
    return all(
        perm[lat.meet_i(x, perm[y])] == lat.join_i(y, lat.meet_i(perm[x], perm[y]))
        for x in _idx(lat)
        for y in _idx(lat)
    )


# ---------------------------------------------------------------------------
# reference loops for the byte-row kernels: one Python step per element


def distributive_identity_loop(lat: FiniteLattice) -> bool:
    J, M = lat.join_table, lat.meet_table
    for x in _idx(lat):
        for y in _idx(lat):
            for z in _idx(lat):
                if M[x][J[y][z]] != J[M[x][y]][M[x][z]]:
                    return False
    return True


def modular_identity_loop(lat: FiniteLattice) -> bool:
    J, M = lat.join_table, lat.meet_table
    for x in _idx(lat):
        for y in _idx(lat):
            if not lat.leq_i(x, y):
                continue
            for z in _idx(lat):
                if J[x][M[z][y]] != M[J[x][z]][y]:
                    return False
    return True


def distributive_triples_loop(lat: FiniteLattice):
    J, M, L = lat.join_table, lat.meet_table, lat.labels
    return frozenset(
        (L[x], L[y], L[z])
        for x in _idx(lat)
        for y in _idx(lat)
        for z in _idx(lat)
        if M[x][J[y][z]] == J[M[x][y]][M[x][z]]
    )


def modular_pairs_loop(lat: FiniteLattice):
    J, M, L = lat.join_table, lat.meet_table, lat.labels
    return frozenset(
        (L[x], L[y])
        for x in _idx(lat)
        for y in _idx(lat)
        if all(M[y][J[x][a]] == J[M[y][x]][a] for a in _idx(lat) if lat.leq_i(a, y))
    )


def de_morgan_rows_loop(lat: FiniteLattice, perm):
    """Per i, the rows over j of ¬(i∨j), ¬i∧¬j, ¬(i∧j), ¬i∨¬j."""
    J, M = lat.join_table, lat.meet_table
    return [
        (
            bytes(perm[J[i][j]] for j in _idx(lat)),
            bytes(M[perm[i]][perm[j]] for j in _idx(lat)),
            bytes(perm[M[i][j]] for j in _idx(lat)),
            bytes(J[perm[i]][perm[j]] for j in _idx(lat)),
        )
        for i in _idx(lat)
    ]


def gate_loop(lat: FiniteLattice):
    """Disjoint pairs that distribute with every z in both dual senses."""
    J, M, bot = lat.join_table, lat.meet_table, lat.bottom_i
    gated = set()
    for i in _idx(lat):
        for j in _idx(lat):
            if M[i][j] != bot:
                continue
            if all(
                M[z][J[i][j]] == J[M[z][i]][M[z][j]] and J[z][M[i][j]] == M[J[z][i]][J[z][j]]
                for z in _idx(lat)
            ):
                gated.add((i, j))
    return gated


def metric_axiom_failure_loop(t):
    """First metric axiom a square table breaks, checked in rationals."""
    n = len(t)
    for i in range(n):
        if t[i][i] != 0:
            return "metric must vanish on the diagonal"
        for j in range(n):
            if t[i][j] < 0:
                return "metric must be non-negative"
            if (t[i][j] == 0) != (i == j):
                return "metric must be nondegenerate"
            if t[i][j] != t[j][i]:
                return "metric must be symmetric"
            for k in range(n):
                if t[i][j] > t[i][k] + t[k][j]:
                    return "triangle inequality"
    return None


def lattice_tables_loop(poset):
    """Join and meet by scanning for the least upper (greatest lower) bound,
    as padded byte rows: entry k >= n of each row is k."""
    n = poset.n
    up, down = poset.leq_rows, poset.geq_rows

    def least(rows, common):
        for m in range(n):
            if common >> m & 1 and common & ~rows[m] == 0:
                return m
        return None

    join = [list(range(256)) for _ in range(n)]
    meet = [list(range(256)) for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m = least(up, up[i] & up[j])
            if m is None:
                return None, None, (poset.labels[i], poset.labels[j], "no LUB")
            join[i][j] = join[j][i] = m
            m = least(down, down[i] & down[j])
            if m is None:
                return None, None, (poset.labels[i], poset.labels[j], "no GLB")
            meet[i][j] = meet[j][i] = m
    return tuple(map(bytes, join)), tuple(map(bytes, meet)), None


# ---------------------------------------------------------------------------
# reference loop for the structural reduction search


def _complement_pairs(level: Level):
    pairs = []
    for x in level.carrier:
        y = level.complement(x)
        if x < y and x != 0:
            pairs.append((x, y))
    return pairs


def half_size_candidates(level: Level):
    """Every complement-closed half-size carrier holding both bounds: the
    unions of {0, top} with 2^(m-2) - 1 complement pairs."""
    m = len(level.carrier).bit_length() - 1
    for chosen in itertools.combinations(_complement_pairs(level), (1 << (m - 2)) - 1):
        yield tuple(sorted({0, level.full} | {x for pair in chosen for x in pair}))


def atoms_loop(carrier):
    """The minimal nonzero masks of a carrier, ascending."""
    carrier = sorted(carrier)
    return [x for i, x in enumerate(carrier) if x and not any(y and y & x == y for y in carrier[:i])]


def induced_boolean_loop(carrier, size_exp):
    """``_induced_boolean`` with each least upper bound found by popcount:
    the smallest carrier superset of an atom union, which must then lie
    below every other superset."""
    atoms = atoms_loop(carrier)
    if len(atoms) != size_exp:
        return False
    seen = set()
    for s in range(1 << size_exp):
        u = 0
        for k, a in enumerate(atoms):
            if s >> k & 1:
                u |= a
        best = None
        for c in carrier:
            if u & ~c == 0:
                if best is None or bin(c).count("1") < bin(best).count("1"):
                    best = c
        if best is None:
            return False
        for c in carrier:
            if u & ~c == 0 and best & ~c != 0:
                return False  # upper bounds have no least element
        for k, a in enumerate(atoms):
            if (a & ~best == 0) != bool(s >> k & 1):
                return False
        if best in seen:
            return False
        seen.add(best)
    return True


def is_boolean_level_oracle(carrier, top_n) -> bool:
    """Generic induced-order oracle: tables plus bounded/complemented/distributive.

    Independent of the subset-bijection test in ``_induced_boolean``: the
    reference the reduction results are cross-checked against the long way.
    """
    masks = tuple(sorted(carrier))
    n = len(masks)
    rows = _inclusion_rows(masks)
    p = FinitePoset(masks, rows)
    join, meet, witness = p.lattice_tables()
    if witness is not None:
        return False
    bot = masks.index(min(masks))
    top = masks.index(max(masks))
    if rows[bot] != (1 << n) - 1 or p.geq_rows[top] != (1 << n) - 1:
        return False
    for i in range(n):
        if not any(meet[i][jj] == bot and join[i][jj] == top for jj in range(n)):
            return False
    return distributive_by_identity(FiniteLattice(masks, rows, tables=(join, meet)))


def reduce_boolean_loop(level: Level):
    """``reduce_boolean`` by brute force: the candidates whose induced order is
    Boolean, sorted by carrier."""
    m = len(level.carrier).bit_length() - 1
    accepted = sorted(c for c in half_size_candidates(level) if induced_boolean_loop(c, m - 1))
    return tuple(Level(None, level.top_n, c, "boolean") for c in accepted)


def default_chain_loop(n):
    """The default chain's carriers, top first, each step the first level of
    the full enumeration ``reduce_boolean``."""
    chain = [boolean_carrier(n)]
    while len(chain[-1].carrier) > 2:
        chain.append(reduce_boolean(chain[-1])[0])
    return [lvl.carrier for lvl in chain]


def build_parser_reference():
    """The CLI parser as one hand-written block per subcommand, all twelve
    built on every call: the reference for the command table's help and
    usage-error output."""
    parser = argparse.ArgumentParser(
        prog="primlat", description="finite lattice computation engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--n", type=int, required=True)
    family.add_argument(
        "--best-effort", action="store_true", help="accepted and ignored: reduction is exact up to 2^6"
    )

    p = sub.add_parser("classify", help="structural report for a lattice file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ortho", help="validate the ortho stanza and report classes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_ortho)

    p = sub.add_parser("negation", help="classify the negation stanza")
    p.add_argument("file")
    p.set_defaults(fn=cmd_negation)

    p = sub.add_parser("metric", help="validate a valuation and print its metric")
    p.add_argument("file")
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("reduce", parents=[family], help="half-size Boolean sub-levels of a 2^n carrier")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("primorial", parents=[family], help="emit the generated family's members")
    p.add_argument("--choices", help="file of per-step carrier choices (subset literals)")
    p.set_defaults(fn=cmd_primorial)

    p = sub.add_parser("dposet", parents=[family], help="check the difference axioms on the chain")
    p.set_defaults(fn=cmd_dposet)

    p = sub.add_parser("project", parents=[family], help="project a sequence file onto a level")
    p.add_argument("--level", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("probability", help="validate and compare a probability assignment")
    p.add_argument("file", nargs="?")
    p.add_argument("--random-boolean", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_probability)

    p = sub.add_parser("analyze", help="project a FASTA file onto every level")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--method", choices=METHODS, default="ceiling")
    p.add_argument("--window", type=int)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("enumerate", help="count unlabeled lattices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--show", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("hasse", help="emit a DOT Hasse diagram")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_hasse)

    return parser


def parse_reference(argv):
    return build_parser_reference().parse_args(argv)


CLI_COMMANDS = (
    "classify", "ortho", "negation", "metric", "reduce", "primorial",
    "dposet", "project", "probability", "analyze", "enumerate", "hasse",
)

# argument vectors on which argparse exits: help texts and usage errors
PARSER_EXITS = (
    [], ["-h"], ["--help"], ["no-such-command"], ["--n", "3"],
    *([cmd, "-h"] for cmd in CLI_COMMANDS),
    ["reduce"],
    ["project", "--n", "3"],
    ["project", "--n", "3", "--level", "D3", "--method", "nope", "--input", "seq.txt"],
    ["analyze", "--preset", "zz", "--fasta", "g.fa"],
    ["reduce", "--n", "x"],
    ["probability", "--seed"],
    ["classify", "a", "b"],
    ["enumerate", "--n", "3", "extra"],
    ["reduce", "--n", "3", "--bogus"],
)


def exit_outcome(parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} parsed without exiting")

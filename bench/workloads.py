"""The four workloads: seeded inputs, the operation list, and output checks.

``build(name, seed, workdir)`` writes the workload's input files under
``workdir`` and returns a ``Workload``: the CLI operations of one pass in
their seeded order, each with a check that does not depend on the seed.
Sizes and operation mixes are fixed; the seed draws contents, labels,
element orders, weights and the operation order, so a pass costs about the
same on every seed.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import lattices

DEFAULT_SEED = 1
NAMES = ("genome", "lattices", "census", "families")

# Spans (see spans.py) that each workload must fire at least once.
SPANS = {
    "genome": (
        "cli.self", "seqproc.preset", "seqproc.load", "seqproc.analyze", "seqproc.render",
        "seqproc.summarize", "projection.project", "primorial.generate", "primorial.reduce",
    ),
    "lattices": (
        "cli.self", "textio.parse", "textio.dot", "core.build", "core.classify",
        "ortho.attach", "ortho.class", "ortho.negation", "ortho.relations",
        "valuation.check", "valuation.metric", "probability.validate", "probability.report",
    ),
    "census": (
        "cli.self", "textio.parse", "core.build", "core.classify", "core.enumerate",
        "ortho.negation", "ortho.relations", "probability.validate", "probability.report",
    ),
    "families": (
        "cli.self", "primorial.reduce", "primorial.generate", "primorial.dposet",
        "projection.project",
    ),
}


@dataclass
class Op:
    kind: str  # subcommand
    argv: list
    check: object  # (code, out, err, ctx) -> failure reason or None
    rejected: bool = False  # expected to exit 1 with a diagnostic


@dataclass
class Workload:
    name: str
    ops: list
    profile: dict  # measured input properties
    spans: tuple  # spans the traced passes must fire
    end_of_pass: object = None  # ctx -> list of failure reasons


def build(name, seed, workdir):
    rng = random.Random(f"{name}:{seed}")
    ops, profile, end = _BUILDERS[name](rng, workdir)
    rng.shuffle(ops)
    ops.sort(key=lambda op: op.kind != "primorial")  # stable; project checks read its carriers
    return Workload(name, ops, profile, SPANS[name], end)


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _histogram(values):
    """{value: how many times it occurs}, in increasing order."""
    return {v: values.count(v) for v in sorted(set(values))}


def _expect(code, want, err):
    if code != want:
        return f"exit {code}, expected {want}: {err.strip()[-200:]}"
    return None


def _fields(out):
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in pairs:
            pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# genome: analyze on synthetic FASTA

PRESET_SYMBOLS = {"acgt-atcg": "ACGT", "acgt-plus-x": "ACGTX"}
METHODS = ("zero", "sasaki", "metric", "ceiling")
RECORD_LENGTHS = ((16, 40, 72), (240, 400), (1632,))  # short, medium, long file


def _fasta(rng, symbols, lengths):
    records, text = [], []
    for length in lengths:
        name = f"rec{rng.randrange(10**6)} synthetic"
        seq = "".join(rng.choice(symbols) for _ in range(length))
        records.append((name, seq))
        width = rng.choice((60, 70, 80))
        text.append(f">{name}")
        body = "".join(c.lower() if rng.random() < 0.1 else c for c in seq)
        text.extend(body[k : k + width] for k in range(0, length, width))
    return records, "\n".join(text) + "\n"


def _render_set(text):
    return frozenset(text[1:-1].split(",")) - {""}


def _check_analyze(records, method):
    def check(code, out, err, ctx):
        bad = _expect(code, 0, err)
        if bad:
            return bad
        carriers = {}
        for line in err.splitlines():
            if line.startswith("member "):
                name, _, rest = line[len("member "):].partition(": ")
                carriers[name] = {_render_set(tok) for tok in rest.split()}
        if "L2^2" not in carriers:
            return "no family description on stderr"
        carriers["D2"] = carriers["L2^2"]
        lines = out.splitlines()
        pos = 0
        for name, seq in records:
            if lines[pos : pos + 1] != [f"# record {name}"]:
                return f"missing record header for {name}"
            header = lines[pos + 1].split("\t")
            levels = header[2:]
            if header[:2] != ["position", "input"] or any(lv not in carriers for lv in levels):
                return f"bad pyramid header {header!r}"
            rows = lines[pos + 2 : pos + 2 + len(seq)]
            if len(rows) != len(seq):
                return f"record {name}: {len(rows)} rows for {len(seq)} bases"
            for k, (row, base) in enumerate(zip(rows, seq)):
                cells = row.split("\t")
                if cells[0] != str(k) or cells[1] != "{" + base + "}":
                    return f"record {name} row {k}: bad position or input {cells[:2]!r}"
                for level, cell in zip(levels, cells[2:]):
                    value = _render_set(cell)
                    if value not in carriers[level]:
                        return f"record {name} row {k}: {cell} outside {level}"
                    if method == "zero" and value != ({base} if {base} in carriers[level] else set()):
                        return f"record {name} row {k}: zero projection {cell} onto {level}"
            if f"{name}: length: {len(seq)}" not in err:
                return f"record {name}: summary length missing"
            pos += 2 + len(seq)
        if pos != len(lines):
            return "trailing output"
        return None

    return check


def _genome(rng, workdir):
    ops, lengths = [], []
    for preset, symbols in PRESET_SYMBOLS.items():
        for size, record_lengths in zip(("short", "medium", "long"), RECORD_LENGTHS):
            records, text = _fasta(rng, symbols, record_lengths)
            lengths.extend(record_lengths)
            path = _write(workdir, f"{preset}-{size}.fa", text)
            for method in METHODS:
                argv = ["analyze", "--preset", preset, "--fasta", path, "--method", method]
                if size == "long":
                    argv += ["--window", "200"]
                ops.append(Op("analyze", argv, _check_analyze(records, method)))
    return ops, {"record_lengths": _histogram(lengths), "bases_per_pass": 4 * sum(lengths)}, None


# ---------------------------------------------------------------------------
# lattices: the kernel commands on products of small factors, 16-128 elements

ALL_CMDS = ("classify", "ortho", "negation", "metric", "probability", "hasse")
# (factors, commands, variant); metric is left out above 48 elements, where
# its exact triangle check takes seconds per call.
CORPUS = (
    (("B2",) * 4, ALL_CMDS, "valid"),
    (("B2",) * 5, ALL_CMDS, "valid"),
    (("B2",) * 6, ("classify", "ortho", "negation", "probability", "hasse"), "valid"),
    (("B2",) * 7, ("classify", "negation", "hasse"), "valid"),
    (("C4", "C4"), ALL_CMDS, "valid"),
    (("C3", "C3", "C3"), ALL_CMDS, "valid"),
    (("C4", "C4", "B2"), ALL_CMDS, "valid"),
    (("C4", "C4", "C4"), ("classify", "negation", "probability", "hasse"), "valid"),
    (("M3", "B2", "B2"), ALL_CMDS, "valid"),
    (("M3", "B2", "B2", "B2"), ALL_CMDS, "valid"),
    (("MO2", "B2", "B2"), ALL_CMDS, "valid"),
    (("MO2", "B2", "B2", "B2"), ALL_CMDS, "valid"),
    (("MO2", "B2", "B2", "B2", "B2"), ("classify", "ortho", "negation", "probability", "hasse"), "valid"),
    (("N5", "B2", "B2"), ALL_CMDS, "valid"),
    (("N5", "B2", "B2", "B2"), ALL_CMDS, "valid"),
    (("O6", "B2", "B2"), ALL_CMDS, "valid"),
    (("O6", "B2", "B2", "B2"), ALL_CMDS, "valid"),
    (("HS3", "B2"), ALL_CMDS, "valid"),
    (("HS3", "B2", "B2"), ALL_CMDS, "valid"),
    (("C4", "C4", "B2"), ALL_CMDS, "non-lattice"),
    (("MO2", "B2", "B2"), ALL_CMDS, "non-lattice"),
    (("B2",) * 5, ("ortho", "negation"), "broken-ortho"),
    (("MO2", "B2", "B2", "B2"), ("ortho", "negation"), "broken-ortho"),
    (("C4", "C4", "B2"), ("metric",), "bad-valuation"),
    (("M3", "B2", "B2", "B2"), ("metric",), "bad-valuation"),
    (("B2",) * 5, ("probability",), "bad-prob"),
    (("N5", "B2", "B2", "B2"), ("probability",), "bad-prob"),
    (("O6", "B2", "B2", "B2"), ("probability",), "bad-prob"),
)

ORTHO_CLASSES = (
    ("boolean", "boolean modular-orthocomplemented orthocomplemented orthomodular"),
    ("modular", "modular-orthocomplemented orthocomplemented orthomodular"),
    ("orthomodular", "orthocomplemented orthomodular"),
    ("ortho", "orthocomplemented"),
)


def _lattice_class(flags):
    if "non-lattice" in flags:
        return "non-lattice"
    if "distributive" in flags:
        return "distributive"
    return "modular-only" if "modular" in flags else "non-modular"


def _break_ortho(spec, rng):
    """Re-pair two atoms with each other, and their complements likewise."""
    u, v = rng.sample(spec.atoms, 2)
    spec.neg = dict(spec.neg)
    cu, cv = spec.neg[u], spec.neg[v]
    spec.neg.update({u: v, v: u, cu: cv, cv: cu})
    spec.flags = spec.flags - {"ortho", "orthomodular"} | {"broken-ortho"}


def _break_valuation(spec, rng):
    atom = rng.choice(spec.atoms)
    spec.valuation = dict(spec.valuation)
    spec.valuation[atom] += Fraction(1, 2)


def _break_prob(spec, rng):
    """Break one of the nondegenerate, normalized or monotone axioms."""
    spec.prob = dict(spec.prob)
    target, value = rng.choice(
        ((spec.bottom, Fraction(1, 7)), (spec.top, Fraction(6, 7)), (rng.choice(spec.atoms), Fraction(3, 2)))
    )
    spec.prob[target] = value


def _expected_rejection(cmd, flags, variant):
    """The diagnostic with which ``cmd`` must exit 1 on this input, or None."""
    if variant == "non-lattice" and cmd not in ("classify", "hasse"):
        return "not a lattice"
    if (cmd, variant) in (("ortho", "broken-ortho"), ("probability", "bad-prob")):
        return "fails at"
    if cmd == "metric" and (variant == "bad-valuation" or "modular" not in flags):
        return "valuation: false"
    return None


def _check_lattice_cmd(cmd, spec, variant, n_covers):
    flags = spec.flags
    rejection = _expected_rejection(cmd, flags, variant)

    def check(code, out, err, ctx):
        if rejection:
            on_stdout = rejection == "valuation: false"
            shown = out if on_stdout else err
            if code != 1 or rejection not in shown or not (on_stdout or err.startswith("error: ")):
                return f"expected exit 1 with {rejection!r}, got exit {code}: {shown.strip()[-120:]!r}"
            return None
        bad = _expect(code, 0, err)
        if bad:
            return bad
        f = _fields(out)
        if cmd == "classify":
            if f.get("elements") != str(spec.n):
                return f"elements {f.get('elements')} != {spec.n}"
            if variant == "non-lattice":
                return None if f.get("is_lattice") == "false" else "non-lattice classified as lattice"
            for key in ("modular", "distributive", "boolean"):
                if f.get(key) != str(key in flags).lower():
                    return f"{key}: {f.get(key)} for a {_lattice_class(flags)} lattice"
        elif cmd == "ortho":
            want = next(classes for flag, classes in ORTHO_CLASSES if flag in flags)
            if f.get("classes") != want:
                return f"ortho classes {f.get('classes')!r} != {want!r}"
        elif cmd == "negation":
            got = set(f.get("classification", "").split())
            if variant == "broken-ortho":
                return "broken ortho map classified ortho" if "ortho" in got else None
            want = {"de_morgan"} | ({"ortho"} if "ortho" in flags else set())
            want |= {"orthomodular"} if "orthomodular" in flags else set()
            if not want <= got or ("ortho" in got) != ("ortho" in flags):
                return f"negation classes {sorted(got)} for flags {sorted(flags)}"
        elif cmd == "metric":
            rows = out.splitlines()
            if rows[:3] != ["valuation: true", "isotone: true", "x\ty\td"]:
                return f"metric header {rows[:3]!r}"
            if len(rows) - 2 != spec.n * spec.n + 1:
                return f"metric TSV has {len(rows) - 2} rows, expected {spec.n * spec.n + 1}"
            if any((r.split("\t")[2] == "0") != (r.split("\t")[0] == r.split("\t")[1]) for r in rows[3:]):
                return "metric distance zero off the diagonal, or nonzero on it"
        elif cmd == "probability":
            if f.get("valid") != "true" or f.get("gated") != "satisfied":
                return f"probability report {out[:80]!r}"
        elif cmd == "hasse":
            lines = out.splitlines()
            if lines[0] != f"digraph {spec.name} {{" or len(lines) != 4 + spec.n + n_covers:
                return f"hasse: {len(lines)} lines for {spec.n} nodes and {n_covers} edges"
        return None

    return check


def _lattices(rng, workdir):
    ops, sizes, mix = [], [], {}
    for k, (factors, cmds, variant) in enumerate(CORPUS):
        spec = lattices.product(factors, rng)
        if variant == "non-lattice":
            spec = lattices.drop_top(spec)
        elif variant == "broken-ortho":
            _break_ortho(spec, rng)
        elif variant == "bad-valuation":
            _break_valuation(spec, rng)
        elif variant == "bad-prob":
            _break_prob(spec, rng)
        spec.name = f"L{k}_{'x'.join(factors)}"
        path = _write(workdir, f"{spec.name}.lat", lattices.to_text(spec, spec.name))
        sizes.append(spec.n)
        cls = _lattice_class(spec.flags) if variant == "valid" else variant
        mix[cls] = mix.get(cls, 0) + 1
        for cmd in cmds:
            if cmd == "ortho" and variant == "valid" and "ortho" not in spec.flags:
                continue
            check = _check_lattice_cmd(cmd, spec, variant, len(spec.covers))
            ops.append(Op(cmd, [cmd, path], check, _expected_rejection(cmd, spec.flags, variant) is not None))
    rejected = sum(op.rejected for op in ops)
    profile = {
        "class_mix": mix,
        "element_counts": _histogram(sizes),
        "rejected_share": round(rejected / len(ops), 4),
    }
    return ops, profile, None


# ---------------------------------------------------------------------------
# census: every lattice with at most 7 elements, relabelled and reordered

LATTICE_COUNTS = (1, 1, 1, 1, 2, 5, 15, 53)  # n = 0..7
COPIES = 6


def small_lattices(n):
    """One strict order on the n - 2 middle elements per lattice class.

    Orders are grown point by point, each new point above an order ideal of
    the earlier ones, which reaches every poset up to isomorphism; a lattice
    is kept when every pair of middles has a least upper and a greatest
    lower bound once bottom and top are adjoined.  Classes are told apart by
    the least relation bit string over all relabellings.
    """
    if n < 2:
        return [()] if n == 1 else []
    k = n - 2
    orders = [()]
    for j in range(k):
        grown = []
        for rows in orders:  # rows[i] = bit set of the points strictly below i
            for down in range(1 << j):
                if all(rows[i] & ~down == 0 for i in range(j) if down >> i & 1):
                    grown.append(rows + (down,))
        orders = grown
    seen = {}
    for below in orders:
        if _is_lattice(below):
            key = min(_relabel_key(below, p) for p in itertools.permutations(range(k)))
            seen.setdefault(key, below)
    return [seen[key] for key in sorted(seen)]


def _is_lattice(below):
    k = len(below)
    above = [sum(1 << j for j in range(k) if below[j] >> i & 1) for i in range(k)]
    for rel in (above, below):
        for x, y in itertools.combinations(range(k), 2):
            common = rel[x] & rel[y] | (1 << x if rel[y] >> x & 1 else 0) | (1 << y if rel[x] >> y & 1 else 0)
            bounds = [z for z in range(k) if common >> z & 1]
            if bounds and not any(all(z == w or rel[z] >> w & 1 for w in bounds) for z in bounds):
                return False
    return True


def _relabel_key(below, perm):
    k = len(below)
    key = 0
    for i in range(k):
        for j in range(k):
            if below[i] >> j & 1:
                key |= 1 << (perm[i] * k + perm[j])
    return key


def _census_text(rng, n, below, name):
    """Lattice file: covers, the bottom/non-bottom negation, atom-filter prob."""
    k = n - 2
    ids = rng.sample(range(100, 1000), max(n, 1))
    bottom, top = f"w{ids[0]}", f"w{ids[-1]}"
    mids = [f"w{i}" for i in ids[1:-1]]
    if n == 1:
        return f"lattice {name}\nelements {bottom}\nnegation {bottom}->{bottom}\n"
    less = [(mids[j], mids[i]) for i in range(k) for j in range(k) if below[i] >> j & 1]
    covers = [(a, b) for a, b in less if not any((a, m) in less and (m, b) in less for m in mids)]
    minimal = [m for m in mids if not any(b == m for _, b in less)]
    maximal = [m for m in mids if not any(a == m for a, _ in less)]
    covers += [(bottom, m) for m in minimal] + [(m, top) for m in maximal]
    if not mids:
        covers = [(bottom, top)]
    rng.shuffle(covers)
    labels = [bottom, top] + mids
    rng.shuffle(labels)
    atoms = minimal or [top]
    weights = lattices.weights(rng, len(atoms))
    ups = {m: {m} | {b for a, b in less if a == m} for m in mids}
    ups[top] = {top}
    prob = {bottom: 0}
    for e in mids + [top]:
        prob[e] = sum((w for a, w in zip(atoms, weights) if e == top or e in ups.get(a, {a})), Fraction(0))
    neg = {e: (top if e == bottom else bottom) for e in labels}
    lines = [
        f"lattice {name}",
        "elements " + " ".join(labels),
        "covers " + " ".join(f"{a}<{b}" for a, b in covers),
        "negation " + " ".join(f"{a}->{neg[a]}" for a in labels),
        "prob " + " ".join(f"{a}={prob[a]}" for a in labels),
    ]
    return "\n".join(lines) + "\n"


_INVARIANTS = ("elements", "height", "length", "width", "atomic", "anti_atomic",
               "modular", "distributive", "complementation", "boolean")


def _check_census_classify(n, ident, boolean):
    def check(code, out, err, ctx):
        bad = _expect(code, 0, err)
        if bad:
            return bad
        f = _fields(out)
        if f.get("elements") != str(n):
            return f"elements {f.get('elements')} != {n}"
        if boolean and (f.get("distributive"), f.get("boolean")) != ("true", "true"):
            return "Boolean lattice not classified distributive and Boolean"
        got = tuple(f.get(key) for key in _INVARIANTS)
        first = ctx.setdefault("classes", {}).setdefault(ident, got)
        if got != first:
            return f"relabelled copy of {ident} classified differently: {got} != {first}"
        return None

    return check


def _check_census_negation(n):
    want = "fuzzy intuitionistic minimal subminimal"
    if n <= 2:
        want = "de_morgan fuzzy intuitionistic kleene minimal ortho orthomodular subminimal"

    def check(code, out, err, ctx):
        bad = _expect(code, 0, err)
        if bad:
            return bad
        got = _fields(out).get("classification")
        return None if got == want else f"negation classes {got!r} != {want!r}"

    return check


def _check_census_probability(code, out, err, ctx):
    bad = _expect(code, 0, err)
    if bad:
        return bad
    f = _fields(out)
    if f.get("valid") != "true" or any(
        f.get(name) not in ("satisfied", "violated")
        for name in ("measure-theoretic", "traditional", "generalized", "quantum", "gated")
    ):
        return f"probability report {out[:80]!r}"
    return None


def _check_enumerate(n):
    def check(code, out, err, ctx):
        bad = _expect(code, 0, err)
        if bad:
            return bad
        words = out.split()
        if words[:2] != ["lattices:", str(LATTICE_COUNTS[n])]:
            return f"enumerate --n {n}: {out.strip()!r}"
        ctx.setdefault("enumerate", {})[n] = out.split("\n")[0]
        return None

    return check


def _census_end(ctx):
    """enumerate's modular/distributive counts must match classify's."""
    failures = []
    for n, line in sorted(ctx.get("enumerate", {}).items()):
        classes = [v for (m, _), v in ctx.get("classes", {}).items() if m == n]
        if n < 1 or len(classes) != LATTICE_COUNTS[n]:
            continue
        modular = sum(v[_INVARIANTS.index("modular")] == "true" for v in classes)
        distributive = sum(v[_INVARIANTS.index("distributive")] == "true" for v in classes)
        want = f"lattices: {LATTICE_COUNTS[n]} modular: {modular} distributive: {distributive}"
        if line != want:
            failures.append(f"enumerate --n {n} says {line!r}, classify says {want!r}")
    return failures


def _census(rng, workdir):
    ops, sizes = [], []
    for n in range(1, 8):
        classes = small_lattices(n)
        if len(classes) != LATTICE_COUNTS[n]:
            raise RuntimeError(f"census generator found {len(classes)} lattices on {n} elements")
        for c, below in enumerate(classes):
            boolean = n == 2 or (n == 4 and below == (0, 0))
            for copy in range(COPIES):
                name = f"n{n}_{c}_{copy}"
                path = _write(workdir, f"{name}.lat", _census_text(rng, n, below, name))
                sizes.append(n)
                ops.append(Op("classify", ["classify", path], _check_census_classify(n, (n, c), boolean)))
                ops.append(Op("negation", ["negation", path], _check_census_negation(n)))
                if n >= 2:
                    ops.append(Op("probability", ["probability", path], _check_census_probability))
    for n in range(len(LATTICE_COUNTS)):
        ops.append(Op("enumerate", ["enumerate", "--n", str(n)], _check_enumerate(n)))
    return ops, {"element_counts": _histogram(sizes), "lattice_files": len(sizes)}, _census_end


# ---------------------------------------------------------------------------
# families: reduction, generation, D-poset laws and projections

REDUCTION_COUNTS = {2: 1, 3: 3, 4: 10, 5: 50, 6: 471}
LAWS = ("axiom-1", "axiom-2", "axiom-3", "axiom-4", "derived-1", "derived-2", "derived-3", "derived-4")
PROJECT_N6 = 4  # n = 6 project calls per pass, one per method: each rebuilds the family


def _masks(text):
    return frozenset(text[1:-1].split(",")) - {""}


def _check_reduce(n):
    full = frozenset(str(a) for a in range(1, n + 1))

    def check(code, out, err, ctx):
        bad = _expect(code, 0, err)
        if bad:
            return bad
        lines = out.splitlines()
        count = REDUCTION_COUNTS[n]
        if lines[-1:] != [f"count: {count}"] or len(lines) != count + 1:
            return f"reduce --n {n}: {len(lines) - 1} carriers, last line {lines[-1:]!r}"
        for line in lines[:-1]:
            carrier = {_masks(tok) for tok in line.split()}
            if len(carrier) != 1 << (n - 1) or frozenset() not in carrier or full not in carrier:
                return f"reduce --n {n}: bad carrier {line[:60]!r}"
        return None

    return check


def _check_primorial(n):
    def check(code, out, err, ctx):
        bad = _expect(code, 0, err)
        if bad:
            return bad
        names = [f"L2^{m}" for m in range(1, n + 1)] + [f"D{m}" for m in range(3, n + 1)]
        rows = [line.split("\t") for line in out.splitlines()]
        if [r[0] for r in rows] != names:
            return f"primorial --n {n}: members {[r[0] for r in rows]}"
        carriers = {r[0]: {_masks(tok) for tok in r[1].split()} for r in rows}
        ends = {frozenset(), frozenset(str(a) for a in range(1, n + 1))}
        for m in range(1, n + 1):
            if len(carriers[f"L2^{m}"]) != 1 << m or (m > 1 and not carriers[f"L2^{m - 1}"] < carriers[f"L2^{m}"]):
                return f"primorial --n {n}: L2^{m} is not a 2^{m} level of the chain"
            if m >= 3 and carriers[f"D{m}"] != carriers[f"L2^{m}"] - carriers[f"L2^{m - 1}"] | ends:
                return f"primorial --n {n}: D{m} is not the difference level"
        carriers["D2"] = carriers["L2^2"]
        ctx.setdefault("families", {})[n] = carriers
        return None

    return check


def _check_dposet(code, out, err, ctx):
    bad = _expect(code, 0, err)
    if bad:
        return bad
    want = "".join(f"{law}: pass\n" for law in LAWS)
    return None if out == want else f"dposet laws {out!r}"


def _check_project(n, level, method, tokens):
    def check(code, out, err, ctx):
        bad = _expect(code, 0, err)
        if bad:
            return bad
        carriers = ctx.get("families", {}).get(n)
        if carriers is None:
            return f"no checked primorial --n {n} output to compare with"
        rows = out.splitlines()
        if rows[0] != "position\tinput\tprojected" or len(rows) != len(tokens) + 1:
            return f"project: {len(rows) - 1} rows for {len(tokens)} inputs"
        for k, (row, tok) in enumerate(zip(rows[1:], tokens)):
            pos, given, got = row.split("\t")
            value = _masks(got)
            if pos != str(k) or given != tok:
                return f"project row {k}: {row!r}"
            if value not in carriers[level]:
                return f"project row {k}: {got} outside {level}"
            if method == "zero" and value != (_masks(tok) if _masks(tok) in carriers[level] else frozenset()):
                return f"project row {k}: zero projection {got} of {tok}"
        return None

    return check


def _families(rng, workdir):
    ops = []
    for n in sorted(REDUCTION_COUNTS):
        argv = ["reduce", "--n", str(n)] + (["--best-effort"] if n == 6 else [])
        ops.append(Op("reduce", argv, _check_reduce(n)))
    for n in (5, 6):
        extra = ["--best-effort"] if n == 6 else []
        ops.append(Op("primorial", ["primorial", "--n", str(n)] + extra, _check_primorial(n)))
        ops.append(Op("dposet", ["dposet", "--n", str(n)] + extra, _check_dposet))
    lengths, tokens_seen = [], []
    for n in (5, 6):
        levels = [f"L2^{m}" for m in range(1, n + 1)] + [f"D{m}" for m in range(2, n + 1)]
        if n == 6:
            levels = rng.sample(levels, PROJECT_N6)
        offset = rng.randrange(len(METHODS))
        for j, level in enumerate(levels):
            method = METHODS[(j + offset) % len(METHODS)]
            length = rng.randint(6, 14)
            tokens = []
            for _ in range(length):
                mask = rng.randrange(1 << n)
                tokens.append("{" + ",".join(str(a + 1) for a in range(n) if mask >> a & 1) + "}")
            lengths.append(length)
            tokens_seen.extend((n, t) for t in tokens)
            path = _write(workdir, f"seq-{n}-{j}.txt", " ".join(tokens) + "\n")
            argv = ["project", "--n", str(n), "--level", level, "--method", method, "--input", path]
            argv += ["--best-effort"] if n == 6 else []
            ops.append(Op("project", argv, _check_project(n, level, method, tokens)))
    profile = {
        "sequence_lengths": _histogram(lengths),
        "distinct_input_share": round(len(set(tokens_seen)) / len(tokens_seen), 4),
    }
    return ops, profile, None


_BUILDERS = {"genome": _genome, "lattices": _lattices, "census": _census, "families": _families}

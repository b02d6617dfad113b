"""Batch command-line surface.

Machine-readable output (TSV with a header row, key-value report lines)
goes to stdout; human summaries go to stderr.  Exit codes: 0 success, 1
validation failure, 2 usage error.  A command's stdout is written only
once it returns, so an error leaves stdout empty.  Identical inputs and
flags produce byte-identical output; nothing here computes anything the
library does not already expose.
"""

from __future__ import annotations

import argparse
import io
import random
import sys

from .core import MAX_ATOMS, LatticeError, classify, enumerate_lattices, law_witnesses
from .ortho import attach_ortho, classify_negation, ortho_class, relations, relations_of
from .primorial import (
    DPOSET_LAWS,
    boolean_carrier,
    chain_dposet_members,
    check_reduce_bound,
    dposet_check,
    generate_primorial,
    reduce_boolean,
)
from .probability import (
    DEFINITIONS,
    probability_report,
    random_boolean_assignment,
    validate_probability,
)
from .projection import METHODS, project_sequence
from .seqproc import PRESETS, analyze, gsp_preset, load_fasta, pyramid_rows, summarize
from .textio import (
    format_carrier,
    format_mask,
    load_lattice_file,
    parse_choices,
    parse_mask,
    read_text,
    to_dot,
)
from .valuation import check_valuation, metric_from_valuation


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return " ".join(str(v) for v in value)
    return str(value)


def _emit(out, key, value):
    print(f"{key}: {_fmt(value)}", file=out)


def _load_built(path):
    doc = load_lattice_file(path)
    built = doc.build()
    return doc, built


def _require_lattice(built):
    if not built.is_lattice:
        raise LatticeError("input is not a lattice (some pair has no join or meet)")
    return built


def cmd_classify(args, out):
    doc, built = _load_built(args.file)
    rep = classify(built) if built.is_lattice else None
    _emit(out, "lattice", doc.name or args.file)
    _emit(out, "elements", built.n)
    _emit(out, "is_lattice", built.is_lattice)
    if rep is None:
        return 0
    _emit(out, "bounded", rep.is_bounded)
    _emit(out, "bottom", rep.bottom)
    _emit(out, "top", rep.top)
    _emit(out, "atoms", rep.atoms)
    _emit(out, "anti_atoms", rep.anti_atoms)
    _emit(out, "atomic", rep.is_atomic)
    _emit(out, "anti_atomic", rep.is_anti_atomic)
    _emit(out, "height", rep.lattice_height)
    _emit(out, "length", rep.length)
    _emit(out, "width", rep.width)
    for chain in rep.min_chain_partition:
        _emit(out, "chain", "<".join(str(c) for c in chain))
    _emit(out, "modular", rep.is_modular)
    if rep.n5_witness:
        _emit(out, "modular_witness", rep.n5_witness)
    _emit(out, "distributive", rep.is_distributive)
    if rep.distributive_witness:
        _emit(out, "distributive_witness", rep.distributive_witness)
    _emit(out, "complementation", rep.complementation_class)
    _emit(out, "boolean", rep.is_boolean)
    return 0


def cmd_ortho(args, out):
    doc, built = _load_built(args.file)
    _require_lattice(built)
    if not doc.ortho:
        raise LatticeError("no ortho stanza in input")
    ol = attach_ortho(built, doc.ortho)
    _emit(out, "classes", sorted(ortho_class(ol)))
    rel = relations_of(ol)
    _emit(out, "orthogonal_pairs", rel.orthogonal_pairs)
    _emit(out, "center", rel.center)
    return 0


def cmd_negation(args, out):
    doc, built = _load_built(args.file)
    _require_lattice(built)
    neg = doc.negation or doc.ortho
    if not neg:
        raise LatticeError("no negation or ortho stanza in input")
    _emit(out, "classification", sorted(classify_negation(built, neg)))
    rel = relations(built, neg)
    _emit(out, "orthogonal_pairs", rel.orthogonal_pairs)
    _emit(out, "center", rel.center)
    return 0


def cmd_metric(args, out):
    doc, built = _load_built(args.file)
    _require_lattice(built)
    if not doc.valuation:
        raise LatticeError("no valuation stanza in input")
    chk = check_valuation(built, doc.valuation)
    _emit(out, "valuation", chk.is_valuation)
    _emit(out, "isotone", chk.is_isotone)
    if not chk.is_valuation:
        _emit(out, "witness", chk.witness)
        return 1
    if not chk.is_isotone:
        return 1
    metric = metric_from_valuation(built, doc.valuation)
    print("x\ty\td", file=out)
    for a in built.labels:
        for b in built.labels:
            print(f"{a}\t{b}\t{metric.d(a, b)}", file=out)
    return 0


def cmd_reduce(args, out):
    check_reduce_bound(args.n)
    levels = reduce_boolean(boolean_carrier(args.n))
    literal = [format_mask(x) for x in range(1 << args.n)]  # each mask formatted once
    for lvl in levels:
        print(" ".join(literal[x] for x in lvl.carrier), file=out)  # carriers are ascending
    _emit(out, "count", len(levels))
    return 0


def cmd_primorial(args, out):
    choices = parse_choices(read_text(args.choices), args.n) if args.choices else None
    pl = generate_primorial(args.n, choices=choices)
    for name in pl.member_names():
        print(f"{name}\t{format_carrier(pl.level(name).carrier)}", file=out)
    return 0


def cmd_dposet(args, out):
    pl = generate_primorial(args.n)
    members, diff, leq = chain_dposet_members(pl)
    failures = dposet_check(members, diff, leq)
    for law in DPOSET_LAWS:
        _emit(out, law, "fail" if law in failures else "pass")
    return 1 if failures else 0


def cmd_project(args, out):
    pl = generate_primorial(args.n)
    tokens = read_text(args.input).split()
    items = [parse_mask(tok, args.n) for tok in tokens]
    pl.level(args.level)  # an unknown member fails even on an empty input
    projected = project_sequence(pl, args.level, items, args.method)
    print("position\tinput\tprojected", file=out)
    for k, (x, y) in enumerate(zip(items, projected)):
        print(f"{k}\t{format_mask(x)}\t{format_mask(y)}", file=out)
    return 0


def cmd_probability(args, out):
    if args.random_boolean is not None and args.file is not None:
        raise LatticeError("probability takes a lattice file or --random-boolean N, not both")
    if args.random_boolean is not None:
        if not 1 <= args.random_boolean <= MAX_ATOMS:
            raise LatticeError(
                f"--random-boolean needs 1 <= N <= {MAX_ATOMS}, got {args.random_boolean}"
            )
        lat = boolean_carrier(args.random_boolean).lattice
        full = (1 << args.random_boolean) - 1
        neg = {x: full ^ x for x in lat.labels}
        values = random_boolean_assignment(lat, random.Random(args.seed))
        _emit(out, "seed", args.seed)
    else:
        if not args.file:
            raise LatticeError("probability needs a lattice file or --random-boolean N")
        doc, lat = _load_built(args.file)
        _require_lattice(lat)
        neg = doc.negation or doc.ortho
        if not neg:
            raise LatticeError("no negation or ortho stanza in input")
        if not doc.prob:
            raise LatticeError("no prob stanza in input")
        values = doc.prob
    pa = validate_probability(lat, neg, values)
    _emit(out, "valid", True)
    report = probability_report(pa)
    for name in DEFINITIONS:
        verdict = report[name]
        _emit(out, name, "satisfied" if verdict.satisfied else "violated")
        if verdict.witness:
            what, elems, lhs, rhs = verdict.witness
            _emit(out, f"{name}_witness", f"{what} at {_fmt(elems)}: {lhs} != {rhs}")
    return 0


def cmd_analyze(args, out):
    if args.window is not None and args.window < 1:
        raise LatticeError(f"--window needs N >= 1, got {args.window}")
    preset = gsp_preset(args.preset)
    records = load_fasta(read_text(args.fasta).split("\n"), preset.alphabet)
    for line in preset.describe():
        print(line, file=sys.stderr)
    for name, tokens in records:
        pyramid = analyze(preset.primorial, preset.alphabet, tokens, args.method)
        out.write(f"# record {name}\n")
        out.writelines(f"{row}\n" for row in map("\t".join, pyramid_rows(pyramid, preset.alphabet)))
        summary = summarize(pyramid, preset.alphabet, preset.primorial, args.window)
        sys.stderr.write("".join(f"{name}: {line}\n" for line in summary))
    return 0


def cmd_enumerate(args, out):
    lats = enumerate_lattices(args.n)
    if args.n == 0:
        print("lattices: 1 modular: 1 distributive: 1", file=out)
        return 0
    witnesses = [law_witnesses(lat) for lat in lats]
    modular = sum(1 for n5, _ in witnesses if n5 is None)
    distributive = sum(1 for _, witness in witnesses if witness is None)
    print(f"lattices: {len(lats)} modular: {modular} distributive: {distributive}", file=out)
    if args.show:
        for lat in lats:
            covers = " ".join(f"{a}<{b}" for a, b in lat.covers)
            print(covers, file=out)
    return 0


def cmd_hasse(args, out):
    doc, built = _load_built(args.file)
    dot = to_dot(built, name=doc.name or "hasse")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        out.write(dot)
    return 0


def _arg(*flags, **kwargs):
    return flags, kwargs


FILE = (_arg("file"),)
# the --n / --best-effort pair shared by the four family commands
FAMILY = (
    _arg("--n", type=int, required=True),
    _arg("--best-effort", action="store_true", help="accepted and ignored: reduction is exact up to 2^6"),
)

# The one declaration of every subcommand: name -> (handler, help, arguments).
COMMANDS = {
    "classify": (cmd_classify, "structural report for a lattice file", FILE),
    "ortho": (cmd_ortho, "validate the ortho stanza and report classes", FILE),
    "negation": (cmd_negation, "classify the negation stanza", FILE),
    "metric": (cmd_metric, "validate a valuation and print its metric", FILE),
    "reduce": (cmd_reduce, "half-size Boolean sub-levels of a 2^n carrier", FAMILY),
    "primorial": (cmd_primorial, "emit the generated family's members", FAMILY + (
        _arg("--choices", help="file of per-step carrier choices (subset literals)"),
    )),
    "dposet": (cmd_dposet, "check the difference axioms on the chain", FAMILY),
    "project": (cmd_project, "project a sequence file onto a level", FAMILY + (
        _arg("--level", required=True),
        _arg("--method", choices=METHODS, required=True),
        _arg("--input", required=True),
    )),
    "probability": (cmd_probability, "validate and compare a probability assignment", (
        _arg("file", nargs="?"),
        _arg("--random-boolean", type=int, metavar="N"),
        _arg("--seed", type=int, default=0),
    )),
    "analyze": (cmd_analyze, "project a FASTA file onto every level", (
        _arg("--preset", choices=PRESETS, required=True),
        _arg("--fasta", required=True),
        _arg("--method", choices=METHODS, default="ceiling"),
        _arg("--window", type=int),
    )),
    "enumerate": (cmd_enumerate, "count unlabeled lattices", (
        _arg("--n", type=int, required=True),
        _arg("--show", action="store_true"),
    )),
    "hasse": (cmd_hasse, "emit a DOT Hasse diagram", FILE + (_arg("-o", "--output"),)),
}


def build_parser(only=None):
    """The ``primlat`` parser built from COMMANDS; with ``only``, it holds
    just that subcommand, so a call pays for one subparser, not twelve, and
    its usage line still names every command."""
    parser = argparse.ArgumentParser(
        prog="primlat", description="finite lattice computation engine"
    )
    metavar = "{" + ",".join(COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (only,) if only else COMMANDS:
        fn, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    out = io.StringIO()  # written only once the command returns
    try:
        code = args.fn(args, out)
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

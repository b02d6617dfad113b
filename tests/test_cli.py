import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PARSER_EXITS, enumerate_lattices_loop, exit_outcome, parse_reference, reduce_boolean_loop
from primlat import cli, core, valuation
from primlat.cli import main
from primlat.core import LatticeError, build_lattice
from primlat.textio import parse_lattice_text
from primlat.valuation import metric_from_valuation
from primlat.primorial import boolean_carrier
from primlat.textio import format_carrier

N5_TEXT = """\
lattice N5
elements 0 a b p 1
covers 0<a a<b b<1 0<p p<1
"""

O6_TEXT = """\
lattice O6
elements 0 p q p' q' 1
covers 0<p 0<q p<q' q<p' q'<1 p'<1
ortho 0:1 p:p' q:q'
valuation 0=0 p=1 q=1 p'=2 q'=2 1=3
prob 0=0 p=1/3 q=1/2 q'=1/2 p'=2/3 1=1
"""


@pytest.fixture
def n5_file(tmp_path):
    path = tmp_path / "n5.lat"
    path.write_text(N5_TEXT)
    return str(path)


@pytest.fixture
def o6_file(tmp_path):
    path = tmp_path / "o6.lat"
    path.write_text(O6_TEXT)
    return str(path)


def test_reduce_output_ends_with_count(capsys):
    assert main(["reduce", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("count: 10")
    assert len(out.rstrip().splitlines()) == 11


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reduce_literals_match_the_carrier_formatter(k, capsys):
    # reduce formats each subset literal once per call; its lines must be
    # the one carrier formatter's text of the brute-force levels
    levels = reduce_boolean_loop(boolean_carrier(k))
    expected = "".join(f"{format_carrier(lvl.carrier)}\n" for lvl in levels) + f"count: {len(levels)}\n"
    assert main(["reduce", "--n", str(k)]) == 0
    assert capsys.readouterr().out == expected


UNSUPPORTED = "error: reduction beyond 2^6 unsupported\n"


def test_reduce_best_effort_flag(capsys):
    # --best-effort is accepted and ignored: 2^6 is exact either way
    assert main(["reduce", "--n", "6"]) == 0
    plain = capsys.readouterr().out
    assert plain.rstrip().endswith("count: 471")
    assert main(["reduce", "--n", "6", "--best-effort"]) == 0
    assert capsys.readouterr().out == plain
    for command in ("primorial", "dposet"):
        assert main([command, "--n", "6"]) == 0
        plain = capsys.readouterr().out
        assert main([command, "--n", "6", "--best-effort"]) == 0
        assert capsys.readouterr().out == plain


@pytest.mark.parametrize("n", ["7", "40", "200"])
def test_oversized_n_fails_before_allocating(n, tmp_path, capsys):
    # the bound is checked before the 2^n carrier is built, so none of
    # these may allocate 2^n masks or escape with a traceback
    seq = tmp_path / "seq.txt"
    seq.write_text("{1}\n")
    project = ["project", "--level", "D3", "--method", "zero", "--input", str(seq)]
    for argv in (["reduce"], ["primorial"], ["dposet"], project):
        for flag in ([], ["--best-effort"]):
            assert main(argv + ["--n", n] + flag) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == UNSUPPORTED


def test_enumerate_line(capsys):
    assert main(["enumerate", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "lattices: 15 modular: 8 distributive: 5"


# OEIS A006966, A006981 and A006982: all, modular and distributive lattices
OEIS_COUNTS = ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1), (2, 2, 2), (5, 4, 3),
               (15, 8, 5), (53, 16, 8), (222, 34, 15), (1078, 72, 26))


@pytest.mark.parametrize("n", range(len(OEIS_COUNTS)))
def test_enumerate_counts_match_oeis(n, capsys):
    assert main(["enumerate", "--n", str(n)]) == 0
    want = "lattices: {} modular: {} distributive: {}\n".format(*OEIS_COUNTS[n])
    assert capsys.readouterr().out == want


def test_enumerate_counts_without_classify(monkeypatch, capsys):
    # the counts come from the two law routes alone, never from a full report
    def fail(lat):
        raise AssertionError("enumerate called classify")

    monkeypatch.setattr(cli, "classify", fail)
    for n, counts in enumerate(OEIS_COUNTS):
        assert main(["enumerate", "--n", str(n)]) == 0
        assert capsys.readouterr().out == "lattices: {} modular: {} distributive: {}\n".format(*counts)


@pytest.mark.parametrize("show", [[], ["--show"]])
@pytest.mark.parametrize("n", range(8))
def test_enumerate_output_matches_labelled_walk(n, show, monkeypatch, capsys):
    argv = ["enumerate", "--n", str(n), *show]
    assert main(argv) == 0
    got = capsys.readouterr()
    monkeypatch.setattr(cli, "enumerate_lattices", enumerate_lattices_loop)
    assert main(argv) == 0
    want = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)


def test_enumerate_beyond_cap_fails_with_one_line(capsys):
    assert main(["enumerate", "--n", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: element count 11 outside supported range 0..10\n"


@pytest.mark.parametrize("n", range(5))
def test_enumerate_show_prints_one_cover_line_per_class(n, capsys):
    # n = 0 included: its one class, the empty lattice, has an empty cover list
    assert main(["enumerate", "--n", str(n), "--show"]) == 0
    head, *shown = capsys.readouterr().out.split("\n")[:-1]
    assert head == "lattices: {} modular: {} distributive: {}".format(*OEIS_COUNTS[n])
    assert len(shown) == OEIS_COUNTS[n][0]


def test_classify_reports_modularity_witness(n5_file, capsys):
    assert main(["classify", n5_file]) == 0
    out = capsys.readouterr().out
    assert "modular: false" in out
    assert "modular_witness: 0 a b p 1" in out


def test_cli_is_deterministic(n5_file, capsys):
    main(["classify", n5_file])
    first = capsys.readouterr().out
    main(["classify", n5_file])
    second = capsys.readouterr().out
    assert first == second


def test_ortho_and_negation_commands(o6_file, capsys):
    assert main(["ortho", o6_file]) == 0
    out = capsys.readouterr().out
    assert "classes: orthocomplemented" in out
    assert "orthogonal_pairs: 9" in out
    assert main(["negation", o6_file]) == 0
    out = capsys.readouterr().out
    assert "ortho" in out and "orthomodular" not in out


def test_metric_command_accepts_and_rejects(o6_file, tmp_path, capsys):
    # the hexagon heights are not a valuation: validation failure exit
    assert main(["metric", o6_file]) == 1
    out = capsys.readouterr().out
    assert "valuation: false" in out and "witness: p q" in out

    good = tmp_path / "sq.lat"
    good.write_text(
        "lattice SQ\nelements 0 a b 1\ncovers 0<a 0<b a<1 b<1\n"
        "valuation 0=0 a=1 b=1 1=2\n"
    )
    assert main(["metric", str(good)]) == 0
    out = capsys.readouterr().out
    assert "x\ty\td" in out
    assert "a\tb\t2" in out


def _valued_text(name, labels, covers, value):
    return "\n".join([
        f"lattice {name}",
        " ".join(["elements", *labels]),
        " ".join(["covers", *(f"{a}<{b}" for a, b in covers)]),
        " ".join(["valuation", *(f"{x}={value(x)}" for x in labels)]),
    ]) + "\n"


def _fractional_valuations():
    """Lattice texts with strictly isotone valuations of mixed denominators:
    2^3, the chain product 3 x 4 and M3 x 2."""
    w = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 4))
    b3 = [f"s{x}" for x in range(8)]
    yield _valued_text(
        "b3", b3, [(f"s{x}", f"s{x | 1 << b}") for x in range(8) for b in range(3) if not x >> b & 1],
        lambda s: sum((w[b] for b in range(3) if int(s[1:]) >> b & 1), Fraction(0)),
    )
    steps = ((Fraction(0), Fraction(3, 4), Fraction(7, 6)), (Fraction(0), Fraction(1, 5), Fraction(9, 10), 2))
    grid = [f"a{i}b{j}" for i in range(3) for j in range(4)]
    yield _valued_text(
        "grid", grid,
        [(f"a{i}b{j}", f"a{i + 1}b{j}") for i in range(2) for j in range(4)]
        + [(f"a{i}b{j}", f"a{i}b{j + 1}") for i in range(3) for j in range(3)],
        lambda s: steps[0][int(s[1])] + steps[1][int(s[3])],
    )
    height = {"0": 0, "p": 1, "q": 1, "r": 1, "1": 2}
    m3 = [f"{x}{m}" for x in height for m in range(2)]
    yield _valued_text(
        "m3x2", m3,
        [(f"0{m}", f"{x}{m}") for x in "pqr" for m in range(2)]
        + [(f"{x}{m}", f"1{m}") for x in "pqr" for m in range(2)]
        + [(f"{x}0", f"{x}1") for x in height],
        lambda s: Fraction(height[s[0]], 3) + Fraction(int(s[1]) * 5, 7),
    )


@pytest.mark.parametrize("text", list(_fractional_valuations()), ids=["b3", "grid", "m3x2"])
def test_metric_table_prints_as_the_distance_per_pair(text, tmp_path, capsys):
    """The TSV read off the table by index, each distinct value formatted
    once, is byte for byte the one that ``metric.d(a, b)`` gives per pair."""
    doc = parse_lattice_text(text)
    lat = build_lattice(doc.elements, doc.covers)
    metric = metric_from_valuation(lat, doc.valuation)
    assert metric.scale > 1
    want = "valuation: true\nisotone: true\nx\ty\td\n" + "".join(
        f"{a}\t{b}\t{metric.d(a, b)}\n" for a in lat.labels for b in lat.labels
    )
    path = tmp_path / "v.lat"
    path.write_text(text)
    assert main(["metric", str(path)]) == 0
    assert capsys.readouterr().out == want


def test_metric_scans_the_valuation_once(tmp_path, monkeypatch, capsys):
    # the law and isotonicity are one check_valuation, whose law scan is
    # modular_failure; the metric is built from that check
    scans = []
    scan = valuation.modular_failure
    monkeypatch.setattr(valuation, "modular_failure", lambda lat, vi: scans.append(lat.n) or scan(lat, vi))
    path = tmp_path / "b3.lat"
    path.write_text(next(_fractional_valuations()))
    assert main(["metric", str(path)]) == 0
    assert scans == [8]


def test_metric_command_rejects_a_flat_valuation(tmp_path, capsys):
    # valuation and isotone both hold, but d(a, b) would be 0
    path = tmp_path / "flat.lat"
    path.write_text("lattice F\nelements a b\ncovers a<b\nvaluation a=0 b=0\n")
    assert main(["metric", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: valuation not strictly isotone at ('a', 'b')\n"


def test_probability_command_file_and_random(o6_file, capsys):
    assert main(["probability", o6_file]) == 0
    out = capsys.readouterr().out
    assert "traditional: violated" in out
    assert "1 != 5/6" in out
    assert "gated: satisfied" in out

    assert main(["probability", "--random-boolean", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "valid: true" in out
    assert "traditional: satisfied" in out


@pytest.mark.parametrize("n", ["0", "9", "200"])
def test_random_boolean_size_is_checked_first(n, capsys):
    assert main(["probability", "--random-boolean", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --random-boolean needs 1 <= N <= 8, got {n}\n"


# 2^3 with set complement and p({1,2}) raised by 1/100: additivity fails at
# (s1, s2), (s3, s4) and their mirrors
B3_BUMPED_TEXT = """\
lattice b3
elements s0 s1 s2 s3 s4 s5 s6 s7
covers s0<s1 s0<s2 s0<s4 s1<s3 s1<s5 s2<s3 s2<s6 s4<s5 s4<s6 s3<s7 s5<s7 s6<s7
ortho s0:s7 s1:s6 s2:s5 s3:s4
prob s0=0 s1=1/3 s2=1/3 s3=203/300 s4=1/3 s5=2/3 s6=2/3 s7=1
"""


def test_probability_names_the_first_additivity_failure_in_row_order(tmp_path, capsys):
    path = tmp_path / "b3.lat"
    path.write_text(B3_BUMPED_TEXT)
    assert main(["probability", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: probability axiom 'additive' fails at ('s1', 's2')\n"


def test_probability_refuses_file_and_random_boolean_together(o6_file, capsys):
    assert main(["probability", o6_file, "--random-boolean", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: probability takes a lattice file or --random-boolean N, not both\n"


NOT_A_LATTICE = "error: input is not a lattice (some pair has no join or meet)\n"


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["ortho", "negation", "metric", "probability"])
def test_file_commands_need_a_lattice_first(command, tmp_path, capsys):
    # the file has none of the stanzas either: the lattice check comes first
    path = tmp_path / "v.lat"
    path.write_text("elements 0 a b\ncovers 0<a 0<b\n")
    assert _run([command, str(path)], capsys) == (1, "", NOT_A_LATTICE)


@pytest.mark.parametrize("command, stanzas, error", [
    ("ortho", "", "no ortho stanza"),
    ("ortho", "negation 0->1 1->0\nvaluation 0=0 1=1\nprob 0=0 1=1", "no ortho stanza"),
    ("negation", "", "no negation or ortho stanza"),
    ("negation", "valuation 0=0 1=1\nprob 0=0 1=1", "no negation or ortho stanza"),
    ("metric", "", "no valuation stanza"),
    ("metric", "ortho 0:1\nprob 0=0 1=1", "no valuation stanza"),
    ("probability", "", "no negation or ortho stanza"),
    ("probability", "prob 0=0 1=1", "no negation or ortho stanza"),
    ("probability", "negation 0->1 1->0", "no prob stanza"),
    ("probability", "ortho 0:1", "no prob stanza"),
])
def test_file_commands_name_the_missing_stanza(command, stanzas, error, tmp_path, capsys):
    path = tmp_path / "two.lat"
    path.write_text(f"lattice two\nelements 0 1\ncovers 0<1\n{stanzas}\n")
    assert _run([command, str(path)], capsys) == (1, "", f"error: {error} in input\n")


@pytest.mark.parametrize("command", ["negation", "probability"])
def test_an_ortho_stanza_stands_in_for_a_missing_negation(command, tmp_path, capsys):
    head = O6_TEXT.replace("ortho 0:1 p:p' q:q'\n", "")
    ortho = tmp_path / "ortho.lat"
    ortho.write_text(head + "ortho 0:1 p:p' q:q'\n")
    negation = tmp_path / "negation.lat"
    negation.write_text(head + "negation 0->1 1->0 p->p' p'->p q->q' q'->q\n")
    code, out, err = _run([command, str(ortho)], capsys)
    assert (code, err) == (0, "") and out
    assert _run([command, str(negation)], capsys) == (code, out, err)


def test_probability_needs_a_file_or_random_boolean(capsys):
    want = "error: probability needs a lattice file or --random-boolean N\n"
    assert _run(["probability"], capsys) == (1, "", want)


@pytest.mark.parametrize(
    "command, stanza, error",
    [
        ("ortho", "ortho 0:1 zz:yy", "line 4: unknown element 'zz' in ortho stanza"),
        ("negation", "negation 0->1 1->0 qq->rr", "line 4: unknown element 'qq' in negation stanza"),
        ("probability", "prob 0=0 1=1 ww=5", "line 4: unknown element 'ww' in prob stanza"),
        ("metric", "valuation 0=0 1=1 kk=3", "line 4: unknown element 'kk' in valuation stanza"),
        ("metric", "valuation 0=0 1=1e-9", "line 4: bad rational '1e-9'"),
        ("metric", "valuation 0=0 1=1 1=2", "line 4: conflicting valuation entries for '1'"),
        ("negation", "negation 0->1 1->0 0->0", "line 4: conflicting negation entries for '0'"),
        ("ortho", "ortho 0:1 1:1", "line 4: conflicting ortho entries for '1'"),
        ("classify", "covers 1<zz", "unknown element 'zz' in cover pair"),  # no line: found while building
    ],
    ids=["ortho", "negation", "prob", "valuation", "float", "valuation-conflict",
         "negation-conflict", "ortho-conflict", "covers"],
)
def test_stanza_errors_fail_with_one_line(command, stanza, error, tmp_path, capsys):
    path = tmp_path / "two.lat"
    path.write_text(f"lattice two\nelements 0 1\ncovers 0<1\n{stanza}\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_empty_lattice_file_leaves_stdout_empty(tmp_path, capsys):
    path = tmp_path / "empty.lat"
    path.write_text("lattice nothing\n")
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot classify the empty lattice\n"


def test_more_than_256_elements_fail_with_one_line(tmp_path, capsys):
    labels = [f"c{i}" for i in range(257)]
    path = tmp_path / "chain257.lat"
    path.write_text(
        "elements " + " ".join(labels) + "\ncovers " + " ".join(f"{a}<{b}" for a, b in zip(labels, labels[1:])) + "\n"
    )
    for cmd in ("classify", "hasse"):
        assert main([cmd, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 257 elements exceed the supported maximum of 256\n"


@pytest.mark.parametrize("count, covers", [(257, False), (257, True), (20000, False), (20000, True)])
def test_oversized_lattice_files_fail_before_the_order_is_closed(count, covers, tmp_path, monkeypatch, capsys):
    def closure(rows):
        raise AssertionError(f"the order of {len(rows)} elements was closed")

    monkeypatch.setattr(core, "_closure", closure)
    labels = [f"s{i}" for i in range(count)]
    text = "lattice big\nelements " + " ".join(labels) + "\n"
    if covers:  # a chain, ending in a cover onto an undeclared element
        text += "covers " + " ".join(f"{a}<{b}" for a, b in zip(labels, labels[1:] + ["nowhere"])) + "\n"
    path = tmp_path / "big.lat"
    path.write_text(text)
    for cmd in ("classify", "hasse"):
        assert main([cmd, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {count} elements exceed the supported maximum of 256\n"


def test_primorial_and_dposet_commands(capsys):
    assert main(["primorial", "--n", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("L2^1\t{}")
    assert any(line.startswith("D3\t") for line in lines)
    assert main(["dposet", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "axiom-4: pass" in out and "derived-4: pass" in out


def test_primorial_choices_file(tmp_path, capsys):
    choices = tmp_path / "choices.txt"
    choices.write_text("{} {1} {2,3} {1,2,3}\n")
    assert main(["primorial", "--n", "3", "--choices", str(choices)]) == 0
    out = capsys.readouterr().out
    assert "L2^2\t{} {1} {2,3} {1,2,3}" in out


def test_invalid_choice_is_named_by_level_in_subset_literals(tmp_path, capsys):
    choices = tmp_path / "choices.txt"
    choices.write_text("# not a reduction of 2^3\n\n{} {1} {2} {1,2,3}\n")
    assert main(["primorial", "--n", "3", "--choices", str(choices)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid reduction choice for L2^2: {} {1} {2} {1,2,3}\n"


def test_project_command(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("{1} {} {1,2,3}\n")
    assert main([
        "project", "--n", "3", "--level", "D3", "--method", "zero",
        "--input", str(seq),
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "position\tinput\tprojected"
    assert len(out) == 4
    assert out[3] == "2\t{1,2,3}\t{1,2,3}"


@pytest.mark.parametrize("text", ["{1} {} {1,2,3}\n", ""])
def test_project_unknown_level_writes_no_stdout(text, tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(text)
    assert main([
        "project", "--n", "4", "--level", "L2^9", "--method", "zero",
        "--input", str(seq),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown family member 'L2^9'\n"


def test_project_refuses_atoms_that_are_not_ascii_digits(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("{٣} {0_1}\n", encoding="utf-8")
    assert main([
        "project", "--n", "3", "--level", "L2^2", "--method", "zero",
        "--input", str(seq),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad atom index '٣' in '{٣}'\n"


def test_analyze_command(tmp_path, capsys):
    fasta = tmp_path / "g.fa"
    fasta.write_text(">r\nACGTACGT\n")
    assert main(["analyze", "--preset", "acgt-atcg", "--fasta", str(fasta)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# record r")
    assert "position\tinput" in captured.out
    assert "fraction" in captured.err


@pytest.mark.parametrize("window", ["0", "-3"])
def test_analyze_window_below_one_fails_before_output(window, tmp_path, capsys):
    fasta = tmp_path / "g.fa"
    fasta.write_text(">r\nACGTACGT\n")
    assert main(["analyze", "--preset", "acgt-atcg", "--fasta", str(fasta), "--window", window]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --window needs N >= 1, got {window}\n"


def test_analyze_accepts_crlf_line_endings(tmp_path, capsys):
    outputs = []
    for newline in ("\n", "\r\n"):
        fasta = tmp_path / "g.fa"
        fasta.write_bytes(newline.join([">r one", "ACGTX", "ttgca", ">s", "XA", ""]).encode())
        assert main(["analyze", "--preset", "acgt-plus-x", "--fasta", str(fasta), "--window", "3"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


NOT_UTF8 = (
    ("classify", b"lattice x\nelements a \xff\n", 21),
    ("project", b"{1} \xff\n", 4),
    ("primorial", b"{} {1} \xc3\x28 {1,2,3}\n", 7),
    ("analyze", b">r\nAC\nG\xffT\n", 7),
)


@pytest.mark.parametrize("command, data, offset", NOT_UTF8)
def test_input_that_is_not_utf8_fails_with_one_line(command, data, offset, tmp_path, capsys):
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    argv = {
        "classify": ["classify", str(path)],
        "project": ["project", "--n", "3", "--level", "D3", "--method", "zero", "--input", str(path)],
        "primorial": ["primorial", "--n", "3", "--choices", str(path)],
        "analyze": ["analyze", "--preset", "acgt-atcg", "--fasta", str(path)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "invalid continuation byte" if b"\xc3" in data else "invalid start byte"
    last = f"error: {path}: not UTF-8 text ({reason} at byte {offset})"
    assert captured.err == last + "\n"


@pytest.mark.parametrize("preset", ["acgt-atcg", "acgt-plus-x"])
def test_analyze_foreign_symbol_fails_with_one_line(preset, tmp_path, capsys):
    fasta = tmp_path / "g.fa"
    fasta.write_text(">r\nACGZ\n")
    assert main(["analyze", "--preset", preset, "--fasta", str(fasta)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: record 'r' position 4: symbol 'Z' outside alphabet\n"


def test_hasse_command(n5_file, tmp_path, capsys):
    assert main(["hasse", n5_file]) == 0
    assert "digraph N5" in capsys.readouterr().out
    out_file = tmp_path / "n5.dot"
    assert main(["hasse", n5_file, "-o", str(out_file)]) == 0
    assert "rankdir=BT" in out_file.read_text()


@pytest.mark.parametrize("name, head", [("L3_B2xC4", "L3_B2xC4"), ("2-chain", '"2-chain"')])
def test_hasse_quotes_labels_and_non_identifier_names(name, head, tmp_path, capsys):
    path = tmp_path / "quoted.lat"
    path.write_text(f'lattice {name}\nelements a"b c\ncovers a"b<c\n')
    assert main(["hasse", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"digraph {head} {{"
    assert lines[3:5] == ['  "a\\"b";', '  "c";']


def test_validation_failures_exit_one(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.lat")]) == 1
    bad = tmp_path / "bad.lat"
    bad.write_text("elements x y\ncovers x<y y<x\n")
    assert main(["classify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "antisymmetry" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["reduce"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, "-m", "primlat.cli", "enumerate", "--n", "6"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (
        0, "lattices: 15 modular: 8 distributive: 5\n", ""
    )


HASH_SEED_FILES = {
    "o6.lat": O6_TEXT.replace("ortho 0:1 p:p' q:q'", "negation 0->1 1->0 p->q q->p q'->p' p'->q'"),
    "plus.fa": ">r1 one\nACGTXACGTTGCAX\n>r2 two\nGGCATXTTACG\n",
}


@pytest.mark.parametrize("argv", [
    "reduce --n 5",
    "primorial --n 5",
    "classify $o6.lat",
    "negation $o6.lat",
    "analyze --preset acgt-plus-x --window 4 --fasta $plus.fa",
])
def test_stdout_does_not_depend_on_the_hash_seed(argv, tmp_path):
    # str and bytes hashes, and so set and dict-of-set orders, follow
    # PYTHONHASHSEED; identical inputs must still give identical bytes
    for name, text in HASH_SEED_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    args = [str(tmp_path / word[1:]) if word.startswith("$") else word for word in argv.split()]
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        child = subprocess.run(
            [sys.executable, "-m", "primlat.cli", *args], env=env, capture_output=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        outs.append(child.stdout)
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("n, code", [("6", 0), ("11", 1)])
def test_console_script_entry_exits_with_the_command_code(n, code, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["primlat", "enumerate", "--n", n])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_errors_match_reference(argv):
    assert exit_outcome(main, argv) == exit_outcome(parse_reference, argv)


def test_only_the_named_subcommand_is_built(n5_file, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    for argv in (["classify", n5_file], ["enumerate", "--n", "3"]):
        built.clear()
        assert main(argv) == 0
        assert built == [argv[0]]
    # without a known command the full parser is built; after one, the
    # narrow parser also reports leftover arguments, with the full usage line
    for argv, code, count in (([], 2, 12), (["-h"], 0, 12), (["no-such-command"], 2, 12), (["classify", "a", "b"], 2, 1)):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert len(built) == count


SQ_TEXT = """\
lattice SQ
elements 0 a b 1
covers 0<a 0<b a<1 b<1
ortho 0:1 a:b
valuation 0=0 a=1 b=1 1=2
prob 0=0 a=1/2 b=1/2 1=1
"""


@pytest.mark.parametrize("module, name, command", [
    (cli, "relations_of", "ortho"),
    (cli, "relations", "negation"),
    (cli, "metric_from_valuation", "metric"),
    (cli, "probability_report", "probability"),
])
def test_error_after_output_leaves_stdout_empty(module, name, command, tmp_path, monkeypatch, capsys):
    # each command prints report lines before this call, which then fails
    path = tmp_path / "sq.lat"
    path.write_text(SQ_TEXT)
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out

    def fail(*args, **kwargs):
        raise LatticeError("boom")

    monkeypatch.setattr(module, name, fail)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


_VALUES = ["0", "1", "1/2", "1/3", "2/3", "-1", "3/2", "1/0", "0.5"]


@st.composite
def _lattice_text(draw):
    """A lattice file over k labels: covers drawn over index pairs i < j,
    often through a bottom and a top, stanzas drawn over the labels, and
    now and then an arbitrary line."""
    k = draw(st.integers(0, 7))
    names = st.sampled_from(["0", "1", "a", "b", "c", "d", "p'", "x_1", "é"])
    labels = draw(st.lists(names, min_size=k, max_size=k, unique=True))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    if k > 1 and draw(st.booleans()):
        covers += [(0, i) for i in range(1, k - 1)] + [(i, k - 1) for i in range(1, k - 1)]
    if draw(st.booleans()):
        covers = [(j, i) for i, j in covers[:1]] + covers  # maybe a cycle
    lines = [f"lattice {draw(st.sampled_from(['L', '', 'two words']))}", " ".join(["elements", *labels])]
    lines.append(" ".join(["covers", *(f"{labels[i]}<{labels[j]}" for i, j in covers)]))
    named = st.sampled_from(labels or ["0"])
    for keyword, sep, right in (
        ("ortho", ":", named), ("negation", "->", named), ("valuation", "=", st.sampled_from(_VALUES)),
        ("prob", "=", st.sampled_from(_VALUES)),
    ):
        if draw(st.booleans()):
            left = draw(st.permutations(labels)) if labels else []
            entries = [f"{x}{sep}{draw(right)}" for x in left[:draw(st.integers(0, len(left)))]]
            lines.append(" ".join([keyword, *entries]))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(draw(st.permutations(lines)) if draw(st.integers(0, 4)) == 0 else lines) + "\n"


CHAIN3_TEXT = """\
lattice chain3
elements 0 a 1
covers 0<a a<1
negation 0->1 a->0 1->0
valuation 0=0 a=1 1=2
prob 0=0 a=1/2 1=1
"""


@st.composite
def _mutated_text(draw):
    """A valid lattice file with up to three edits: a line dropped, the right
    side of one entry redrawn, or an arbitrary line inserted."""
    lines = draw(st.sampled_from([N5_TEXT, O6_TEXT, SQ_TEXT, B3_BUMPED_TEXT, CHAIN3_TEXT])).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split()
        edit = draw(st.integers(0, 2))
        if edit == 0:
            del lines[k]
        elif edit == 1 and len(tokens) > 1:
            i = draw(st.integers(1, len(tokens) - 1))
            entry = re.fullmatch(r"(.+?(?:<|:|->|=))(.*)", tokens[i])
            if entry:
                tokens[i] = entry[1] + draw(st.sampled_from(["0", "1", "a", "b", "p", "q'", "s3", "zz", *_VALUES]))
                lines[k] = " ".join(tokens)
        else:
            lines.insert(k, draw(st.text(max_size=20)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.lat"


@given(text=st.one_of(_lattice_text(), _mutated_text()))
def test_file_commands_exit_0_or_1_on_any_lattice_text(text, fuzz_file):
    # never 3 (a broken invariant) and never an escaped exception
    fuzz_file.write_text(text, encoding="utf-8")
    for command in ("classify", "ortho", "negation", "metric", "probability", "hasse"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(fuzz_file)])
        assert code in (0, 1), (command, text, err.getvalue())
        if err.getvalue().startswith("error: "):
            assert out.getvalue() == ""

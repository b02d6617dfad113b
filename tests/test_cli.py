import argparse

import pytest

from helpers import PARSER_EXITS, enumerate_lattices_loop, exit_outcome, parse_reference, reduce_boolean_loop
from primlat import cli, core
from primlat.cli import main
from primlat.core import LatticeError
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
    ],
    ids=["ortho", "negation", "prob", "valuation", "float", "valuation-conflict",
         "negation-conflict", "ortho-conflict"],
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

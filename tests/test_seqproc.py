import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import pyramid_rows_loop, summarize_loop
from primlat.cli import main
from primlat.core import LatticeError
from primlat.primorial import generate_primorial
from primlat.projection import METHODS, proj_zero, project, project_sequence
from primlat.seqproc import (
    PRESETS,
    AnalysisPyramid,
    SequenceError,
    SymbolAlphabet,
    analyze,
    encode,
    gsp_preset,
    load_fasta,
    pyramid_rows,
    summarize,
    synthesize,
)


# each preset's L2^2 middle pair, A∨T first, written out independently of
# the family
COARSE_ATOMS = {"acgt-atcg": (9, 6), "acgt-plus-x": (9, 22)}


@pytest.fixture(scope="module")
def preset():
    return gsp_preset("acgt-atcg")


def test_fasta_single_record(preset):
    records = load_fasta(io.StringIO(">x\nACGT\n"), preset.alphabet)
    assert records == [("x", ("A", "C", "G", "T"))]


def test_fasta_folds_lines_and_case(preset):
    records = load_fasta(io.StringIO(">x\nAc\ngT\n"), preset.alphabet)
    assert records[0][1] == ("A", "C", "G", "T")


def test_fasta_rejects_foreign_symbol_with_position(preset):
    with pytest.raises(SequenceError, match="position 3.*'Z'"):
        load_fasta(io.StringIO(">x\nACZT\n"), preset.alphabet)


def test_fasta_rejects_empty_and_headerless(preset):
    with pytest.raises(SequenceError, match="empty"):
        load_fasta(io.StringIO(""), preset.alphabet)
    with pytest.raises(SequenceError, match="header"):
        load_fasta(io.StringIO("ACGT\n"), preset.alphabet)


def test_fasta_multiple_records(preset):
    records = load_fasta(io.StringIO(">a\nAC\n>b\nGT\n"), preset.alphabet)
    assert [name for name, _ in records] == ["a", "b"]
    assert records[1][1] == ("G", "T")


def test_alphabet_must_match_family(preset):
    five = SymbolAlphabet(("A", "C", "G", "T", "X"))
    with pytest.raises(SequenceError, match="symbols"):
        analyze(preset.primorial, five, ("A",), "zero")


def test_analyze_top_level_is_unchanged(preset):
    pyramid = analyze(preset.primorial, preset.alphabet, ("A", "C", "G", "T"), "zero")
    assert pyramid.levels["L2^4"] == pyramid.source


def test_analyze_ceiling_onto_coarse_level(preset):
    pyramid = analyze(preset.primorial, preset.alphabet, ("A", "C", "G", "T"), "ceiling")
    at, cg = COARSE_ATOMS["acgt-atcg"]
    assert pyramid.levels["L2^2"] == bytes((at, cg, cg, at))


def test_analyze_zero_on_level_missing_both_atoms(preset):
    # the 4-element level contains neither single nucleobase atom
    pyramid = analyze(preset.primorial, preset.alphabet, ("A", "C"), "zero")
    assert pyramid.levels["D2"] == bytes((0, 0))
    carrier = preset.primorial.level("D2").carrier_set
    assert preset.alphabet.atom("A") not in carrier
    assert preset.alphabet.atom("C") not in carrier


def test_synthesize_examples(preset):
    al = preset.alphabet
    joined = synthesize(encode(al, ("A",)), encode(al, ("T",)))
    assert joined == bytes((al.atom("A") | al.atom("T"),))
    seq = encode(al, ("A", "C", "G"))
    zeros = bytes((0, 0, 0))
    assert synthesize(seq, zeros) == seq
    assert synthesize(seq, seq) == seq
    with pytest.raises(SequenceError, match="length"):
        synthesize(seq, encode(al, ("A",)))


def test_filtering_is_pointwise_join_of_projections(preset):
    al, pl = preset.alphabet, preset.primorial
    source = encode(al, ("A", "C", "G", "T", "A"))
    a = bytes(proj_zero(pl, "L2^2", x) for x in source)
    b = bytes(proj_zero(pl, "D3", x) for x in source)
    joined = synthesize(a, b)
    assert joined == bytes(x | y for x, y in zip(a, b))


def test_preset_chain_shapes():
    pre = gsp_preset("acgt-atcg")
    al = pre.alphabet
    at = al.atom("A") | al.atom("T")
    cg = al.atom("C") | al.atom("G")
    assert pre.primorial.level("L2^2").carrier == (0, cg, at, 15)

    px = gsp_preset("acgt-plus-x")
    l16 = px.primorial.level("L2^4")
    atoms = [x for x in l16.carrier if bin(x).count("1") == 1]
    assert atoms == [px.alphabet.atom(s) for s in ("A", "C", "G", "T")]
    # X projects somewhere into every lower level
    for name in px.primorial.member_names():
        y = proj_zero(px.primorial, name, px.alphabet.atom("X"))
        assert y in px.primorial.level(name).carrier_set


def test_analyze_refuses_an_unknown_method_with_the_projection_error(preset):
    # the same error as project and project_sequence, raised before the
    # tokens (here with a symbol outside the alphabet) are encoded
    with pytest.raises(LatticeError, match="^unknown projection method 'nonsense'$"):
        analyze(preset.primorial, preset.alphabet, ("A", "Z"), "nonsense")


def test_unknown_preset():
    with pytest.raises(SequenceError):
        gsp_preset("acgt-unknown")


PRESET_DESCRIPTIONS = {
    "acgt-atcg": [
        "alphabet: A C G T",
        "member L2^1: {} {A,C,G,T}",
        "member L2^2: {} {C,G} {A,T} {A,C,G,T}",
        "member L2^3: {} {A} {C,G} {A,C,G} {T} {A,T} {C,G,T} {A,C,G,T}",
        "member L2^4: {} {A} {C} {A,C} {G} {A,G} {C,G} {A,C,G} {T} {A,T} {C,T} {A,C,T}"
        " {G,T} {A,G,T} {C,G,T} {A,C,G,T}",
        "member D3: {} {A} {A,C,G} {T} {C,G,T} {A,C,G,T}",
        "member D4: {} {C} {A,C} {G} {A,G} {C,T} {A,C,T} {G,T} {A,G,T} {A,C,G,T}",
    ],
    "acgt-plus-x": [
        "alphabet: A C G T X",
        "member L2^1: {} {A,C,G,T,X}",
        "member L2^2: {} {A,T} {C,G,X} {A,C,G,T,X}",
        "member L2^3: {} {A} {T} {A,T} {C,G,X} {A,C,G,X} {C,G,T,X} {A,C,G,T,X}",
        "member L2^4: {} {A} {C} {A,C} {G} {A,G} {T} {A,T} {C,G,X} {A,C,G,X} {C,T,X}"
        " {A,C,T,X} {G,T,X} {A,G,T,X} {C,G,T,X} {A,C,G,T,X}",
        "member L2^5: {} {A} {C} {A,C} {G} {A,G} {C,G} {A,C,G} {T} {A,T} {C,T} {A,C,T}"
        " {G,T} {A,G,T} {C,G,T} {A,C,G,T} {X} {A,X} {C,X} {A,C,X} {G,X} {A,G,X} {C,G,X}"
        " {A,C,G,X} {T,X} {A,T,X} {C,T,X} {A,C,T,X} {G,T,X} {A,G,T,X} {C,G,T,X} {A,C,G,T,X}",
        "member D3: {} {A} {T} {A,C,G,X} {C,G,T,X} {A,C,G,T,X}",
        "member D4: {} {C} {A,C} {G} {A,G} {C,T,X} {A,C,T,X} {G,T,X} {A,G,T,X} {A,C,G,T,X}",
        "member D5: {} {C,G} {A,C,G} {C,T} {A,C,T} {G,T} {A,G,T} {C,G,T} {A,C,G,T} {X}"
        " {A,X} {C,X} {A,C,X} {G,X} {A,G,X} {T,X} {A,T,X} {A,C,G,T,X}",
    ],
}


def test_preset_description_audits_carriers():
    for kind, expected in PRESET_DESCRIPTIONS.items():
        assert gsp_preset(kind).describe() == expected


@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_preset_chain_text_builds_the_same_family_through_primorial_choices(kind, tmp_path, capsys):
    symbols, chain = PRESETS[kind]
    path = tmp_path / "chain.txt"
    path.write_text(chain)
    assert main(["primorial", "--n", str(len(symbols)), "--choices", str(path)]) == 0
    rendered = []
    for line in capsys.readouterr().out.splitlines():
        name, carrier = line.split("\t")
        # {1,3} -> {A,G}: atom k is the alphabet's k-th symbol
        shown = ["{" + ",".join(symbols[int(k) - 1] for k in lit[1:-1].split(",") if k) + "}"
                 for lit in carrier.split()]
        rendered.append(f"member {name}: {' '.join(shown)}")
    assert rendered == gsp_preset(kind).describe()[1:]


@pytest.mark.parametrize("n", range(2, 7))
def test_summary_counts_the_l2_2_atoms_of_any_family(n):
    pl = generate_primorial(n)
    al = SymbolAlphabet(tuple("ABCDEF"[:n]))
    full = (1 << n) - 1
    first = next(x for x in pl.level("L2^2").carrier if x & 1 and x != full)
    rng = random.Random(n)
    for tokens in ((), tuple(rng.choices(al.symbols, k=60))):
        for method in METHODS:
            pyramid = analyze(pl, al, tokens, method)
            for window in (None, 1, 7, 61):
                assert summarize(pyramid, al, pl, window) == summarize_loop(
                    pyramid, al, (first, full ^ first), window
                )


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=40),
       st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=40))
def test_synthesis_laws_on_random_mask_sequences(xs, ys):
    n = min(len(xs), len(ys))
    a = bytes(xs[:n])
    b = bytes(ys[:n])
    joined = synthesize(a, b)
    assert joined == bytes(x | y for x, y in zip(a, b))
    assert synthesize(a, a) == a  # idempotent
    assert synthesize(a, b) == synthesize(b, a)  # commutative
    zeros = bytes((0,) * n)
    assert synthesize(a, zeros) == a  # join identity


@given(st.text(alphabet="ACGT", min_size=0, max_size=120))
def test_counting_oracle_on_random_sequences(s):
    pre = gsp_preset("acgt-atcg")
    pyramid = analyze(pre.primorial, pre.alphabet, tuple(s), "ceiling")
    at, cg = COARSE_ATOMS["acgt-atcg"]
    coarse = pyramid.levels["L2^2"]
    assert sum(1 for x in coarse if x == at) == sum(1 for ch in s if ch in "AT")
    assert sum(1 for x in coarse if x == cg) == sum(1 for ch in s if ch in "CG")
    for seq in pyramid.levels.values():
        assert len(seq) == len(s)


def test_pyramid_rows_and_summary(preset):
    pyramid = analyze(preset.primorial, preset.alphabet, ("A", "T", "C"), "ceiling")
    rows = list(pyramid_rows(pyramid, preset.alphabet))
    assert rows[0][:2] == ["position", "input"]
    assert len(rows) == 4
    lines = summarize(pyramid, preset.alphabet, preset.primorial, window=2)
    assert any("fraction" in line for line in lines)
    assert any(line.startswith("window [0,2)") for line in lines)
    # rows and summaries equal a reference projected and rendered per base
    rng = random.Random(3)
    for kind in ("acgt-atcg", "acgt-plus-x"):
        pre = gsp_preset(kind)
        al, pl = pre.alphabet, pre.primorial
        tokens = list(al.symbols) + rng.choices(al.symbols, k=200)
        rng.shuffle(tokens)
        source = encode(al, tokens)
        for method in METHODS:
            pyramid = analyze(pl, al, tokens, method)
            levels = {
                name: bytes(project(pl, name, x, method) for x in source)
                for name in pyramid.levels
            }
            reference = AnalysisPyramid(method, source, levels)
            expected = [["position", "input"] + list(levels)] + [
                [str(k), al.render(x)] + [al.render(levels[n][k]) for n in levels]
                for k, x in enumerate(source)
            ]
            assert list(pyramid_rows(pyramid, al)) == expected
            for window in (None, 64):
                assert summarize(pyramid, al, pl, window) == summarize(reference, al, pl, window)


@pytest.mark.parametrize("kind", ["acgt-atcg", "acgt-plus-x"])
def test_rows_and_summary_equal_the_per_position_loops(kind):
    pre = gsp_preset(kind)
    al, pl = pre.alphabet, pre.primorial
    rng = random.Random(5)
    records = [(), (al.symbols[-1],), tuple(rng.choices(al.symbols, k=150))]
    for tokens in records:
        for method in METHODS:
            pyramid = analyze(pl, al, tokens, method)
            assert list(pyramid_rows(pyramid, al)) == list(pyramid_rows_loop(pyramid, al))
            for window in (None, 1, 7, len(tokens) + 1, 10 * len(tokens) + 10):
                assert summarize(pyramid, al, pl, window) == summarize_loop(
                    pyramid, al, COARSE_ATOMS[kind], window
                )


def test_sequences_are_bytes(preset):
    al, pl = preset.alphabet, preset.primorial
    pyramid = analyze(pl, al, ("A", "T", "T"), "sasaki")
    assert pyramid.source == bytes(al.atom(s) for s in "ATT")
    outputs = [
        encode(al, ("A", "T", "T")),
        pyramid.source,
        *pyramid.levels.values(),
        synthesize(pyramid.source, pyramid.levels["L2^2"]),
        project_sequence(pl, "L2^2", (1, 2, 4, 8), "ceiling"),
    ]
    assert all(type(x) is bytes for x in outputs)
    with pytest.raises(SequenceError, match="^symbol 'Z' not in alphabet$"):
        encode(preset.alphabet, ("A", "Z"))
    with pytest.raises(SequenceError, match="^sequences hold at most 8 symbols, not 9$"):
        encode(SymbolAlphabet(tuple("ABCDEFGHI")), ("A",))


def test_pyramid_levels_keep_the_input_length(preset):
    source = encode(preset.alphabet, ("A", "C", "A"))
    for items in (bytes((9, 6)), bytes((9, 6, 9, 9))):
        with pytest.raises(SequenceError, match="^level 'L2\\^2' does not have the input's length$"):
            AnalysisPyramid("zero", source, {"L2^2": items})


def test_rows_of_a_pyramid_that_is_not_pointwise(preset):
    # the same input code maps to different cells at different positions
    source = encode(preset.alphabet, ("A", "C", "A", "A"))
    levels = {"L2^2": bytes((9, 6, 6, 9)), "D2": bytes(4)}
    pyramid = AnalysisPyramid("zero", source, levels)
    assert list(pyramid_rows(pyramid, preset.alphabet)) == list(pyramid_rows_loop(pyramid, preset.alphabet))
    assert [row[2] for row in pyramid_rows(pyramid, preset.alphabet)][1:] == ["{A,T}", "{C,G}", "{C,G}", "{A,T}"]


def test_fasta_position_counts_bases_across_folded_lines(preset):
    # whitespace and line breaks are not counted; the bad base is the 7th
    with pytest.raises(SequenceError, match="^record 'r 1' position 7: symbol 'N' outside alphabet$"):
        load_fasta(io.StringIO(">r 1\nAC GT\n\tA\n\nCNA\n"), preset.alphabet)


def test_fasta_reports_a_lowercase_foreign_symbol_as_written(preset):
    with pytest.raises(SequenceError, match="^record 'x' position 3: symbol 'n' outside alphabet$"):
        load_fasta(io.StringIO(">x\nacnt\n"), preset.alphabet)


@pytest.mark.parametrize("ch", ["é", "ß"])
def test_fasta_rejects_non_ascii_letters(ch, preset):
    # neither folds onto a symbol: "é".upper() is "É", "ß".upper() is "SS"
    with pytest.raises(SequenceError, match=f"^record 'x' position 2: symbol '{ch}' outside alphabet$"):
        load_fasta(io.StringIO(f">x\nA{ch}G\n"), preset.alphabet)


def test_fasta_accepts_crlf_line_endings(preset):
    lf = load_fasta(io.StringIO(">a one\nAC\nGT\n>b\nTT\n"), preset.alphabet)
    crlf = load_fasta(io.StringIO(">a one\r\nAC\r\nGT\r\n>b\r\nTT\r\n"), preset.alphabet)
    assert crlf == lf == [("a one", ("A", "C", "G", "T")), ("b", ("T", "T"))]

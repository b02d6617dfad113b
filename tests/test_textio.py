import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primlat.core import LatticeError, build_lattice
from primlat.textio import (
    FormatError,
    format_carrier,
    format_mask,
    parse_lattice_text,
    parse_mask,
    to_dot,
)

O6_TEXT = """\
# the hexagon with everything attached
lattice O6
elements 0 p q p' q' 1
covers 0<p 0<q p<q' q<p'
covers q'<1 p'<1
ortho 0:1 p:p' q:q'
valuation 0=0 p=1 q=1 p'=2 q'=2 1=3
prob 0=0 p=1/3 q=1/2 q'=1/2 p'=2/3 1=1
negation 0->1 1->0 p->p' p'->p q->q' q'->q
"""


def test_parse_full_document():
    doc = parse_lattice_text(O6_TEXT)
    assert doc.name == "O6"
    assert doc.elements == ("0", "p", "q", "p'", "q'", "1")
    assert ("q'", "1") in doc.covers
    assert doc.ortho["p"] == "p'" and doc.ortho["p'"] == "p"
    assert doc.valuation["p'"] == 2
    assert doc.prob["p"] == Fraction(1, 3)
    assert doc.negation["q'"] == "q"
    built = build_lattice(doc.elements, doc.covers)
    assert built.is_lattice


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_lattice_text("covers a")
    with pytest.raises(FormatError, match="line 2"):
        parse_lattice_text("elements a b\nwhatever a b")
    with pytest.raises(FormatError, match="bad rational"):
        parse_lattice_text("elements a\nprob a=x/y")


def test_rationals_are_ascii_p_over_q_or_integers():
    doc = parse_lattice_text("elements a b c\nprob a=-3 b=+1/2 c=007/14")
    assert doc.prob == {"a": -3, "b": Fraction(1, 2), "c": Fraction(1, 2)}
    # float literals, digit separators and non-ASCII digits are refused before
    # Fraction sees them; 1e-99999999 would be a rational of 10^8 digits
    for value in ("1e-9", "0.5", "1_000", "٣", "1/-2", "1/0", "1e-99999999"):
        text = f"elements a\nvaluation a={value}\nprob a={value}"  # named at its first line
        with pytest.raises(FormatError, match=rf"^line 2: bad rational '{re.escape(value)}'$"):
            parse_lattice_text(text)


def test_stanzas_name_only_declared_elements():
    # elements may follow the stanzas that name them
    doc = parse_lattice_text("ortho 0:1\nnegation 0->1 1->0\nprob 0=0\nvaluation 1=1\nelements 0 1")
    assert doc.ortho == {"0": "1", "1": "0"}
    stanzas = {
        "ortho 0:1 zz:yy": "'zz' in ortho",
        "ortho 0:zz": "'zz' in ortho",
        "negation 0->1 1->0 qq->rr": "'qq' in negation",
        "negation 0->rr": "'rr' in negation",
        "prob 0=0 1=1 ww=5": "'ww' in prob",
        "valuation 0=0 1=1 kk=3": "'kk' in valuation",
    }
    for stanza, named in stanzas.items():
        with pytest.raises(FormatError, match=rf"^line 2: unknown element {named} stanza$"):
            parse_lattice_text(f"elements 0\n{stanza}\nelements 1")


def test_stanza_entries_may_repeat_but_not_conflict():
    doc = parse_lattice_text("elements a b\northo a:b b:a\nvaluation a=1 a=2/2\nnegation a->b a->b")
    assert doc.ortho == {"a": "b", "b": "a"}
    assert doc.valuation == {"a": 1}
    stanzas = {
        "valuation a=0 b=1 b=2": ("valuation", "b"),
        "prob a=2 b=1\nvaluation b=1 b=2": ("valuation", "b"),  # both values read before, at line 2
        "prob a=0\nprob a=1/2": ("prob", "a"),
        "negation a->b b->a a->a": ("negation", "a"),
        "ortho a:b a:a": ("ortho", "a"),
        "ortho a:a\northo b:a": ("ortho", "a"),
    }
    for stanza, (keyword, label) in stanzas.items():
        lineno = 2 + stanza.count("\n")
        want = rf"^line {lineno}: conflicting {keyword} entries for '{label}'$"
        with pytest.raises(FormatError, match=want):
            parse_lattice_text(f"elements a b\n{stanza}")


_labels = st.sampled_from(["0", "1", "a", "zz", ""])
_values = st.sampled_from(["0", "1/2", "-3", "1/0", "1e-9", "1e-99999999", "0.5", "٣"])
_SEPARATOR = {"covers": "<", "ortho": ":", "negation": "->", "valuation": "=", "prob": "="}


def _stanza(keyword):
    sep = _SEPARATOR.get(keyword)
    if sep is None:
        entry = _labels
    else:
        right = st.one_of(_values, _labels) if sep == "=" else _labels
        entry = st.tuples(_labels, st.just(sep), right).map("".join)
    return st.lists(entry, max_size=4).map(lambda tokens: " ".join([keyword, *tokens]))


_lines = st.sampled_from(["lattice", "elements", *_SEPARATOR]).flatmap(_stanza)


@given(st.lists(_lines, max_size=6))
def test_parser_raises_only_lattice_errors(lines):
    try:
        doc = parse_lattice_text("\n".join(lines))
        build_lattice(doc.elements, doc.covers)
    except LatticeError:
        pass


def test_mask_literals_roundtrip():
    assert format_mask(0) == "{}"
    assert format_mask(0b101) == "{1,3}"
    for mask in range(16):
        assert parse_mask(format_mask(mask), 4) == mask
    assert format_carrier((0, 3)) == "{} {1,2}"


def test_negative_masks_have_no_literal():
    for mask in (-1, -2, -(1 << 70)):
        with pytest.raises(FormatError, match=f"^negative mask {mask} has no subset literal$"):
            format_mask(mask)
    with pytest.raises(FormatError, match="^negative mask -1 "):
        format_carrier((0, -1, 3))


def test_mask_literal_errors():
    with pytest.raises(FormatError):
        parse_mask("1,3", 4)
    with pytest.raises(FormatError):
        parse_mask("{0}", 4)
    with pytest.raises(FormatError):
        parse_mask("{5}", 4)
    with pytest.raises(FormatError):
        parse_mask("{a}", 4)
    # int() would read each of these: another script's digit, a full-width
    # digit, a digit separator and a sign
    for text in ("{٣}", "{２}", "{0_1}", "{ +2 }"):
        with pytest.raises(FormatError, match="^bad atom index "):
            parse_mask(text, 4)
    with pytest.raises(FormatError, match="^bad atom index "):
        parse_mask("{" + "1" * 5000 + "}", 4)  # more digits than int() takes
    assert parse_mask("{ 1 , 3 }", 4) == parse_mask("{01,3}", 4) == 0b101


_MASK_CHARS = st.sampled_from("{}, 0123456789_+-\t٣２")


@given(st.one_of(st.text(), st.text(_MASK_CHARS)), st.integers(1, 8))
def test_parse_mask_on_any_text(text, top_n):
    try:
        mask = parse_mask(text, top_n)
    except FormatError:
        return
    assert 0 <= mask < 1 << top_n
    assert parse_mask(format_mask(mask), top_n) == mask


def test_dot_export_contains_cover_edges_only():
    doc = parse_lattice_text(O6_TEXT)
    dot = to_dot(build_lattice(doc.elements, doc.covers), name="O6")
    assert "rankdir=BT" in dot
    assert '"p" -> "q\'"' in dot
    assert '"0" -> "1"' not in dot  # not a cover


def test_dot_quotes_what_a_bare_id_cannot_hold():
    # node IDs escape backslash and double quote; a graph name that is no
    # plain identifier, or is a DOT keyword in any case, is quoted the same way
    doc = parse_lattice_text('elements a"b c\\d\ncovers a"b<c\\d')
    chain = build_lattice(doc.elements, doc.covers)
    assert to_dot(chain, name="L3_B2xC4") == (
        "digraph L3_B2xC4 {\n  rankdir=BT;\n  node [shape=circle];\n"
        '  "a\\"b";\n  "c\\\\d";\n  "a\\"b" -> "c\\\\d";\n}\n'
    )
    for name, head in (("n5_2_0", "n5_2_0"), ("_x", "_x"), ("2-chain", '"2-chain"'),
                       ("Node", '"Node"'), ("strict", '"strict"'), ("", '""'),
                       ('say "hi"', r'"say \"hi\""'), ("a\\", r'"a\\"')):
        assert to_dot(chain, name=name).startswith(f"digraph {head} {{\n")

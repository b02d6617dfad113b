from fractions import Fraction

import pytest

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
    built = doc.build()
    assert built.is_lattice


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_lattice_text("covers a")
    with pytest.raises(FormatError, match="line 2"):
        parse_lattice_text("elements a b\nwhatever a b")
    with pytest.raises(FormatError, match="bad rational"):
        parse_lattice_text("elements a\nprob a=x/y")


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


def test_dot_export_contains_cover_edges_only():
    doc = parse_lattice_text(O6_TEXT)
    dot = to_dot(doc.build(), name="O6")
    assert "rankdir=BT" in dot
    assert '"p" -> "q\'"' in dot
    assert '"0" -> "1"' not in dot  # not a cover

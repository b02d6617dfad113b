"""Line-based lattice text format, subset literals, and DOT export.

Format (UTF-8, one stanza keyword per line, repeatable; ``#`` starts a
comment):

    lattice <name>
    elements e1 e2 ...
    covers a<b c<d ...
    ortho a:b ...
    valuation e=<rational> ...
    prob e=<rational> ...
    negation a->b ...

Rationals are written ``p/q`` or as integers, in ASCII digits with an
optional sign.  Every label an ``ortho``, ``valuation``, ``prob`` or
``negation`` stanza names must be declared by an ``elements`` stanza,
which may come later in the text.  Such a stanza may repeat an entry but
not give one label two values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .core import FinitePoset, LatticeError, bits


class FormatError(LatticeError):
    """Malformed lattice text; message carries the line number."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(tok, lineno):
    """The Fraction a ``p/q`` or integer token denotes.

    Only ASCII digits are read: ``Fraction(tok)`` would also take float
    literals, and ``1e-99999999`` would be a rational of 10^8 digits.
    """
    m = _RATIONAL.fullmatch(tok)
    if m:
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
        except (ValueError, ZeroDivisionError):  # more digits than int() takes, or q = 0
            pass
    raise FormatError(f"line {lineno}: bad rational {tok!r}")


def _conflict(lineno, keyword, key):
    return FormatError(f"line {lineno}: conflicting {keyword} entries for {key!r}")


class LatticeDocument(NamedTuple):
    """One parsed lattice text: the stanzas of each keyword merged, in
    text order; ``name`` is "" when no ``lattice`` stanza gives one."""

    name: str
    elements: tuple
    covers: tuple
    ortho: dict  # label -> label, both ways round
    valuation: dict  # label -> Fraction
    prob: dict  # label -> Fraction
    negation: dict  # label -> label


def parse_lattice_text(text: str) -> LatticeDocument:
    name = ""
    elements = []
    covers = []
    named = []  # (line, stanza, label) for each label a stanza other than covers names
    ortho, valuation, prob, negation = {}, {}, {}, {}
    rationals = {}  # each distinct value token is read once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        if keyword == "lattice":
            if len(rest) != 1:
                raise FormatError(f"line {lineno}: lattice stanza wants one name")
            name = rest[0]
        elif keyword == "elements":
            elements.extend(rest)
        elif keyword == "covers":
            for tok in rest:
                if tok.count("<") != 1:
                    raise FormatError(f"line {lineno}: cover {tok!r} is not a<b")
                a, b = tok.split("<")
                covers.append((a, b))
        elif keyword == "ortho":
            for tok in rest:
                if tok.count(":") != 1:
                    raise FormatError(f"line {lineno}: ortho pair {tok!r} is not a:b")
                a, b = tok.split(":")
                named += [(lineno, keyword, a), (lineno, keyword, b)]
                if ortho.setdefault(a, b) != b:
                    raise _conflict(lineno, keyword, a)
                if ortho.setdefault(b, a) != a:
                    raise _conflict(lineno, keyword, b)
        elif keyword in ("valuation", "prob"):
            target = valuation if keyword == "valuation" else prob
            for tok in rest:
                if tok.count("=") != 1:
                    raise FormatError(f"line {lineno}: entry {tok!r} is not e=value")
                a, token = tok.split("=")
                named.append((lineno, keyword, a))
                v = rationals.get(token)
                if v is None:
                    v = rationals[token] = _rational(token, lineno)
                # `is` first: a new entry returns v itself and skips Fraction.__eq__
                if target.setdefault(a, v) is not v and target[a] != v:
                    raise _conflict(lineno, keyword, a)
        elif keyword == "negation":
            for tok in rest:
                if "->" not in tok:
                    raise FormatError(f"line {lineno}: negation entry {tok!r} is not a->b")
                a, b = tok.split("->", 1)
                named += [(lineno, keyword, a), (lineno, keyword, b)]
                if negation.setdefault(a, b) != b:
                    raise _conflict(lineno, keyword, a)
        else:
            raise FormatError(f"line {lineno}: unknown stanza {keyword!r}")
    declared = set(elements)
    for lineno, keyword, label in named:
        if label not in declared:
            raise FormatError(f"line {lineno}: unknown element {label!r} in {keyword} stanza")
    return LatticeDocument(name, tuple(elements), tuple(covers), ortho, valuation, prob, negation)


def read_text(path) -> str:
    """The whole file as text; a file that is not UTF-8 raises FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# ---------------------------------------------------------------------------
# subset literals (elements of Boolean carriers as {1,3}-style sets)


def format_mask(mask: int) -> str:
    if mask < 0:  # ``bits`` never ends on a negative int
        raise FormatError(f"negative mask {mask} has no subset literal")
    return "{" + ",".join(str(b + 1) for b in bits(mask)) + "}"


_ATOM = re.compile(r" *([0-9]+) *")  # int() alone also reads signs, "_" and non-ASCII digits


def parse_mask(text: str, top_n: int) -> int:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise FormatError(f"subset literal {text!r} must look like {{1,3}}")
    body = s[1:-1].strip()
    mask = 0
    if body:
        for part in body.split(","):
            m = _ATOM.fullmatch(part)
            try:
                atom = int(m[1])
            except (TypeError, ValueError):  # no match, or more digits than int() takes
                raise FormatError(f"bad atom index {part!r} in {text!r}") from None
            if not 1 <= atom <= top_n:
                raise FormatError(f"atom index {atom} out of range 1..{top_n}")
            mask |= 1 << (atom - 1)
    return mask


def parse_choices(text: str, top_n: int):
    """Reduction choices as carriers, one line of subset literals each;
    ``#`` starts a comment and blank lines are skipped."""
    choices = []
    for line in text.split("\n"):
        line = line.split("#", 1)[0].strip()
        if line:
            choices.append(tuple(parse_mask(tok, top_n) for tok in line.split()))
    return choices


def format_carrier(carrier) -> str:
    return " ".join(format_mask(m) for m in sorted(carrier))


# ---------------------------------------------------------------------------
# DOT export


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_quoted(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(poset: FinitePoset, name: str = "hasse") -> str:
    """Hasse diagram as DOT: cover edges only, greater elements drawn higher.

    Node IDs are always quoted; the graph name is left bare only when it is
    a plain identifier and no DOT keyword.
    """
    if not _DOT_ID.fullmatch(name) or name.lower() in _DOT_KEYWORDS:
        name = _dot_quoted(name)
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
    q = {lab: _dot_quoted(str(lab)) for lab in poset.labels}
    for lab in poset.labels:
        lines.append(f"  {q[lab]};")
    for a, b in poset.covers:
        lines.append(f"  {q[a]} -> {q[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"

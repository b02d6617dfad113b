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

Rationals are written ``p/q`` or as integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import FinitePoset, LatticeError, bits, build_lattice


class FormatError(LatticeError):
    """Malformed lattice text; message carries the line number."""


@dataclass
class LatticeDocument:
    name: str = ""
    elements: tuple = ()
    covers: tuple = ()
    ortho: dict = field(default_factory=dict)
    valuation: dict = field(default_factory=dict)
    prob: dict = field(default_factory=dict)
    negation: dict = field(default_factory=dict)

    def build(self):
        """FiniteLattice when joins/meets are total, else FinitePoset."""
        return build_lattice(self.elements, self.covers)


def parse_lattice_text(text: str) -> LatticeDocument:
    doc = LatticeDocument()
    elements = []
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        if keyword == "lattice":
            if len(rest) != 1:
                raise FormatError(f"line {lineno}: lattice stanza wants one name")
            doc.name = rest[0]
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
                doc.ortho[a] = b
                doc.ortho[b] = a
        elif keyword in ("valuation", "prob"):
            target = doc.valuation if keyword == "valuation" else doc.prob
            for tok in rest:
                if tok.count("=") != 1:
                    raise FormatError(f"line {lineno}: entry {tok!r} is not e=value")
                a, v = tok.split("=")
                try:
                    target[a] = Fraction(v)
                except (ValueError, ZeroDivisionError):
                    raise FormatError(f"line {lineno}: bad rational {v!r}") from None
        elif keyword == "negation":
            for tok in rest:
                if "->" not in tok:
                    raise FormatError(f"line {lineno}: negation entry {tok!r} is not a->b")
                a, b = tok.split("->", 1)
                doc.negation[a] = b
        else:
            raise FormatError(f"line {lineno}: unknown stanza {keyword!r}")
    doc.elements = tuple(elements)
    doc.covers = tuple(covers)
    return doc


def read_text(path) -> str:
    """The whole file as text; a file that is not UTF-8 raises FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_lattice_file(path) -> LatticeDocument:
    return parse_lattice_text(read_text(path))


# ---------------------------------------------------------------------------
# subset literals (elements of Boolean carriers as {1,3}-style sets)


def format_mask(mask: int) -> str:
    return "{" + ",".join(str(b + 1) for b in bits(mask)) + "}"


def parse_mask(text: str, top_n: int) -> int:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise FormatError(f"subset literal {text!r} must look like {{1,3}}")
    body = s[1:-1].strip()
    mask = 0
    if body:
        for part in body.split(","):
            try:
                atom = int(part)
            except ValueError:
                raise FormatError(f"bad atom index {part!r} in {text!r}") from None
            if not 1 <= atom <= top_n:
                raise FormatError(f"atom index {atom} out of range 1..{top_n}")
            mask |= 1 << (atom - 1)
    return mask


def format_carrier(carrier) -> str:
    return " ".join(format_mask(m) for m in sorted(carrier))


# ---------------------------------------------------------------------------
# DOT export


def to_dot(poset: FinitePoset, name: str = "hasse", labels=None) -> str:
    """Hasse diagram as DOT: cover edges only, greater elements drawn higher."""
    render = labels or (lambda lab: str(lab))
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
    for lab in poset.labels:
        lines.append(f'  "{render(lab)}";')
    for a, b in poset.covers:
        lines.append(f'  "{render(a)}" -> "{render(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

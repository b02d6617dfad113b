"""Symbolic sequence analysis over a family of levels.

Symbols map bijectively onto the atoms of the top Boolean carrier; a
sequence is then projected pointwise onto every lower-resolution level and
every difference level, giving a pyramid of coarser views.  Synthesis is
the pointwise join back in the top lattice.  A sequence is one ``bytes``
object holding one element mask per byte, so every level of a pyramid is a
``bytes.translate`` of its input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MAX_ATOMS, LatticeError
from .primorial import PrimorialLattice, generate_primorial
from .projection import _projector, project_sequence
from .textio import parse_choices


class SequenceError(LatticeError):
    pass


@dataclass(frozen=True)
class SymbolAlphabet:
    """Ordered symbols encoded as the atoms of a 2^N carrier."""

    symbols: tuple

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise SequenceError("alphabet symbols must be distinct")

    @property
    def top_n(self):
        return len(self.symbols)

    def atom(self, symbol) -> int:
        try:
            return 1 << self.symbols.index(symbol)
        except ValueError:
            raise SequenceError(f"symbol {symbol!r} not in alphabet") from None

    def render(self, mask: int) -> str:
        """Element as a brace set of symbol names, e.g. {A,T}."""
        names = [s for i, s in enumerate(self.symbols) if mask >> i & 1]
        return "{" + ",".join(names) + "}"


@dataclass(frozen=True)
class AnalysisPyramid:
    method: str
    source: bytes  # top-carrier masks, one per byte
    levels: dict  # member name -> bytes

    def __post_init__(self):
        for name, seq in self.levels.items():
            if len(seq) != len(self.source):
                raise SequenceError(f"level {name!r} does not have the input's length")


def encode(alphabet: SymbolAlphabet, tokens) -> bytes:
    if alphabet.top_n > MAX_ATOMS:
        raise SequenceError(f"sequences hold at most {MAX_ATOMS} symbols, not {alphabet.top_n}")
    return bytes(map(alphabet.atom, tokens))


def load_fasta(stream, alphabet: SymbolAlphabet):
    """Parse FASTA records into (name, token tuple) pairs.

    Sequence lines are folded together per record; whitespace is ignored
    and case does not matter.  A character outside the alphabet raises with
    its record and 1-based position.
    """
    folded = {s.upper(): s for s in alphabet.symbols}
    if len(folded) != len(alphabet.symbols):
        raise SequenceError("alphabet symbols collide under case folding")
    records = []
    current = None
    for raw in stream:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith(">"):
            current = [line[1:].strip(), []]
            records.append(current)
            continue
        if current is None:
            raise SequenceError("sequence data before the first FASTA header")
        for ch in line:
            if ch.isspace():
                continue
            sym = folded.get(ch.upper())
            if sym is None:
                pos = len(current[1]) + 1
                raise SequenceError(
                    f"record {current[0]!r} position {pos}: symbol {ch!r} outside alphabet"
                )
            current[1].append(sym)
    if not records:
        raise SequenceError("empty input: no FASTA records found")
    return [(name, tuple(tokens)) for name, tokens in records]


def analyze(
    pl: PrimorialLattice, alphabet: SymbolAlphabet, tokens, method: str
) -> AnalysisPyramid:
    """Encode and project onto every resolution and frequency level."""
    _projector(method)  # an unknown method fails before anything is encoded
    if alphabet.top_n != pl.top_n:
        raise SequenceError(
            f"alphabet has {alphabet.top_n} symbols but the family was generated from {pl.top_n}"
        )
    source = encode(alphabet, tokens)
    codes = bytes(dict.fromkeys(source))  # each distinct input code once
    levels = {
        name: source.translate(bytes.maketrans(codes, project_sequence(pl, name, codes, method)))
        for name in pl.levels
    }
    return AnalysisPyramid(method, source, levels)


def synthesize(*seqs: bytes) -> bytes:
    """Pointwise join in the top lattice (bitwise union of atom sets)."""
    if not seqs:
        raise SequenceError("nothing to synthesize")
    length = len(seqs[0])
    for s in seqs:
        if len(s) != length:
            raise SequenceError("length mismatch in synthesis")
    # one byte per element, so the bytewise OR is the OR of the big integers
    acc = 0
    for s in seqs:
        acc |= int.from_bytes(s, "big")
    return acc.to_bytes(length, "big")


def pyramid_rows(pyramid: AnalysisPyramid, alphabet: SymbolAlphabet):
    """TSV-ready rows: position, input element, one column per level.

    The cells after the position are rendered once per distinct tuple of
    column values.
    """
    names = list(pyramid.levels)
    columns = [pyramid.source] + [pyramid.levels[n] for n in names]
    tails = {}
    yield ["position", "input"] + names
    for k, row in enumerate(zip(*columns)):
        tail = tails.get(row) or tails.setdefault(row, [alphabet.render(x) for x in row])
        yield [str(k)] + tail


def summarize(
    pyramid: AnalysisPyramid,
    alphabet: SymbolAlphabet,
    pl: PrimorialLattice,
    window: int | None = None,
):
    """Per-level histograms plus the content fractions of L2^2's two atoms.

    The atoms are the two middle elements of the family's 4-element level,
    the one holding the first symbol first (A∨T then C∨G on the presets);
    ``window`` additionally emits per-window fractions.
    """
    lines = [f"length: {len(pyramid.source)}", f"method: {pyramid.method}"]
    for name, seq in pyramid.levels.items():
        shown = " ".join(f"{alphabet.render(x)}={seq.count(x)}" for x in sorted(set(seq)))
        lines.append(f"level {name}: {shown}")
    low, high = pl.level("L2^2").carrier[1:3]
    coarse_atoms = (low, high) if low & 1 else (high, low)
    seq = pyramid.levels["L2^2"]
    total = len(seq) or 1
    for mask in coarse_atoms:
        lines.append(f"{alphabet.render(mask)} fraction: {seq.count(mask) / total:.4f}")
    if window:
        labels = [alphabet.render(mask) for mask in coarse_atoms]
        for start in range(0, len(seq), window):
            chunk = seq[start : start + window]
            parts = " ".join(
                f"{s}={chunk.count(mask) / len(chunk):.4f}" for s, mask in zip(labels, coarse_atoms)
            )
            lines.append(f"window [{start},{start + len(chunk)}): {parts}")
    return lines


# gsp presets -----------------------------------------------------------------


@dataclass(frozen=True)
class GspPreset:
    alphabet: SymbolAlphabet
    primorial: PrimorialLattice

    def describe(self):
        """The fixed reduction chain, one audit line per member."""
        lines = [f"alphabet: {' '.join(self.alphabet.symbols)}"]
        for name in self.primorial.member_names():
            carrier = self.primorial.level(name).carrier
            rendered = " ".join(self.alphabet.render(m) for m in carrier)
            lines.append(f"member {name}: {rendered}")
        return lines


# name -> (symbols, reduction chain in the ``primorial --choices`` format:
# the carriers of L2^(N-1) down to L2^2, symbol k being atom {k})
PRESETS = {
    # four symbols with the 4-element level carrying A∨T and C∨G, so
    # weak/strong base pairing is one projection away
    "acgt-atcg": ("ACGT", """
        {} {1} {2,3} {1,2,3} {4} {1,4} {2,3,4} {1,2,3,4}
        {} {2,3} {1,4} {1,2,3,4}
    """),
    # a fifth symbol X that the first reduction removes; the 16-element
    # level keeps the four nucleobase atoms and lower levels fold X into
    # the C∨G branch
    "acgt-plus-x": ("ACGTX", """
        {} {1} {2} {1,2} {3} {1,3} {4} {1,4} {2,3,5} {1,2,3,5} {2,4,5} {1,2,4,5} {3,4,5} {1,3,4,5} {2,3,4,5} {1,2,3,4,5}
        {} {1} {4} {1,4} {2,3,5} {1,2,3,5} {2,3,4,5} {1,2,3,4,5}
        {} {1,4} {2,3,5} {1,2,3,4,5}
    """),
}


def gsp_preset(kind: str) -> GspPreset:
    """A ``PRESETS`` alphabet and its family, built from the preset's chain
    by ``generate_primorial``, which verifies every step."""
    try:
        symbols, chain = PRESETS[kind]
    except KeyError:
        raise SequenceError(f"unknown preset {kind!r}") from None
    n = len(symbols)
    return GspPreset(SymbolAlphabet(tuple(symbols)), generate_primorial(n, choices=parse_choices(chain, n)))

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
from .textio import format_mask


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
class SymbolSequence:
    items: bytes  # top-carrier masks, one per byte
    name: str | None = None

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


@dataclass(frozen=True)
class AnalysisPyramid:
    method: str
    source: SymbolSequence
    levels: dict  # member name -> SymbolSequence

    def __post_init__(self):
        for name, seq in self.levels.items():
            if len(seq) != len(self.source):
                raise SequenceError(f"level {name!r} does not have the input's length")


def encode(alphabet: SymbolAlphabet, tokens, name=None) -> SymbolSequence:
    if alphabet.top_n > MAX_ATOMS:
        raise SequenceError(f"sequences hold at most {MAX_ATOMS} symbols, not {alphabet.top_n}")
    return SymbolSequence(bytes(map(alphabet.atom, tokens)), name)


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
    codes = bytes(dict.fromkeys(source.items))  # each distinct input code once
    levels = {}
    for name in pl.levels:
        table = bytes.maketrans(codes, project_sequence(pl, name, codes, method))
        levels[name] = SymbolSequence(source.items.translate(table), name)
    return AnalysisPyramid(method, source, levels)


def synthesize(*seqs: SymbolSequence) -> SymbolSequence:
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
        acc |= int.from_bytes(s.items, "big")
    return SymbolSequence(acc.to_bytes(length, "big"))


def pyramid_rows(pyramid: AnalysisPyramid, alphabet: SymbolAlphabet | None = None):
    """TSV-ready rows: position, input element, one column per level.

    The cells after the position are rendered once per distinct tuple of
    column values.
    """
    render = alphabet.render if alphabet else format_mask
    names = list(pyramid.levels)
    columns = [pyramid.source.items] + [pyramid.levels[n].items for n in names]
    tails = {}
    yield ["position", "input"] + names
    for k, row in enumerate(zip(*columns)):
        tail = tails.get(row) or tails.setdefault(row, [render(x) for x in row])
        yield [str(k)] + tail


def summarize(
    pyramid: AnalysisPyramid,
    alphabet: SymbolAlphabet,
    coarse_atoms=(),
    window: int | None = None,
):
    """Per-level histograms plus content fractions of the coarse atoms.

    ``coarse_atoms`` are masks tracked at the 4-element level (the preset's
    A∨T / C∨G pair); ``window`` additionally emits per-window fractions.
    """
    lines = [f"length: {len(pyramid.source)}", f"method: {pyramid.method}"]
    for name, seq in pyramid.levels.items():
        items = seq.items
        shown = " ".join(f"{alphabet.render(x)}={items.count(x)}" for x in sorted(set(items)))
        lines.append(f"level {name}: {shown}")
    if coarse_atoms and "L2^2" in pyramid.levels:
        seq = pyramid.levels["L2^2"].items
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
    coarse_atoms: tuple  # masks of the 2^2-level middle pair

    def describe(self):
        """The fixed reduction chain, one audit line per member."""
        lines = [f"alphabet: {' '.join(self.alphabet.symbols)}"]
        for name in self.primorial.member_names():
            carrier = self.primorial.level(name).carrier
            rendered = " ".join(self.alphabet.render(m) for m in carrier)
            lines.append(f"member {name}: {rendered}")
        return lines


PRESETS = ("acgt-atcg", "acgt-plus-x")


def gsp_preset(kind: str) -> GspPreset:
    """Fixed alphabets and reduction chains for nucleobase work.

    ``acgt-atcg``: four symbols with the 4-element level carrying A∨T and
    C∨G, so weak/strong base pairing is one projection away.
    ``acgt-plus-x``: a fifth symbol X that the first reduction removes; the
    16-element level keeps the four nucleobase atoms and lower levels fold
    X into the C∨G branch.
    """
    if kind == "acgt-atcg":
        alphabet = SymbolAlphabet(("A", "C", "G", "T"))
        a, c, g, t = (alphabet.atom(s) for s in "ACGT")
        at, cg = a | t, c | g
        full = 15
        level8 = (0, a, t, cg, at, a | cg, t | cg, full)
        level4 = (0, at, cg, full)
        pl = generate_primorial(4, choices=[level8, level4])
        return GspPreset(alphabet, pl, (at, cg))
    if kind == "acgt-plus-x":
        alphabet = SymbolAlphabet(("A", "C", "G", "T", "X"))
        a, c, g, t, x = (alphabet.atom(s) for s in "ACGTX")
        full = 31
        level16 = tuple(
            sorted(
                {0, full}
                | {a, c, g, t}
                | {full ^ a, full ^ c, full ^ g, full ^ t}
                | {a | c, a | g, a | t}
                | {full ^ (a | c), full ^ (a | g), full ^ (a | t)}
            )
        )
        at, cgx = a | t, c | g | x
        level8 = (0, a, t, cgx, at, a | cgx, t | cgx, full)
        level4 = (0, at, cgx, full)
        pl = generate_primorial(5, choices=[level16, level8, level4])
        return GspPreset(alphabet, pl, (at, cgx))
    raise SequenceError(f"unknown preset {kind!r}")

"""Whole CLI commands at the edges of the kernels and of the input checks,
run in-process through ``cli.main``, each with its expected exit code.

Plain Python and ``python -O`` run the same program (``src/`` holds no
``assert``; see ``test_invariants.py``), so one run of each row covers both.
"""

import random
from fractions import Fraction

import pytest

from primlat.cli import main


def _subset(mask, n):
    return "{" + ",".join(str(a + 1) for a in range(n) if mask >> a & 1) + "}"


def _b8():
    return "\n".join([
        "lattice b8",
        " ".join(["elements", *(f"s{x}" for x in range(256))]),
        " ".join(["covers", *(f"s{x}<s{x | 1 << b}" for x in range(256) for b in range(8) if not x >> b & 1)]),
        " ".join(["ortho", *(f"s{x}:s{255 ^ x}" for x in range(256))]),
    ]) + "\n"


def _b8_fractional():
    """2^8 with a valuation of a different fractional weight per atom."""
    weight = [Fraction(1, 2 + b) for b in range(8)]
    values = (sum((w for b, w in enumerate(weight) if x >> b & 1), Fraction(0)) for x in range(256))
    return _b8().replace("\northo", "\nvaluation " + " ".join(f"s{x}={v}" for x, v in enumerate(values)) + "\northo")


def _plus_fasta():
    rng = random.Random(5)
    return "".join(
        f">rec{k} synthetic\n" + "".join(rng.choice("ACGTXacgtx") for _ in range(n)) + "\n"
        for k, n in enumerate((0, 1, 23, 400))
    )


def _mo2b2():
    """MO2 x 2^2, with values additive on the gated disjoint pairs only."""
    names = "aAbB01"
    comp = dict(zip(names, "AaBb10"))
    weight = dict(zip(names, (3, 7, 2, 8, 0, 10)))
    above = dict(zip(names, ("1", "1", "1", "1", "aAbB", "")))
    elements = [(x, m) for x in names for m in range(4)]
    return "\n".join([
        "lattice mo2b2",
        " ".join(["elements", *(f"{x}{m}" for x, m in elements)]),
        " ".join([
            "covers",
            *(f"{x}{m}<{y}{m}" for x, m in elements for y in above[x]),
            *(f"{x}{m}<{x}{m | 1 << b}" for x, m in elements for b in range(2) if not m >> b & 1),
        ]),
        " ".join(["ortho", *(f"{x}{m}:{comp[x]}{3 ^ m}" for x, m in elements)]),
        " ".join(["prob", *(f"{x}{m}={2 * weight[x] + (0, 5, 15, 20)[m]}/40" for x, m in elements)]),
    ]) + "\n"


INPUTS = {
    "b8.lat": _b8,
    "b8frac.lat": _b8_fractional,
    "big.lat": lambda: "lattice big\n" + " ".join(["elements", *(f"s{x}" for x in range(20000))]) + "\n",
    "top6.txt": lambda: " ".join(_subset(x, 6) for x in range(64)) + "\n",
    "flat.lat": lambda: "lattice flat\nelements a b\ncovers a<b\nvaluation a=0 b=0\n",
    "plus.fa": _plus_fasta,
    "latin1.fa": lambda: b">r\nAC\xffGT\n",
    "plusx.txt": lambda: (
        "# acgt-plus-x: L2^4, L2^3, L2^2\n\n"
        "{} {1} {2} {1,2} {3} {1,3} {4} {1,4} {2,3,5} {1,2,3,5} {2,4,5} {1,2,4,5} {3,4,5} {1,3,4,5} "
        "{2,3,4,5} {1,2,3,4,5}\n"
        "{} {1} {4} {1,4} {2,3,5} {1,2,3,5} {2,3,4,5} {1,2,3,4,5}\n"
        "{} {1,4} {2,3,5} {1,2,3,4,5}\n"
    ),
    "badchoice.txt": lambda: "{} {1} {2} {1,2,3}\n",
    "shortchoice.txt": lambda: "{} {1} {2,3} {1,2,3} {4} {1,4} {2,3,4} {1,2,3,4}\n",
    "longchoice.txt": lambda: "{} {1} {2,3} {1,2,3}\n{} {1,2,3}\n",
    "emptyortho.lat": lambda: "lattice e\northo a:b\n",
    # Fraction would expand 1e-99999999 to 10^8 digits
    "bigexp.lat": lambda: "lattice b\nelements 0 1\ncovers 0<1\nvaluation 0=0 1=1e-99999999\n",
    "conflict.lat": lambda: "lattice b\nelements 0 1\ncovers 0<1\nvaluation 0=0 1=1 1=2\n",
    "quoted.lat": lambda: 'lattice 2-chain\nelements a"b c\ncovers a"b<c\n',
    "n5.lat": lambda: "lattice N5\nelements 0 a b p 1\ncovers 0<a a<b b<1 0<p p<1\n",
    "m3.lat": lambda: "lattice M3\nelements 0 p q r 1\ncovers 0<p 0<q 0<r p<1 q<1 r<1\n",
    # p({1,2}) raised by 1/100: additivity fails, named at the first pair in row order
    "b3bump.lat": lambda: (
        "lattice b3\nelements s0 s1 s2 s3 s4 s5 s6 s7\n"
        "covers s0<s1 s0<s2 s0<s4 s1<s3 s1<s5 s2<s3 s2<s6 s4<s5 s4<s6 s3<s7 s5<s7 s6<s7\n"
        "ortho s0:s7 s1:s6 s2:s5 s3:s4\n"
        "prob s0=0 s1=1/3 s2=1/3 s3=203/300 s4=1/3 s5=2/3 s6=2/3 s7=1\n"
    ),
    # minimal but not De Morgan
    "chain3.lat": lambda: "lattice chain3\nelements 0 a 1\ncovers 0<a a<1\nnegation 0->1 a->0 1->0\n",
    "cycle.lat": lambda: "lattice cycle\nelements a b c\ncovers a<b b<c c<a\n",
    "redundant.lat": lambda: "lattice redundant\nelements 0 a 1\ncovers 0<a a<1 0<1\n",
    "mo2b2.lat": _mo2b2,
    # one gated pair broken too
    "mo2b2bump.lat": lambda: _mo2b2().replace(" a1=11/40 ", " a1=23/80 "),
    # ortho maps that break an orthocomplement axiom
    "orthopartial.lat": lambda: "lattice chain3\nelements 0 a 1\ncovers 0<a a<1\northo 0:1\n",
    "orthofixed.lat": lambda: "lattice chain3\nelements 0 a 1\ncovers 0<a a<1\northo 0:1 a:a\n",
    # a stanza pair is read both ways round, so a map that is no involution
    # conflicts with itself before the axioms are checked
    "orthooneway.lat": lambda: "lattice chain3\nelements 0 a 1\ncovers 0<a a<1\northo 0:1 a:0\n",
    # a:b m:c is an involution with meets 0, but a <= m and not c <= b
    "orthoy6.lat": lambda: (
        "lattice Y6\nelements 0 a b m c 1\ncovers 0<a 0<b a<m b<m m<1 0<c c<1\northo 0:1 a:b m:c\n"
    ),
    "orthoswap.lat": lambda: (
        "lattice O6\nelements 0 p q p' q' 1\ncovers 0<p 0<q p<q' q<p' q'<1 p'<1\northo 0:1 p:q q':p'\n"
    ),
}

# (exit code, argv, expected stdout or None); $name is the path of INPUTS[name]
ROWS = [
    (0, "classify $b8.lat", None),
    (0, "metric $b8frac.lat", None),
    (0, "probability --random-boolean 8 --seed 3", None),
    (0, "reduce --n 6", None),
    (1, "reduce --n 7", None),
    (0, "primorial --n 6", None),
    (0, "enumerate --n 7 --show", None),
    (0, "enumerate --n 9 --show", None),
    (0, "project --n 6 --level L2^5 --method metric --input $top6.txt", None),
    (0, "dposet --n 6", None),
    (0, "project --n 6 --level D6 --method sasaki --input $top6.txt", None),
    (1, "metric $flat.lat", None),
    (0, "analyze --preset acgt-plus-x --method sasaki --window 7 --fasta $plus.fa", None),
    (1, "analyze --preset acgt-atcg --fasta $latin1.fa", None),
    (1, "classify $big.lat", None),
    (0, "primorial --n 5 --choices $plusx.txt", None),
    (1, "primorial --n 3 --choices $badchoice.txt", None),
    (0, "primorial --n 2", None),
    (1, "primorial --n 4 --choices $shortchoice.txt", None),
    (1, "primorial --n 3 --choices $longchoice.txt", None),
    (1, "ortho $emptyortho.lat", None),
    (1, "metric $bigexp.lat", None),
    (1, "metric $conflict.lat", None),
    (0, "hasse $quoted.lat", None),
    (0, "ortho $b8.lat", None),
    (0, "negation $b8.lat", None),
    (0, "classify $n5.lat", None),
    (0, "classify $m3.lat", None),
    (1, "probability $b3bump.lat", None),
    (0, "negation $chain3.lat", None),
    (0, "dposet --n 2", None),
    (0, "project --n 6 --level D2 --method sasaki --input $top6.txt", None),
    (1, "classify $cycle.lat", None),
    (0, "hasse $redundant.lat", None),
    (0, "probability $mo2b2.lat", None),
    (1, "probability $mo2b2bump.lat", None),
    (1, "ortho $orthopartial.lat", None),
    (1, "ortho $orthofixed.lat", None),
    (1, "ortho $orthooneway.lat", None),
    (1, "ortho $orthoy6.lat", None),
    (1, "ortho $orthoswap.lat", None),
    # OEIS A006966, A006981 and A006982 at 10 elements
    (0, "enumerate --n 10", "lattices: 5994 modular: 157 distributive: 47\n"),
]

# command -> the one line it writes to stderr
STDERR = {
    "ortho $orthopartial.lat": "error: totality fails at 'a'\n",
    "ortho $orthofixed.lat": "error: non-contradiction fails at 'a'\n",
    "ortho $orthooneway.lat": "error: line 4: conflicting ortho entries for '0'\n",
    "ortho $orthoy6.lat": "error: antitone fails at ('a', 'm')\n",
    "ortho $orthoswap.lat": "error: antitone fails at ('p', \"q'\")\n",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = {}
    for name, make in INPUTS.items():
        text = make()
        path = root / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("code, command, stdout", ROWS, ids=[command for _, command, _ in ROWS])
def test_command_exits_as_expected(code, command, stdout, inputs, capsys):
    argv = [inputs[arg[1:]] if arg.startswith("$") else arg for arg in command.split()]
    assert main(argv) == code
    captured = capsys.readouterr()
    if stdout is not None:
        assert captured.out == stdout
    if command in STDERR:
        assert captured.err == STDERR[command]
    if code == 1 and captured.err.startswith("error: "):
        assert captured.out == ""

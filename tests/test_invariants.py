"""Every cross-check is a plain ``if`` that raises ``InvariantError``, and the
CLI reports a broken one as exit 3, under plain Python and ``python -O``
alike.

Each forced case breaks one route through a module-level name, so the two
routes of a check disagree on an input where both are otherwise right.
"""

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

from primlat import cli, core, ortho, primorial, probability, projection, valuation
from primlat.core import InvariantError, LatticeError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "primlat"

N5 = "lattice N5\nelements 0 a b p 1\ncovers 0<a a<b b<1 0<p p<1\n"
M3 = "lattice M3\nelements 0 p q r 1\ncovers 0<p 0<q 0<r p<1 q<1 r<1\n"
SQ = "lattice SQ\nelements 0 a b 1\ncovers 0<a 0<b a<1 b<1\n"
CHAIN3 = "lattice chain3\nelements 0 a 1\ncovers 0<a a<1\n"
# the hexagon 0 < p < q' < 1, 0 < q < p' < 1
HEXAGON = "lattice O6\nelements 0 p q p' q' 1\ncovers 0<p 0<q p<q' q<p' q'<1 p'<1\n"
# 0 < a, b < m < 1 and 0 < c < 1; a:b m:c is an involution with meets 0
# but no orthocomplement: a ∨ b = m, not 1
Y6 = "lattice Y6\nelements 0 a b m c 1\ncovers 0<a 0<b a<m b<m m<1 0<c c<1\northo 0:1 a:b m:c\n"
B3 = """\
lattice b3
elements 0 a b c ab ac bc 1
covers 0<a 0<b 0<c a<ab a<ac b<ab b<bc c<ac c<bc ab<1 ac<1 bc<1
ortho 0:1 a:bc b:ac c:ab
"""
# an empty record that projects, then one that reaches the Sasaki check
PLUS_FASTA = ">rec0 empty\n>rec1 synthetic\nACGTX\nacgtx\n"


def _none(*args):
    return None


def _gate_closed(*args):
    return False


def _no_rows(lat, neg):
    return iter(())


def _drop_antichain_element(lat):
    chains, antichain = _chain_partition(lat)
    return chains, antichain[:-1]


def _drop_chain_element(lat):
    chains, antichain = _chain_partition(lat)
    return [chains[0][:-1], *chains[1:]], antichain


def _self_complement(pl, x, target):
    # the Sasaki route reads y' from the enclosing level; make it y
    outer = _enclosing_chain_level(pl, x, target)
    return types.SimpleNamespace(lattice=outer.lattice, complement=lambda y: y)


_chain_partition = core._chain_partition
_enclosing_chain_level = projection._enclosing_chain_level

# id -> (input text or None, argv ahead of the input's path, exit code before
# the route is broken, patches, message); a 1 is an input that a checked
# axiom rejects, and that the derived check still catches once the axiom's
# route accepts it
FORCED = {
    "core-modularity": (N5, ["classify"], 0, [(core, "_find_pentagon", _none)], "modularity routes disagree"),
    "core-distributivity": (M3, ["classify"], 0, [(core, "_find_diamond", _none)], "distributivity routes disagree"),
    "core-modularity-certificate": (
        N5, ["classify"], 0, [(core, "modular_by_certificate", lambda lat: True)], "modularity routes disagree",
    ),
    "core-distributivity-certificate": (
        M3, ["classify"], 0, [(core, "distributive_by_certificate", lambda lat: True)],
        "distributivity routes disagree",
    ),
    "core-width": (
        N5, ["classify"], 0, [(core, "_chain_partition", _drop_antichain_element)],
        "chain cover and antichain certificates disagree",
    ),
    "core-cover": (
        N5, ["classify"], 0, [(core, "_chain_partition", _drop_chain_element)],
        "chain partition must cover the carrier",
    ),
    "ortho-excluded-middle": (Y6, ["ortho"], 1, [(ortho, "_antitone_failure", _none)], "excluded middle at 'a'"),
    "ortho-de-morgan": (
        HEXAGON + "ortho 0:1 p:q q':p'\n", ["ortho"], 1, [(ortho, "_antitone_failure", _none)], "De Morgan",
    ),
    "ortho-boolean": (
        HEXAGON + "ortho 0:1 p:p' q:q'\n", ["ortho"], 0, [(ortho, "distributive_by_identity", lambda lat: True)],
        "boolean but not modular-orthocomplemented",
    ),
    "ortho-modular": (
        HEXAGON + "ortho 0:1 p:p' q:q'\n", ["ortho"], 0, [(ortho, "modular_by_identity", lambda lat: True)],
        "modular-orthocomplemented but not orthomodular",
    ),
    "negation-de-morgan": (
        HEXAGON + "negation 0->1 1->0 p->q q->p q'->p' p'->q'\n", ["negation"], 0,
        [(ortho, "_antitone_failure", _none)], "De Morgan",
    ),
    "negation-join-inequality": (
        CHAIN3 + "negation 0->0 a->1 1->1\n", ["negation"], 0, [(ortho, "_antitone_failure", _none)],
        "De Morgan inequality ~x | ~y <= ~(x & y)",
    ),
    "negation-meet-inequality": (
        SQ + "negation 0->1 a->1 b->0 1->1\n", ["negation"], 0, [(ortho, "_antitone_failure", _none)],
        "De Morgan inequality ~(x | y) <= ~x & ~y",
    ),
    "negation-excluded-middle": (
        Y6, ["negation"], 0, [(ortho, "_antitone_failure", _none), (ortho, "_de_morgan_rows", _no_rows)],
        "excluded middle at 'a'",
    ),
    "primorial-d2": (
        None, ["primorial", "--n", "3"], 0, [(primorial, "difference", lambda *levels: levels[-1])], "D2 is not L2^2",
    ),
    "primorial-reduce": (
        None, ["reduce", "--n", "3"], 0, [(primorial, "_induced_boolean", lambda carrier, size_exp: False)],
        "cube carrier (0, 1, 6, 7) is not Boolean",
    ),
    "primorial-shape": (
        None, ["primorial", "--n", "3"], 0, [(primorial, "is_primorial", _none)],
        "generated family must have the chain shape",
    ),
    "probability-bound": (
        CHAIN3 + "negation 0->1 a->0 1->0\nprob 0=0 a=2 1=1\n", ["probability"], 1, [(probability, "order_failure", _none)],
        "probability outside [0, 1] passed the axioms",
    ),
    "probability-inclusion-exclusion": (
        B3 + "prob 0=0 a=1/10 b=1/10 c=1/10 ab=9/10 ac=9/10 bc=9/10 1=1\n", ["probability"], 1,
        [(probability, "_gated", _gate_closed)], "inclusion-exclusion on a Boolean base at 'a'",
    ),
    "projection-sasaki": (
        "{1}\n", ["project", "--n", "3", "--level", "L2^2", "--method", "sasaki", "--input"], 0,
        [(projection, "_enclosing_chain_level", _self_complement)],
        "Sasaki-map and plain-meet forms must agree at 1 onto L2^2",
    ),
    "projection-sasaki-analyze": (
        PLUS_FASTA, ["analyze", "--preset", "acgt-plus-x", "--method", "sasaki", "--fasta"], 0,
        [(projection, "_enclosing_chain_level", _self_complement)],
        "Sasaki-map and plain-meet forms must agree at 1 onto L2^1",
    ),
    "valuation-metric": (
        SQ + "valuation 0=0 a=1 b=1 1=2\n", ["metric"], 0,
        [(valuation, "_metric_axiom_failure", lambda table: "triangle inequality")], "triangle inequality",
    ),
}


def _argv(text, argv, tmp_path):
    if text is None:
        return argv
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    return [*argv, str(path)]


@pytest.mark.parametrize("case", FORCED)
def test_a_forced_route_disagreement_exits_3(case, tmp_path, monkeypatch, capsys):
    text, argv, code, patches, message = FORCED[case]
    argv = _argv(text, argv, tmp_path)
    assert cli.main(argv) == code
    capsys.readouterr()
    for module, name, route in patches:
        monkeypatch.setattr(module, name, route)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal invariant broken: {message}\n"


def test_every_module_with_a_check_has_a_forced_case():
    checked = {path.stem for path in SRC.glob("*.py") if "raise InvariantError" in path.read_text(encoding="utf-8")}
    forced = {module.__name__.rpartition(".")[2] for *_, patches, _ in FORCED.values() for module, _, _ in patches}
    assert checked == {"core", "ortho", "primorial", "probability", "projection", "valuation"}
    assert checked <= forced


def test_invariant_error_is_not_bad_input():
    # a handler of bad input must not swallow a broken invariant
    assert issubclass(InvariantError, AssertionError)
    assert not issubclass(InvariantError, LatticeError)


def test_src_holds_no_assert_and_reads_no_debug():
    # python -O strips asserts and fixes __debug__; with neither, plain and
    # -O run the same program
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        debug = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "__debug__"]
        assert (asserts, debug) == ([], []), path.name


def test_src_imports_only_the_standard_library():
    # runtime dependencies stay at zero, as pyproject.toml declares
    allowed = sys.stdlib_module_names | {"__future__"}
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert sorted({name.split(".")[0] for name in names} - allowed) == [], path.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for its imports: `dataclasses` pulls in `inspect`,
    # `ast`, `dis` and `tokenize`, and each @dataclass execs generated code
    # that no bytecode cache keeps, so the records are named tuples and
    # core.Record classes
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert "dataclasses" not in {name.split(".")[0] for name in names}, path.name
    # a child, as pytest itself imports both; -S keeps site's imports out
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import primlat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)], capture_output=True, text=True, timeout=60
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


CHILD = """\
import sys
from primlat import cli, core
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(99)
core._find_pentagon = lambda lat: None
sys.exit(cli.main(["classify", sys.argv[2]]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_the_forced_pentagon_disagreement_exits_3_in_a_child(flags, tmp_path):
    path = tmp_path / "n5.lat"
    path.write_text(N5, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONOPTIMIZE", None)
    child = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, str(len(flags)), str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (
        3, "", "error: internal invariant broken: modularity routes disagree\n"
    )

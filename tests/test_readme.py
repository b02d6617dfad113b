"""The README's library tour runs as written, and its commented results hold."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# expression from the tour -> the result its comment states
CLAIMS = {
    "report.is_modular": False,
    "report.width": 2,
    "len(pl.enumerate_lattices(6))": 15,
    """pl.sasaki(ol, "p", "q'")""": "p",
    "pl.ortho_class(ol)": {"orthocomplemented"},
    'pl.probability_report(pa)["traditional"].satisfied': False,
    'pyramid.levels["L2^2"]': bytes((9, 6, 6, 9)),
    "list(family.levels)": ["L2^1", "L2^2", "L2^3", "L2^4", "D2", "D3", "D4"],
}


def _tour():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_library_tour_runs_and_its_comments_hold():
    source = _tour()
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    assert 'pyramid.levels["L2^2"]  # bytes((A|T, C|G, C|G, A|T))\n' in source
    for expr, expected in CLAIMS.items():
        assert expr in source
        assert eval(expr, namespace) == expected, expr

"""The benchmark's trace table, ``bench/spans.py``, names functions of
primlat and reads their arguments by name; a rename in ``src/`` must fail
here, not only in a traced benchmark run.  The file is read, not changed."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load_spans()

# the arguments each hook reads: every name of the first set, and at least
# one of the second
HOOK_READS = {
    ("core", "classify"): ({"lat"}, set()),
    ("primorial", "reduce_boolean"): (set(), set()),
    ("seqproc", "load_fasta"): (set(), set()),
    ("projection", "project"): ({"pl", "level_name", "method"}, {"x", "items"}),
    ("projection", "project_sequence"): ({"pl", "level_name", "method"}, {"x", "items"}),
}


def _traced(module, name):
    return getattr(importlib.import_module(f"primlat.{module}"), name)


def _bound_keys(hook):
    """The string keys the hook subscripts ``bound`` with or tests with ``in bound``."""
    keys = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(hook)))):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "bound":
            keys.add(node.slice.value)
        elif isinstance(node, ast.Compare) and [getattr(c, "id", None) for c in node.comparators] == ["bound"]:
            keys.add(node.left.value)
    return keys


@pytest.mark.parametrize("module, name", sorted(spans.SPANS))
def test_every_span_names_a_callable_of_primlat(module, name):
    assert module in spans.MODULES
    assert callable(_traced(module, name))


def test_the_hooks_are_the_ones_checked_here():
    assert set(spans.HOOKS) == set(HOOK_READS) and set(HOOK_READS) <= set(spans.SPANS)


@pytest.mark.parametrize("module, name", sorted(HOOK_READS))
def test_each_hook_reads_parameters_of_the_function_it_wraps(module, name):
    needed, either = HOOK_READS[module, name]
    params = set(inspect.signature(_traced(module, name)).parameters)
    assert needed <= params
    assert not either or either & params
    assert _bound_keys(spans.HOOKS[module, name]) == needed | either

"""Outside-in spans around the public functions of each primlat module.

``Tracer.install`` replaces each traced function at every binding site: the
defining module and every primlat module that imported the name directly
(``cli``, ``probability``, ``seqproc`` and ``primorial`` do), so calls made
through either name are recorded.  ``uninstall`` puts the originals back,
so untraced passes run the unmodified program.

A span's self time is its duration minus the time of the spans it called.
``pyramid_rows`` is a generator: its span runs from the first row until the
generator is exhausted, which includes the caller's printing of each row.
Functions called once per element (``format_mask``, ``closed_ball``, the
``proj_*`` kernels) are not wrapped; their time is self time of the span
that calls them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "core", "textio", "ortho", "valuation", "probability", "primorial", "projection", "seqproc")

# (module, function) -> span
SPANS = {
    ("cli", "main"): "cli.self",
    ("core", "build_lattice"): "core.build",
    ("core", "classify"): "core.classify",
    ("core", "enumerate_lattices"): "core.enumerate",
    ("textio", "parse_lattice_text"): "textio.parse",
    ("textio", "to_dot"): "textio.dot",
    ("ortho", "attach_ortho"): "ortho.attach",
    ("ortho", "ortho_class"): "ortho.class",
    ("ortho", "classify_negation"): "ortho.negation",
    ("ortho", "relations"): "ortho.relations",
    ("ortho", "relations_of"): "ortho.relations",
    ("valuation", "check_valuation"): "valuation.check",
    ("valuation", "metric_from_valuation"): "valuation.metric",
    ("probability", "validate_probability"): "probability.validate",
    ("probability", "probability_report"): "probability.report",
    ("primorial", "reduce_boolean"): "primorial.reduce",
    ("primorial", "generate_primorial"): "primorial.generate",
    ("primorial", "dposet_check"): "primorial.dposet",
    ("projection", "project"): "projection.project",
    ("projection", "project_sequence"): "projection.project",
    ("seqproc", "gsp_preset"): "seqproc.preset",
    ("seqproc", "load_fasta"): "seqproc.load",
    ("seqproc", "analyze"): "seqproc.analyze",
    ("seqproc", "pyramid_rows"): "seqproc.render",
    ("seqproc", "summarize"): "seqproc.summarize",
}
SPAN_NAMES = tuple(dict.fromkeys(SPANS.values()))
# Modules with more than one span also get their total self time; for cli
# and projection that total is cli.self_s and projection.project_s.
MODULE_TOTALS = tuple(m for m in MODULES if sum(s.startswith(m + ".") for s in SPAN_NAMES) > 1)
COUNTS = (
    "core.classify_calls",
    "core.identity_ops",
    "primorial.reduce_calls",
    "primorial.levels_accepted",
    "projection.elements",
    "projection.repeat_share",
    "seqproc.bases",
    "cli.stdout_bytes",
    "cli.rejections",
)
UNITS = {"projection.repeat_share": "share", "cli.stdout_bytes": "bytes", "trace.overhead": "ratio"}


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    names = [(f"{span}_s", "s") for span in SPAN_NAMES]
    names += [(f"{m}.self_s", "s") for m in MODULE_TOTALS]
    names += [(c, UNITS.get(c, "count")) for c in COUNTS]
    names += [(f"{m}.errors", "count") for m in MODULES]
    names.append(("trace.overhead", "ratio"))
    return names


def _family_key(pl):
    return (pl.top_n, tuple(level.carrier for level in pl.chain))


def _classified(tracer, bound, result):
    tracer.counts["core.classify_calls"] += 1
    tracer.counts["core.identity_ops"] += bound["lat"].n ** 3


def _reduced(tracer, bound, result):
    tracer.counts["primorial.reduce_calls"] += 1
    tracer.counts["primorial.levels_accepted"] += len(result)


def _loaded(tracer, bound, result):
    tracer.counts["seqproc.bases"] += sum(len(tokens) for _, tokens in result)


def _projected(tracer, bound, result):
    items = bound["items"] if "items" in bound else (bound["x"],)
    family = _family_key(bound["pl"])
    tracer.counts["projection.elements"] += len(items)
    tracer.projected.update((family, bound["level_name"], bound["method"], x) for x in items)


HOOKS = {
    ("core", "classify"): _classified,
    ("primorial", "reduce_boolean"): _reduced,
    ("seqproc", "load_fasta"): _loaded,
    ("projection", "project"): _projected,
    ("projection", "project_sequence"): _projected,
}


class Tracer:
    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        """Start a new pass: clear every total."""
        self.self_s = defaultdict(float)
        self.fired = Counter()
        self.counts = defaultdict(float)
        self.errors = Counter()
        self.projected = set()
        self._stack = []
        self._raised = []

    def begin_op(self):
        self._raised = []

    def install(self):
        wrappers = {}
        for (module, name), span in SPANS.items():
            fn = getattr(sys.modules[f"primlat.{module}"], name)
            wrappers[id(fn)] = (fn, self._wrap(module, span, fn, HOOKS.get((module, name))))
        for modname, module in list(sys.modules.items()):
            if modname != "primlat" and not modname.startswith("primlat."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def _error(self, module, exc):
        if not any((m, e) == (module, exc) for m, e in self._raised):
            self._raised.append((module, exc))
            self.errors[module] += 1

    def _close(self, span, duration, child):
        self.self_s[span] += duration - child
        self.fired[span] += 1
        if self._stack:
            self._stack[-1] += duration

    def _wrap(self, module, span, fn, hook):
        signature = inspect.signature(fn)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                start = perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                except Exception as exc:
                    self._error(module, exc)
                    raise
                finally:
                    self._close(span, perf_counter() - start, 0.0)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(module, exc)
                raise
            finally:
                self._close(span, perf_counter() - start, self._stack.pop())
            if hook:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def metrics(self):
        """This pass's per-layer values, without trace.overhead."""
        out = {f"{span}_s": self.self_s[span] for span in SPAN_NAMES}
        for m in MODULE_TOTALS:
            out[f"{m}.self_s"] = sum(v for s, v in self.self_s.items() if s.startswith(m + "."))
        for c in COUNTS:
            out[c] = self.counts[c]
        elements = self.counts["projection.elements"]
        out["projection.repeat_share"] = 1 - len(self.projected) / elements if elements else 0.0
        for m in MODULES:
            out[f"{m}.errors"] = self.errors[m]
        return out

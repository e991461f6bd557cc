"""Out-of-program tracing of liesym's public functions.

``Tracer.install`` replaces each target function by a timing wrapper in every
namespace that holds it: the defining module and each ``liesym`` module that
bound the name with ``from ... import``.
Class attributes such as the static method ``GridFunction.sample`` are
wrapped on the class.  ``Tracer.remove`` puts every original back.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out by ``write_spans`` after the pass.  Per function the tracer keeps
the call count, the total time of outermost activations (so recursion is not
counted twice) and the self time: each span's duration minus the durations of
its direct traced children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array

# Public functions per liesym module; each gets .calls, .total_s and .self_s.
LAYERS = {
    "expr": ("total_derivative", "point_derivative", "substitute", "equals_zero"),
    "parser": ("parse",),
    "fields": ("lie_bracket", "decompose_in_basis", "commutator_table", "closure_report",
               "derived_series", "match_canonical"),
    "catalog": ("generators", "exact_solutions"),
    "prolong": ("prolong2", "determining_residual", "exponentiate_catalog"),
    "conservation": ("conserved_vector", "divergence_onshell_symbolic",
                     "divergence_numeric_fractional"),
    "audit": ("bracket_table_audit", "conserved_vector_diff"),
    "fracnum": ("GridFunction.sample", "rl_derivative_grid", "rl_integral_values",
                "residual_on_grid", "invariance_check", "j_quadrature", "mittag_leffler"),
    "cli": ("main",),
}

# Third-party calls made by a liesym module, traced under that module's name.
FOREIGN = {"fracnum.leggauss": ("numpy.polynomial.legendre", "leggauss")}

FUNCTION_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) \
    + tuple(FOREIGN)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps functions, records spans and aggregates per-function times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.stats: dict[str, _Stat] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span id, time covered by children]
        self._patches: list[tuple] = []
        # counts kept at the same boundaries as the spans
        self.decompose_keys: set = set()
        self.decompose_calls = 0
        self.table_keys: set = set()
        self.table_calls = 0
        self.sample_points = 0
        self.node_pairs = 0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper that records a span per call of fn under `name`.
        before(args, kwargs) and after(result) update the tracer's counts."""
        idx = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = _Stat()
        stack, clock = self._stack, self.clock
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            span_start.append(t0)
            span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_end[sid] = t1
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[1]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hooks(self, name: str, fn):
        sig = inspect.signature(fn)
        if name == "fields.decompose_in_basis":
            def before(args, kwargs):
                f, basis = _bind(sig, args, kwargs, "f", "basis")
                self.decompose_calls += 1
                self.decompose_keys.add((f, tuple(basis)))
            return before, None
        if name == "fields.commutator_table":
            def before(args, kwargs):
                (basis,) = _bind(sig, args, kwargs, "basis")
                self.table_calls += 1
                self.table_keys.add(tuple(basis))
            return before, None
        if name == "fracnum.GridFunction.sample":
            def after(result):
                self.sample_points += int(result.values.size)
            return None, after
        if name == "fracnum.j_quadrature":
            def before(args, kwargs):
                (nodes,) = _bind(sig, args, kwargs, "nodes")
                self.node_pairs += int(nodes) ** 2
            return before, None
        return None, None

    def install(self) -> "Tracer":
        """Wrap every target in every namespace that binds it."""
        targets = []
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"liesym.{mod}")
            for qual in fns:
                targets.append((f"{mod}.{qual}", module, qual))
        for name, (modname, attr) in FOREIGN.items():
            targets.append((name, importlib.import_module(modname), attr))
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "liesym" or k.startswith("liesym.")]
        try:
            for name, module, qual in targets:
                if "." in qual:
                    self._wrap_class_attr(name, module, qual)
                else:
                    self._wrap_function(name, module, qual, namespaces)
        except BaseException:
            self.remove()
            raise
        return self

    def _wrap_function(self, name, module, attr, namespaces):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, *self._hooks(name, original))
        for ns in [module] + [m for m in namespaces if m is not module]:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def _wrap_class_attr(self, name, module, qual):
        cls_name, attr = qual.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            replacement = type(raw)(self.wrap(name, fn, *self._hooks(name, fn)))
        else:
            replacement = self.wrap(name, raw, *self._hooks(name, raw))
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def remove(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in FUNCTION_NAMES:
            if name in FOREIGN:
                continue
            st = self.stats.get(name) or _Stat()
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
        out["fields.decompose_in_basis.useful_ratio"] = _ratio(len(self.decompose_keys),
                                                              self.decompose_calls)
        out["fields.commutator_table.useful_ratio"] = _ratio(len(self.table_keys),
                                                            self.table_calls)
        sample = self.stats.get("fracnum.GridFunction.sample") or _Stat()
        out["fracnum.GridFunction.sample.points"] = self.sample_points
        out["fracnum.GridFunction.sample.points_per_s"] = _ratio(self.sample_points,
                                                                sample.total_s)
        out["fracnum.j_quadrature.node_pairs"] = self.node_pairs
        leg = self.stats.get("fracnum.leggauss") or _Stat()
        out["fracnum.leggauss.calls"] = leg.calls
        out["fracnum.leggauss.total_s"] = leg.total_s
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent span id."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.span_name)):
                fh.write('{"id":%d,"name":"%s","start":%r,"end":%r,"parent":%d}\n' % (
                    i, self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i]))


def _bind(sig, args, kwargs, *params):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments[p] for p in params)


def _ratio(num, den) -> float:
    return num / den if den else 0.0

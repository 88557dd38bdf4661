"""Opt-in tracing of calls into the `equilines` layers.

Each public function of every layer module, and each public `PermGroup`
method, is wrapped and the wrapper is rebound in every `equilines` namespace
that refers to the original.  Rebinding everywhere matters: `groups` and
`cli` import `localize`, `conjugate` and friends by name, so patching only
the defining module would miss those calls.

Calls to the functions in HOT run once per element, coefficient or
permutation entry; one span each would swamp the trace, so their calls are
aggregated into per-function counts and summed time instead.  Every other
call records a span (job id, span id, parent span id, name, start, end,
time spent in aggregated children, raised or not), kept in memory until the
run ends.  Self time is computed from the spans afterwards: a span's
duration minus that of its child spans and aggregated children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "groups", "extensibility", "fields", "constructions",
          "spectra", "cli")

# Called per coefficient, per permutation entry or per field element.
HOT = {
    "spectra": {"poly_trim", "poly_add", "poly_sub", "poly_neg", "poly_mul",
                "poly_scale", "poly_pow", "poly_eval", "poly_divexact",
                "poly_divmod_q", "poly_derivative"},
    "groups": {"identity_perm", "perm_mul", "perm_inv", "perm_order",
               "check_perm"},
    "graphs": {"check_switching_vector"},
}
HOT_CLASSES = {"fields": "FieldCtx"}       # every public method aggregated
SPAN_CLASSES = {"groups": "PermGroup"}     # every public method a span


def _public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if (not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def _public_methods(cls):
    for name, obj in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(obj, property):
            yield name, obj.fget, True
        elif callable(obj) and not isinstance(obj, (classmethod, staticmethod)):
            yield name, obj, False


class Tracer:
    """Records spans and aggregates while installed; see the module doc."""

    def __init__(self, package, probes=()):
        """`probes`: span keys whose distinct results are kept per job."""
        self.package = package
        self.modules = {layer: sys.modules[f"{package.__name__}.{layer}"]
                        for layer in LAYERS}
        self.spans = []
        self.aggregates = defaultdict(lambda: [0, 0.0])   # key -> [calls, self_s]
        self.results = defaultdict(dict)                  # key -> {id: result}
        self.probes = set(probes)
        self._stack = []
        self._next_sid = 1
        self.job = 0
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        if self._undo:
            return
        namespaces = [self.package] + list(self.modules.values())
        for layer, module in self.modules.items():
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                wrapped = (self._aggregated(key, fn) if name in HOT.get(layer, ())
                           else self._span(key, fn))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, attr, fn))
                            setattr(ns, attr, wrapped)
            for table, make in ((HOT_CLASSES, self._aggregated),
                                (SPAN_CLASSES, self._span)):
                if layer not in table:
                    continue
                cls = getattr(module, table[layer])
                for name, fn, is_prop in _public_methods(cls):
                    key = f"{layer}.{cls.__name__}.{name}"
                    wrapped = make(key, fn)
                    self._undo.append((cls, name, vars(cls)[name]))
                    setattr(cls, name, property(wrapped) if is_prop else wrapped)

    def uninstall(self):
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, key, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        probe = key in self.probes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                spans.append((self.job, sid, parent, key, t0, t1, frame[1], raised))
                if probe and not raised:
                    self.results[key][id(result)] = result
        return wrapper

    def _aggregated(self, key, fn):
        stack = self._stack
        totals = self.aggregates[key]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                totals[0] += 1
                totals[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return wrapper

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job_id):
        """Start a job; results of probed functions are kept for this job only."""
        self.job = job_id
        self._stack[:] = [[0, 0.0]]
        self.results.clear()

    def end_job(self):
        """Close the job; a span cut short by the deadline left its frame."""
        self._stack[:] = []

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-key [calls, self seconds, calls that raised, inclusive
        seconds], spans and aggregates together."""
        child = defaultdict(float)
        for _, _, parent, _, t0, t1, _, _ in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0, 0.0])
        for _, sid, _, key, t0, t1, hidden, raised in self.spans:
            row = out[key]
            row[0] += 1
            row[1] += (t1 - t0) - child[sid] - hidden
            row[2] += raised
            row[3] += t1 - t0
        for key, (calls, self_s) in self.aggregates.items():
            row = out[key]
            row[0] += calls
            row[1] += self_s
            row[3] += self_s
        return out

    def dump(self):
        """Spans as lists with times in microseconds from the first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        return {
            "fields": ["job", "span", "parent", "name", "start_us", "dur_us",
                       "aggregated_children_us", "raised"],
            "spans": [[job, sid, parent, key, round(1e6 * (t0 - origin), 1),
                       round(1e6 * (t1 - t0), 1), round(1e6 * hidden, 1), raised]
                      for job, sid, parent, key, t0, t1, hidden, raised in self.spans],
            "aggregates": {key: {"calls": calls, "self_us": round(1e6 * s, 1)}
                           for key, (calls, s) in self.aggregates.items()},
        }

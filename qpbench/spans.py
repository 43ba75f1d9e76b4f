"""Spans and counts around the public functions of the solver's layers.

The package under test is not edited: :class:`Tracer` replaces the public
functions named in :data:`TRACED` by thin wrappers for the duration of a
``with`` block and puts the originals back afterwards.  The solver reaches
these functions through their module (``model.mul_G``, ``kkt.solve_H``) or
their class, so every internal call passes through the wrappers.

Each call becomes a span (name, start, end, parent span, group).  The group
ties a span to the benchmark operation or set-up that caused it; calls made
while no group is open (warm-up) are passed through unrecorded.  Spans are
kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (module, public name) pairs; "Class.method" names a method or classmethod
TRACED = (
    ("model", "OcpProblem.from_stages"),
    ("model", "validate"),
    ("model", "pad_horizon"),
    ("model", "mul_Q"),
    ("model", "mul_M"),
    ("model", "mul_MT"),
    ("model", "mul_G"),
    ("model", "mul_GT"),
    ("compact", "CompactBatch.to_stack"),
    ("compact", "CompactBatch.from_stack"),
    ("kkt", "StageFactorization.allocate"),
    ("kkt", "weights_from_shifted"),
    ("kkt", "assemble_H"),
    ("kkt", "factor_stages"),
    ("kkt", "factor_psi"),
    ("kkt", "solve_newton"),
    ("kkt", "solve_H"),
    ("kkt", "psi_solve"),
    ("alm", "initial_penalty"),
    ("alm", "eval_grad_phi"),
    ("alm", "exact_line_search"),
    ("alm", "Solver.solve"),
    ("alm", "Solver.update_initial_state"),
    ("alm", "Solver.update_gradient"),
)

# a pivot failure escaping these makes the solver escalate the proximal term
PIVOT_ESCALATING = ("kkt.factor_stages", "kkt.factor_psi")


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self, package):
        self._package = package
        self._saved = []
        self.names = [module + "." + name for module, name in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.escalations = {}  # group -> pivot failures that made the solver escalate
        self._stack = []
        self._group = None

    # -- grouping -------------------------------------------------------------

    def open_group(self, group, name):
        """Start a root span for one operation (group >= 0) or set-up
        (group < 0); the spans of the calls it makes share the group."""
        if name not in self.names:
            self.names.append(name)
        self._group = group
        self._stack.append(self._push(self.names.index(name)))

    def close_group(self):
        self.end[self._stack.pop()] = time.perf_counter()
        self._group = None

    def _push(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group.append(self._group)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        return idx

    # -- installation ---------------------------------------------------------

    def _wrap(self, nid, fn):
        name = self.names[nid]
        escalates = name in PIVOT_ESCALATING
        pivot_error = self._package.compact.NonPositivePivot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._group is None:
                return fn(*args, **kwargs)
            idx = self._push(nid)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except pivot_error:
                if escalates:
                    self.escalations[self._group] = self.escalations.get(self._group, 0) + 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def __enter__(self):
        for nid, (module_name, name) in enumerate(TRACED):
            module = getattr(self._package, module_name)
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(nid, raw.__func__))
                else:
                    new = self._wrap(nid, raw)
            else:
                owner, attr = module, name
                raw = getattr(module, name)
                new = self._wrap(nid, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with self time = duration minus the time of
        the direct children (calls nest strictly, one thread)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "group": np.frombuffer(self.group, dtype=np.int32),
            "start": start,
            "end": end,
            "self": dur - child,
        }

    def layer_totals(self, groups):
        """{name: (summed self time, call count)} over spans whose group
        satisfies the boolean mask function ``groups``."""
        spans = self.arrays()
        keep = groups(spans["group"])
        ids = spans["name_id"][keep]
        self_time = np.bincount(ids, weights=spans["self"][keep], minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {
            name: (float(self_time[i]), int(calls[i])) for i, name in enumerate(self.names)
        }

    def save(self, path):
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), **spans)

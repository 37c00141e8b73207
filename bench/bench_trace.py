"""Timing spans around the public functions of each nelliptic module.

The wrappers live here, not in the program: ``Tracer.install`` replaces each
target in every ``nelliptic`` module that binds it (``regularity.evaluate``
is ``operators.evaluate``, and so on), and scipy's ``spsolve`` where the
solver looks it up; ``uninstall`` puts the originals back. Spans are kept in flat arrays (name, start, end, parent, job id) and
written out once at the end of the run. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, qualified name, reported metrics) of every traced function, by
# layer. "cli.main" is the root span of every job; "solver.spsolve" is scipy's
# sparse LU as the solver calls it (``spla.spsolve``).
TARGETS = (
    ("cli", "main", ("self_s",)),
    ("operators", "evaluate", ("calls", "self_s")),
    ("operators", "eigenvalues_sym", ("calls", "self_s")),
    ("operators", "SymMatrix.from_full", ("calls", "self_s")),
    ("operators", "ellipticity_probe", ("self_s",)),
    ("operators", "pucci", ("calls",)),
    ("polyfit", "minimax_fit", ("calls", "self_s")),
    ("polyfit", "Polynomial.__call__", ("calls", "self_s")),
    ("polyfit", "Polynomial.hessian", ("calls", "self_s")),
    ("polyfit", "ball_samples", ("calls", "self_s")),
    ("solver", "solve_pucci", ("self_s",)),
    ("solver", "solve_monge_ampere", ("self_s",)),
    ("solver", "solve_linear", ("self_s",)),
    ("solver", "solve_mean_curvature", ("self_s",)),
    ("solver", "boundary_values", ("self_s",)),
    ("solver", "spsolve", ("calls", "self_s")),
    ("regularity", "campanato_table", ("self_s",)),
    ("regularity", "check_viscosity", ("self_s",)),
    ("geometry", "abp_check", ("self_s",)),
    ("geometry", "section", ("self_s",)),
    ("geometry", "mvee", ("self_s",)),
    ("geometry", "john_normalize", ("self_s",)),
    ("fixtures", "AnalyticFunction.__call__", ("calls", "self_s")),
    ("fixtures", "AnalyticFunction.rhs", ("calls", "self_s")),
    ("grid", "read_grid", ("self_s",)),
    ("grid", "write_grid", ("self_s",)),
    ("grid", "GridFunction.__call__", ("calls", "self_s")),
)

SPSOLVE = "solver.spsolve"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counters = {"grid.bytes_read": 0, "grid.bytes_written": 0}
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(args)`` runs outside
        the span, for counters that need the call's arguments."""
        nid = self._nid(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
                if after is not None:
                    after(args)

        return traced

    # -- patching --------------------------------------------------------------

    def _add_bytes(self, key, path):
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            self.counters[key] += os.path.getsize(path)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nelliptic" or n.startswith("nelliptic."))]
        for mod_name, qual, _ in TARGETS:
            owner = sys.modules["nelliptic." + mod_name]
            name = "%s.%s" % (mod_name, qual)
            if name == SPSOLVE:
                owner = owner.spla
            after = None
            if name == "grid.read_grid":
                after = lambda args: self._add_bytes("grid.bytes_read", args[0])  # noqa: E731
            elif name == "grid.write_grid":
                after = lambda args: self._add_bytes("grid.bytes_written", args[1])  # noqa: E731
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw, after)
                self._patch(cls, attr, raw, new)
                continue
            orig = getattr(owner, qual)
            new = self.wrap(name, orig, after)
            for mod in [owner] + modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, orig, new)

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def arrays(self, first=0, last=None):
        """Spans ``first:last`` (one traced pass) as numpy arrays, with self
        times; a pass's spans have no parent outside it."""
        sl = slice(first, last)
        nid = np.frombuffer(self.name_id, dtype=np.int32)[sl]
        start = np.frombuffer(self.start, dtype=np.float64)[sl]
        end = np.frombuffer(self.end, dtype=np.float64)[sl]
        parent = np.frombuffer(self.parent, dtype=np.int32)[sl]
        job = np.frombuffer(self.job, dtype=np.int32)[sl]
        dur = end - start
        has_parent = parent >= first
        child = np.bincount(parent[has_parent] - first, weights=dur[has_parent],
                            minlength=len(dur))
        return {"name_id": nid, "start": start, "end": end, "parent": parent,
                "job": job, "dur": dur, "self": dur - child}

    def summary(self, first=0, last=None):
        """{span name: {"calls", "self_s", "jobs": {job id: calls}}} over
        spans ``first:last``."""
        a = self.arrays(first, last)
        out = {}
        for i, name in enumerate(self.names):
            sel = a["name_id"] == i
            if not sel.any():
                continue
            jobs, counts = np.unique(a["job"][sel], return_counts=True)
            out[name] = {
                "calls": int(sel.sum()),
                "self_s": float(a["self"][sel].sum()),
                "jobs": dict(zip(map(int, jobs), map(int, counts))),
            }
        return out

    def parent_names(self, name, first=0, last=None):
        """{parent span name: calls} for the spans ``first:last`` called ``name``."""
        a = self.arrays(first, last)
        if name not in self._name_ids:
            return {}
        sel = a["name_id"] == self._name_ids[name]
        par = a["parent"][sel]
        out = {}
        for p in par:
            pname = self.names[a["name_id"][p - first]] if p >= first else None
            out[pname] = out.get(pname, 0) + 1
        return out

    def write(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=a["name_id"], start=a["start"],
                 end=a["end"], parent=a["parent"], job=a["job"])

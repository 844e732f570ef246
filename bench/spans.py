"""In-memory span recorder and the wrappers that time calls into ucfem.

The benchmark measures each layer from outside the package: it replaces
the module attribute a caller looks up with a wrapper that records a span
around the original call.  `solver.py` and `studies.py` bind their
imports by name (`from .fem import assemble_stiffness`), so each wrapper
is installed on the name the *caller* resolves, which is why one function
can appear in several rows of `SPAN_SITES`.

A span is (name, start, end, parent, workload, level).  Self time is a
span's duration minus the time its child spans cover; spans nest strictly
because they are opened and closed by a call stack.
"""

from __future__ import annotations

import contextlib
import functools
import time

import ucfem.fem
import ucfem.mesh
import ucfem.solver
import ucfem.sparse
import ucfem.studies

#: (module, attribute looked up by the caller, span name)
SPAN_SITES = (
    (ucfem.mesh, "build_disk_mesh", "mesh.build"),
    (ucfem.studies, "build_disk_mesh", "mesh.build"),
    (ucfem.mesh, "refine_uniform", "mesh.refine"),
    (ucfem.studies, "refine_uniform", "mesh.refine"),
    (ucfem.fem, "build_space", "fem.space"),
    (ucfem.solver, "build_space", "fem.space"),
    (ucfem.fem, "assemble_stabilization", "fem.stabilization"),
    (ucfem.solver, "assemble_stabilization", "fem.stabilization"),
    (ucfem.fem, "assemble_gradient_jump", "fem.jump"),
    (ucfem.fem, "assemble_cell_laplacian", "fem.cell_laplacian"),
    (ucfem.fem, "assemble_region_mass", "fem.mass"),
    (ucfem.solver, "assemble_region_mass", "fem.mass"),
    (ucfem.solver, "assemble_stiffness", "fem.stiffness"),
    (ucfem.solver, "assemble_load_region", "fem.load"),
    (ucfem.fem, "interpolate_nodal", "fem.interpolate"),
    (ucfem.studies, "interpolate_nodal", "fem.interpolate"),
    (ucfem.studies, "error_norms", "fem.error_norms"),
    (ucfem.studies, "triple_norm", "fem.triple_norm"),
    (ucfem.solver, "compose_saddle", "sparse.compose"),
    (ucfem.solver, "solve_direct", "sparse.solve_direct"),
    (ucfem.solver, "make_perturbation", "solver.perturbation"),
    (ucfem.studies, "solve_uc", "solver.solve_uc"),
    (ucfem.studies, "hminus1_residual", "solver.hminus1"),
)

#: span names whose calls produce a mesh; the finest one is recorded
MESH_SPANS = ("mesh.build", "mesh.refine")


class Tracer:
    """Collects spans and counters for one workload; the spans of a
    disabled tracer record nothing."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.level = None
        self.spans = []
        self.counts = {}
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": sid,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "workload": self.workload,
            "level": self.level,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class Patches:
    """Replaces module attributes and puts the originals back on exit.

    `getattr` on a renamed or removed name raises, so an API change fails
    the run instead of silently leaving a layer unmeasured.
    """

    def __init__(self):
        self._saved = []

    def wrap(self, module, name, make):
        original = getattr(module, name)
        setattr(module, name, make(original))
        self._saved.append((module, name, original))

    def restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def _span_wrapper(tracer, name):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if name in MESH_SPANS:
                tracer.maximum("mesh.triangles_finest", out.n_triangles)
            return out

        return wrapper

    return make


class _CountingLU:
    """SuperLU proxy that counts triangular solves."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.add("sparse.lu_solves", 1)
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _splu_wrapper(tracer):
    def make(splu):
        @functools.wraps(splu)
        def wrapper(A, *args, **kwargs):
            tracer.add("sparse.K_nnz", int(A.nnz))
            with tracer.span("sparse.factor"):
                lu = splu(A, *args, **kwargs)
            tracer.add("sparse.factor_nnz", int(lu.nnz))
            return _CountingLU(lu, tracer)

        return wrapper

    return make


def install_spans(patches: Patches, tracer: Tracer):
    """Wrap every layer entry point; `ucfem.sparse.spla` is scipy's
    `scipy.sparse.linalg`, whose `splu` is what `solve_direct` factors with."""
    for module, attr, name in SPAN_SITES:
        patches.wrap(module, attr, _span_wrapper(tracer, name))
    patches.wrap(ucfem.sparse.spla, "splu", _splu_wrapper(tracer))


def span_totals(spans):
    """Per span name: (calls, inclusive seconds, self seconds), plus the
    seconds covered by top-level spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals = {}
    covered = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        calls, incl, self_s = totals.get(s["name"], (0, 0.0, 0.0))
        totals[s["name"]] = (calls + 1, incl + dur, self_s + dur - child_time[s["id"]])
        if s["parent"] is None:
            covered += dur
    return totals, covered

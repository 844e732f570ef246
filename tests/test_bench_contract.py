"""What the benchmark harness under bench/ reads of the package.

The harness wraps module attributes by name (`bench/spans.py`), reads
`.matrix` off two assembled forms and takes `solve_direct`'s `rel_tol`
default for its residual check (`bench/worker.py`).  A refactor that
renames or reshapes any of these breaks the traced benchmark; these
checks fail first, in about a second.
"""

import importlib.util
import inspect
from pathlib import Path

import ucfem.fem
import ucfem.solver
import ucfem.sparse
from ucfem.mesh import Region

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_sites_resolve_to_callables():
    spans = load_spans()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in spans.SPAN_SITES
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
    assert callable(ucfem.sparse.spla.splu)


def test_energy_forms_have_matrix(base_mesh):
    space = ucfem.fem.build_space(base_mesh, 1)
    stab = ucfem.fem.assemble_stabilization(space, base_mesh.h).matrix
    mass = ucfem.fem.assemble_region_mass(space, Region.OMEGA_DATA).matrix
    assert stab.shape == mass.shape == (space.n_dofs, space.n_dofs)


def test_solve_direct_has_rel_tol_default():
    param = inspect.signature(ucfem.solver.solve_direct).parameters["rel_tol"]
    assert param.default is not inspect.Parameter.empty

"""Reference computations the tests check the library against.

Nothing in the package reads them: closed-form and quadrature norms of
the harmonic monomials, a collapsed tensor rule on the reference
triangle, a config printer, a mesh's interior edges and the orbits of a
solve's unknowns found by walking their rotation.  The helpers after
them are shared by several test modules: a traced allocation peak, a
jittered disk mesh, a saddle system composed with sp.bmat and the
arguments a solve hands `CyclicModes`.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import scipy.sparse as sp

from ucfem import solver
from ucfem.config import RunConfig, config_echo
from ucfem.geometry import Geometry
from ucfem.harmonic import HarmonicMonomial, _norm_constant_3d
from ucfem.mesh import ALL_REGIONS, B_REGIONS, Mesh, Region, build_disk_mesh, mesh_from_arrays
from ucfem.quadrature import TriangleRule, gauss_rule_01
from ucfem.sparse import FormMatrix, cyclic_orbits


def harmonic_norm_closed(mono: HarmonicMonomial, rho: float) -> float:
    """Squared L2 norm of the complex monomial z^{n-1} on B(rho)."""
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    n = mono.n
    if mono.dim == 2:
        return math.pi / n * rho ** (2 * n)
    return 2.0 * math.pi * float(_norm_constant_3d(n)) * rho ** (2 * n + 1)


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{key} = {val}\n" for key, val in config_echo(cfg).items())


def interior_edges(mesh: Mesh) -> np.ndarray:
    """Indices of edges shared by exactly two triangles."""
    return np.nonzero(mesh.edge_counts == 2)[0]


def stitched_rotation(*spaces):
    """The rotation of the unknowns of `spaces`, the dofs of each after
    those of the spaces before it (the saddle's [u; z] for the primal and
    the dual space), or None on a mesh without a recorded rotation: the
    mesh's turn carried to each space's dofs, renumbered through its
    `active` dofs by a sorted search, offset by the dofs before it."""
    mesh = spaces[0].mesh
    if mesh.rotation is None:
        return None
    parts, offset = [], 0
    for space in spaces:
        turn = mesh.rotation if space.k == 1 else mesh.rotation_with_midpoints
        parts.append(offset + np.searchsorted(space.active, turn[space.active]).astype(np.int32))
        offset += space.n_dofs
    return np.concatenate(parts)


def stitched_orbits(*spaces):
    """`cyclic_orbits` of the `stitched_rotation` of `spaces` at their dofs'
    points: the orbits of a solve's unknowns, walked from the rotation."""
    coords = np.concatenate([space.dof_coords for space in spaces])
    return cyclic_orbits(stitched_rotation(*spaces), coords)


def tri_rule_collapsed(degree: int) -> TriangleRule:
    """Tensor Gauss rule mapped to the triangle, exact for `degree`.

    Collapses the square [0,1]^2 via (xi, eta*(1-xi)); the Jacobian factor
    (1-xi) raises the xi-degree by one.  Heavier than the symmetric rules
    but generated from trusted Gauss-Legendre data for any degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n_xi = (degree + 2) // 2 + 1
    n_eta = (degree + 1) // 2 + 1
    x_xi, w_xi = gauss_rule_01(n_xi)
    x_eta, w_eta = gauss_rule_01(n_eta)
    xi = np.repeat(x_xi, n_eta)
    eta = np.tile(x_eta, n_xi) * (1.0 - xi)
    wts = np.repeat(w_xi * (1.0 - x_xi), n_eta) * np.tile(w_eta, n_xi)
    pts = np.column_stack([1.0 - xi - eta, xi, eta])
    return TriangleRule(points=pts, weights=wts)


def ball_norm_sq_quadrature(
    mesh: Mesh,
    geometry: Geometry,
    mono: HarmonicMonomial,
    circle: int,
) -> float:
    """Squared L2 norm of the complex monomial over B(r_circle) by quadrature.

    Integrates |z^{n-1}|^2 = (x^2+y^2)^{n-1} over the tagged triangles
    inside the circle and completes the polygon-to-circle slivers with a
    polar tensor rule per boundary chord, so the result is comparable to
    the closed forms at full quadrature accuracy rather than being O(h^2)
    short of them.
    """
    if circle not in (1, 2, 3):
        raise ValueError(f"circle must be 1, 2 or 3, got {circle}")
    rule = tri_rule_collapsed(max(2 * (mono.n - 1), 2))
    regions = {1: (Region.OMEGA_DATA,), 2: B_REGIONS, 3: ALL_REGIONS}[circle]
    rho = {1: geometry.r1, 2: geometry.r2, 3: geometry.r3}[circle]
    p = mono.n - 1

    elements = mesh.region_elements(regions)
    v = mesh.vertices
    det = 2 * mesh.signed_areas[elements]
    pts = np.einsum("qi,eia->eqa", rule.points, v[mesh.triangles[elements]])
    rsq = pts[:, :, 0] ** 2 + pts[:, :, 1] ** 2
    tri_part = float(np.einsum("q,eq,e->", rule.weights, rsq**p, det))

    # boundary chords of the tagged region: edges with both ends on the circle
    on_circle = mesh.vertex_circle == circle
    chords = np.nonzero(on_circle[mesh.edges[:, 0]] & on_circle[mesh.edges[:, 1]])[0]
    a = v[mesh.edges[chords, 0]]
    b = v[mesh.edges[chords, 1]]
    theta_a = np.arctan2(a[:, 1], a[:, 0])
    theta_b = np.arctan2(b[:, 1], b[:, 0])
    delta = np.mod(theta_b - theta_a + np.pi, 2 * np.pi) - np.pi  # signed, small
    theta_lo = np.where(delta >= 0, theta_a, theta_b)
    span = np.abs(delta)
    dist = rho * np.cos(0.5 * span)  # chord distance from the origin

    tq, wq = gauss_rule_01(8)
    theta = theta_lo[:, None] + span[:, None] * tq[None, :]
    r_chord = dist[:, None] / np.cos(theta - (theta_lo + 0.5 * span)[:, None])
    width = rho - r_chord  # (nc, nq)
    # radial Gauss points per (chord, theta)
    r = r_chord[:, :, None] + width[:, :, None] * tq[None, None, :]
    integrand = r ** (2 * p) * r  # f(r) * jacobian r
    radial = np.einsum("s,cqs->cq", wq, integrand) * width
    seg_part = float(np.einsum("q,cq,c->", wq, radial, span))

    return tri_part + seg_part


def traced_peak(fn):
    """fn() and the peak of what Python and numpy allocate while it runs,
    in bytes above what was allocated before it (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def csr_bytes(A):
    """The bytes of a CSR/CSC matrix's data, indices and indptr."""
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def jittered_disk_mesh(geometry, level, seed, amplitude):
    """Disk mesh with every non-boundary vertex moved by at most `amplitude`
    times a fifth of the smallest triangle height: a displacement that keeps
    every triangle positively oriented."""
    mesh = build_disk_mesh(geometry, 8, level)
    v, t = mesh.vertices, mesh.triangles
    longest = np.max(
        [np.linalg.norm(v[t[:, i]] - v[t[:, (i + 1) % 3]], axis=1) for i in range(3)], axis=0
    )
    reach = 0.2 * (2.0 * mesh.signed_areas / longest).min()
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-1.0, 1.0, v.shape)
    shift *= amplitude * reach / np.maximum(np.linalg.norm(shift, axis=1), 1.0)[:, None]
    shift[mesh.boundary_vertices] = 0.0
    return mesh_from_arrays(v + shift, t, mesh.region_tag, mesh.level, mesh.vertex_circle)


def composed(K):
    """The matrix of the `Saddle` K composed with sp.bmat from its
    materialized forms, sorted: the reference its rows, products and
    maximum are tested against."""
    S, M, B, A0 = (csr(block) for block in (K.S, K.M_omega, K.B, K.A0))
    full = sp.bmat([[S + M, B.T], [B, -A0]], format="csr")
    full.sort_indices()
    return full


def csr(block):
    """A `Saddle` block as CSR: a form materialized, a CSR block itself."""
    return block.matrix if isinstance(block, FormMatrix) else block


def modes_args(K, b, *spaces):
    """The arguments `_solve_ordered` hands `CyclicModes` for K x = b over
    the dofs of `spaces`; without a space, the order-1 case at the origin."""
    if not spaces:
        coords = np.zeros((K.shape[0], 2))
        return K, b, coords, cyclic_orbits(None, coords)
    return K, b, np.concatenate([space.dof_coords for space in spaces]), solver._orbits(spaces)

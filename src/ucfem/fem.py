"""Lagrange elements, dof management and assembly of all bilinear forms.

P1/P2 spaces on straight triangles.  Assembled forms: the Laplace
stiffness a(u,v), region-restricted mass matrices, data loads, and the
mesh-dependent regularization

    s(u,v) = sum_T (h_T^2 Lap u, Lap v)_T
           + sum_F |F| ([dn u],[dn v])_F          (interior faces only)
           + tik^{2k} (u,v)_Omega

whose gradient-jump part penalizes the normal-derivative jump across
interior faces and vanishes on globally polynomial fields of degree <= k.
Every form is assembled the same way: local Gram matrices
sum_q w_q phi_i . phi_j are scattered into a sparse matrix A, whose
duplicate entries are summed, and the result is 0.5 * (A + A.T).  Entry
(i,j) of A + A.T is A[i,j] + A[j,i] and entry (j,i) is A[j,i] + A[i,j];
IEEE addition commutes, so the assembled matrix is exactly symmetric
whatever order the duplicates were summed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .fields import _field_gradient, _field_values
from .mesh import ALL_REGIONS, Mesh, element_diameters, signed_areas

#: fixed assembly rule, exact to degree 4 (= 2k for k = 2)
ASSEMBLY_RULE = quadrature.tri_rule_degree4()
#: 2-point Gauss rule on a face, exact for the P2 normal-derivative jump
FACE_RULE = quadrature.gauss_rule_01(2)

_DLAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class FormMatrix:
    """Assembled sparse form."""

    matrix: sp.csr_matrix


class FeSpace:
    """Continuous piecewise-polynomial space of order k on a mesh.

    With `dirichlet=True` the dofs on the polygonal boundary are removed
    (the V_0h space); coefficient vectors then carry only the retained
    dofs and `expand_coeffs` pads the eliminated ones with zero.
    """

    def __init__(self, mesh: Mesh, k: int, dirichlet: bool = False):
        if k not in (1, 2):
            raise ValueError(f"unsupported polynomial order k={k}")
        self.mesh = mesh
        self.k = k
        self.dirichlet = dirichlet

        nv = mesh.n_vertices
        if k == 1:
            self.n_full = nv
            self.full_map = mesh.triangles.copy()
            full_coords = mesh.vertices.copy()
            boundary_full = mesh.boundary_vertices
        else:
            ne = mesh.n_edges
            self.n_full = nv + ne
            self.full_map = np.hstack([mesh.triangles, nv + mesh.tri_edges])
            mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
            full_coords = np.vstack([mesh.vertices, mid])
            boundary_full = np.concatenate(
                [mesh.boundary_vertices, nv + mesh.boundary_edges]
            )

        if dirichlet:
            keep = np.setdiff1d(np.arange(self.n_full), boundary_full)
        else:
            keep = np.arange(self.n_full)
        self.active = keep
        self.full_to_active = -np.ones(self.n_full, dtype=np.int64)
        self.full_to_active[keep] = np.arange(keep.size)
        self.n_dofs = int(keep.size)
        self.dof_map = self.full_to_active[self.full_map]
        self.dof_coords = full_coords[keep]

        # element geometry: jacobian columns are the edge vectors from v0
        v = mesh.vertices
        t = mesh.triangles
        jac = np.empty((mesh.n_triangles, 2, 2))
        jac[:, :, 0] = v[t[:, 1]] - v[t[:, 0]]
        jac[:, :, 1] = v[t[:, 2]] - v[t[:, 0]]
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1] / det
        inv[:, 0, 1] = -jac[:, 0, 1] / det
        inv[:, 1, 0] = -jac[:, 1, 0] / det
        inv[:, 1, 1] = jac[:, 0, 0] / det
        self.jac = jac
        self.inv_jac = inv
        self.inv_jac_t = np.swapaxes(inv, 1, 2)
        self.det = det
        self.v0 = v[t[:, 0]]

    @property
    def ndl(self) -> int:
        """Local dofs per element."""
        return 3 if self.k == 1 else 6

    def basis_values(self, bary) -> np.ndarray:
        """Basis values at barycentric points, shape (nq, ndl)."""
        bary = np.asarray(bary, dtype=float)
        l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
        if self.k == 1:
            return np.column_stack([l0, l1, l2])
        return np.column_stack(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l0 * l1,
                4 * l1 * l2,
                4 * l2 * l0,
            ]
        )

    def basis_ref_grads(self, bary) -> np.ndarray:
        """Reference-coordinate basis gradients, shape (nq, ndl, 2)."""
        bary = np.asarray(bary, dtype=float)
        nq = bary.shape[0]
        if self.k == 1:
            return np.broadcast_to(_DLAM, (nq, 3, 2)).copy()
        g = np.empty((nq, 6, 2))
        lam = bary
        for i in range(3):
            g[:, i, :] = (4 * lam[:, i] - 1)[:, None] * _DLAM[i]
        for slot, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            g[:, 3 + slot, :] = 4 * (
                lam[:, a][:, None] * _DLAM[b] + lam[:, b][:, None] * _DLAM[a]
            )
        return g

    def basis_ref_hessians(self) -> np.ndarray:
        """Constant reference Hessians, shape (ndl, 2, 2)."""
        if self.k == 1:
            return np.zeros((3, 2, 2))
        h = np.empty((6, 2, 2))
        for i in range(3):
            h[i] = 4 * np.outer(_DLAM[i], _DLAM[i])
        for slot, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            h[3 + slot] = 4 * (np.outer(_DLAM[a], _DLAM[b]) + np.outer(_DLAM[b], _DLAM[a]))
        return h

    def phys_points(self, elements, bary) -> np.ndarray:
        """Physical coordinates of barycentric points, shape (nel, nq, 2)."""
        ref_xy = np.asarray(bary)[:, 1:]
        return self.v0[elements][:, None, :] + np.einsum(
            "eab,qb->eqa", self.jac[elements], ref_xy
        )

    def phys_grads(self, elements, bary) -> np.ndarray:
        """Physical basis gradients, shape (nel, nq, ndl, 2)."""
        ref_g = self.basis_ref_grads(bary)
        return np.einsum("eab,qib->eqia", self.inv_jac_t[elements], ref_g)

    def expand_coeffs(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_dofs,):
            raise ValueError(f"expected {self.n_dofs} coefficients, got {coeffs.shape}")
        full = np.zeros(self.n_full)
        full[self.active] = coeffs
        return full


def build_space(mesh: Mesh, k: int, dirichlet: bool = False) -> FeSpace:
    return FeSpace(mesh, k, dirichlet)


def _same_discretization(a: FeSpace, b: FeSpace):
    if a.mesh is not b.mesh or a.k != b.k:
        raise ValueError("spaces must share the same mesh and order")


def _local_gram(weights, phi, scale):
    """Local matrices scale_e * sum_q w_q phi_i . phi_j, shape (n, ndl, ndl).

    `phi` holds the basis data per element and quadrature point, shape
    (n, nq, ndl, c) with c the component count (1 for values, 2 for
    gradients); a leading axis of 1 broadcasts against `scale`.
    """
    gram = np.einsum("q,nqic,nqjc->nij", weights, phi, phi)
    return gram * scale[:, None, None]


def _scatter(local, emap, row: FeSpace, col: FeSpace | None = None) -> FormMatrix:
    """Sum local matrices into the full dof numbering and restrict to the
    active rows and columns; `emap` maps each local slot to a full dof."""
    col = row if col is None else col
    n = row.n_full
    ndl = emap.shape[1]
    rows = np.repeat(emap, ndl, axis=1).ravel()
    cols = np.tile(emap, (1, ndl)).ravel()
    full = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    full = 0.5 * (full + full.T)
    mat = full[row.active][:, col.active].tocsr()
    mat.sort_indices()
    return FormMatrix(mat)


def assemble_stiffness(space_row: FeSpace, space_col: FeSpace | None = None) -> FormMatrix:
    """Laplace form: entry (i,j) = integral of grad(phi_j) . grad(phi_i).

    Mixed pairs (Dirichlet rows, full columns) give the constraint
    coupling block of the saddle system.
    """
    if space_col is None:
        space_col = space_row
    _same_discretization(space_row, space_col)
    space = space_row
    rule = ASSEMBLY_RULE
    g = space.phys_grads(slice(None), rule.points)  # (nt, nq, ndl, 2)
    local = _local_gram(rule.weights, g, space.det)
    return _scatter(local, space.full_map, space_row, space_col)


def assemble_region_mass(space: FeSpace, region) -> FormMatrix:
    """Mass matrix over the union of tagged elements; zero rows elsewhere."""
    elements = space.mesh.region_elements(region)
    if elements.size == 0:
        raise ValueError(f"empty region {region}")
    rule = ASSEMBLY_RULE
    vals = space.basis_values(rule.points)  # (nq, ndl)
    local = _local_gram(rule.weights, vals[None, :, :, None], space.det[elements])
    return _scatter(local, space.full_map[elements], space)


def assemble_gradient_jump(space: FeSpace) -> FormMatrix:
    """Interior-face penalty sum_F |F| int_F [dn u][dn v] ds.

    The face weight is the face length (stands in for the adjacent-element
    size, equivalent under shape regularity); boundary faces are skipped.
    """
    mesh = space.mesh
    interior = mesh.interior_edges
    tq, wq = FACE_RULE
    nqf = tq.size
    a = mesh.vertices[mesh.edges[interior, 0]]
    b = mesh.vertices[mesh.edges[interior, 1]]
    tangent = b - a
    length = np.linalg.norm(tangent, axis=1)
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / length[:, None]
    pts = a[:, None, :] + tq[None, :, None] * tangent[:, None, :]  # (nf, nqf, 2)

    ndl = space.ndl
    side_rows = []
    for side in (0, 1):
        tri = mesh.edge_tris[interior, side]
        rel = pts - space.v0[tri][:, None, :]
        ref_xy = np.einsum("fab,fqb->fqa", space.inv_jac[tri], rel)
        bary = np.concatenate(
            [1.0 - ref_xy.sum(axis=2, keepdims=True), ref_xy], axis=2
        )  # (nf, nqf, 3)
        # physical basis gradients at the face quadrature points, per side
        flat = bary.reshape(-1, 3)
        gflat = space.basis_ref_grads(flat).reshape(interior.size, nqf, ndl, 2)
        grads = np.einsum("fab,fqib->fqia", space.inv_jac_t[tri], gflat)
        side_rows.append(np.einsum("fqia,fa->fqi", grads, normal))

    # stacked local dof vector: side-0 dofs then side-1 dofs, jump = dn0 - dn1
    jump = np.concatenate([side_rows[0], -side_rows[1]], axis=2)  # (nf, nqf, 2ndl)
    weight = length**2  # |F| face weight times |F| from the line integral
    local = _local_gram(wq, jump[..., None], weight)
    emap = np.hstack(
        [
            space.full_map[mesh.edge_tris[interior, 0]],
            space.full_map[mesh.edge_tris[interior, 1]],
        ]
    )
    return _scatter(local, emap, space)


def assemble_cell_laplacian(space: FeSpace) -> FormMatrix:
    """Element term sum_T h_T^2 (Lap u, Lap v)_T; identically zero for k=1."""
    n = space.n_dofs
    if space.k == 1:
        return FormMatrix(sp.csr_matrix((n, n)))
    href = space.basis_ref_hessians()
    lap = np.einsum("tab,ibc,tca->ti", space.inv_jac_t, href, space.inv_jac)
    diam = element_diameters(space.mesh)
    areas = np.abs(signed_areas(space.mesh))
    scale = diam**2 * areas
    # the Laplacian is constant per element: one point of unit weight
    local = _local_gram(np.ones(1), lap[:, None, :, None], scale)
    return _scatter(local, space.full_map, space)


def assemble_stabilization(space: FeSpace, tikhonov_scale: float) -> FormMatrix:
    """Full regularization s(.,.): cell Laplacian + gradient jump + Tikhonov.

    `tikhonov_scale` is a length (the mesh size h, or max(h, h_min) when a
    stagnation floor is active); it enters as tikhonov_scale^{2k} times the
    mass matrix over the whole domain.
    """
    if tikhonov_scale <= 0.0:
        raise ValueError(f"tikhonov_scale must be positive, got {tikhonov_scale}")
    jump = assemble_gradient_jump(space).matrix
    cell = assemble_cell_laplacian(space).matrix
    mass = assemble_region_mass(space, ALL_REGIONS).matrix
    mat = (jump + cell + tikhonov_scale ** (2 * space.k) * mass).tocsr()
    mat.sort_indices()
    return FormMatrix(mat)


def assemble_load_region(space: FeSpace, g, region) -> np.ndarray:
    """Load vector with entries integral over the region of g * phi_i."""
    elements = space.mesh.region_elements(region)
    rule = ASSEMBLY_RULE
    vals = space.basis_values(rule.points)
    pts = space.phys_points(elements, rule.points)
    gv = _field_values(g, pts.reshape(-1, 2)).reshape(elements.size, -1)
    contrib = np.einsum("q,eq,qi->ei", rule.weights, gv, vals) * space.det[elements][:, None]
    out = np.zeros(space.n_full)
    np.add.at(out, space.full_map[elements].ravel(), contrib.ravel())
    return out[space.active]


def interpolate_nodal(space: FeSpace, f) -> np.ndarray:
    """Coefficients of the nodal interpolant: f evaluated at the dof nodes."""
    return _field_values(f, space.dof_coords)


@dataclass(frozen=True)
class ErrorNorms:
    l2: float
    h1_semi: float


def error_norms(space: FeSpace, coeffs, exact, region) -> ErrorNorms:
    """Quadrature L2 and H1-seminorm of (exact - u_h) over tagged elements.

    `exact` needs a `gradient` method for the seminorm; without one the
    seminorm is reported as nan.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.n_dofs,):
        raise ValueError(f"expected {space.n_dofs} coefficients, got {coeffs.shape}")
    rule = ASSEMBLY_RULE
    elements = space.mesh.region_elements(region)
    full = space.expand_coeffs(coeffs)
    local = full[space.full_map[elements]]  # (nel, ndl)
    vals = space.basis_values(rule.points)
    pts = space.phys_points(elements, rule.points)
    flatpts = pts.reshape(-1, 2)

    uh = local @ vals.T  # (nel, nq)
    ue = _field_values(exact, flatpts).reshape(uh.shape)
    det = space.det[elements]
    l2sq = float(np.einsum("q,eq,e->", rule.weights, (ue - uh) ** 2, det))

    ge = _field_gradient(exact, flatpts)
    if ge is None:
        h1sq = float("nan")
    else:
        g = space.phys_grads(elements, rule.points)
        gh = np.einsum("ei,eqia->eqa", local, g)
        diff = ge.reshape(gh.shape) - gh
        h1sq = float(np.einsum("q,eqa,eqa,e->", rule.weights, diff, diff, det))
    return ErrorNorms(l2=np.sqrt(max(l2sq, 0.0)), h1_semi=np.sqrt(max(h1sq, 0.0)))


def stability_terms(u, z, S, M_omega, A0) -> tuple[float, float, float]:
    """The three terms s(u,u), a(z,z) and |u|^2_{L2(omega)} of the squared
    stability norm, from the CSR matrices of s, of the data-region mass and
    of the zero-trace stiffness."""
    return float(u @ (S @ u)), float(z @ (A0 @ z)), float(u @ (M_omega @ u))


def triple_norm(u, z, S, M_omega, A0) -> float:
    """Stability norm |||(u,z)||| = sqrt(s(u,u) + a(z,z) + |u|^2_{L2(omega)})."""
    return float(np.sqrt(max(sum(stability_terms(u, z, S, M_omega, A0)), 0.0)))

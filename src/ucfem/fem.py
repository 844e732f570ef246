"""Lagrange elements, dof management and assembly of all bilinear forms.

P1/P2 spaces on straight triangles.  Assembled forms: the Laplace
stiffness a(u,v), region-restricted mass matrices, data loads, and the
mesh-dependent regularization

    s(u,v) = sum_T (h_T^2 Lap u, Lap v)_T
           + sum_F |F| ([dn u],[dn v])_F          (interior faces only)
           + tik^{2k} (u,v)_Omega

whose gradient-jump part penalizes the normal-derivative jump across
interior faces and vanishes on globally polynomial fields of degree <= k.
Every form is a weighted sum of squares and is assembled as D^T D, where
the sparse operator D evaluates sqrt(weight) * (basis data) at the
quadrature points, one row per element or face, point and component.
D^T D is exactly symmetric: entries (i,j) and (j,i) sum the same products
D[r,i] D[r,j] (IEEE multiplication commutes) in the same ascending r order.

On a straight triangle the barycentric gradients grad(lambda_i) are the
whole element geometry: each is the edge opposite vertex i turned by +90
degrees over det = 2 * signed area.  Every basis gradient, P2 cell
Laplacian and face-point barycentric is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .fields import _field_gradient, _field_values
from .mesh import ALL_REGIONS, Mesh, element_diameters

#: fixed assembly rule, exact to degree 4 (= 2k for k = 2)
ASSEMBLY_RULE = quadrature.tri_rule_degree4()
#: 2-point Gauss rule on a face, exact for the P2 normal-derivative jump
FACE_RULE = quadrature.gauss_rule_01(2)

#: the P2 edge slots (0,1), (1,2), (2,0) pair vertex a with vertex _NEXT[a]
_NEXT = [1, 2, 0]


@dataclass(frozen=True)
class FormMatrix:
    """Assembled sparse form."""

    matrix: sp.csr_matrix


class FeSpace:
    """Continuous piecewise-polynomial space of order k on a mesh.

    With `dirichlet=True` the dofs on the polygonal boundary are removed
    (the V_0h space); coefficient vectors then carry only the retained
    dofs and `expand_coeffs` pads the eliminated ones with zero.  On a mesh
    with a recorded rotation, `rotation` maps each dof to the dof the turn
    carries it to (None otherwise).
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
        full_to_active = -np.ones(self.n_full, dtype=np.int64)
        full_to_active[keep] = np.arange(keep.size)
        self.n_dofs = int(keep.size)
        self.dof_map = full_to_active[self.full_map]
        self.dof_coords = full_coords[keep]
        # the mesh rotation carried to the dofs: dof i turns into dof rotation[i]
        self.rotation = None
        if mesh.rotation is not None:
            turn = mesh.rotation if k == 1 else mesh.rotation_with_midpoints()
            self.rotation = full_to_active[turn[keep]]

        # element geometry: grad(lambda_i) is the edge opposite vertex i,
        # running v_{i+1} -> v_{i+2}, turned by +90 degrees over det
        v = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        self.det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        edge = np.roll(v, -2, axis=1) - np.roll(v, -1, axis=1)
        self.grad_lam = np.stack([-edge[..., 1], edge[..., 0]], axis=2) / self.det[:, None, None]

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

    def phys_points(self, elements, bary) -> np.ndarray:
        """Physical coordinates sum_i lambda_i v_i, shape (nel, nq, 2)."""
        v = self.mesh.vertices[self.mesh.triangles[elements]]
        return np.einsum("qi,eia->eqa", np.asarray(bary), v)

    def phys_grads(self, elements, bary) -> np.ndarray:
        """Physical basis gradients, shape (nel, nq, ndl, 2).

        `bary` is (nq, 3), shared by every element, or (nel, nq, 3).
        """
        bary = np.asarray(bary, dtype=float)
        g = self.grad_lam[elements][:, None]  # (nel, 1, 3, 2)
        if self.k == 1:
            return np.broadcast_to(g, (g.shape[0], bary.shape[-2], 3, 2))
        lam = bary[..., None]  # (nq | nel, nq, 3, 1)
        lam_b, g_b = lam[..., _NEXT, :], g[..., _NEXT, :]
        return np.concatenate([(4 * lam - 1) * g, 4 * (lam * g_b + lam_b * g)], axis=2)

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


def _gram(
    phi, weights, scale, emap, row: FeSpace, col: FeSpace | None = None, faces: bool = False
) -> FormMatrix:
    """The form D^T D, restricted to the active rows and columns.

    `phi` holds the basis data per element and quadrature point, shape
    (n, nq, ndl, c) with c the component count (1 for values, 2 for
    gradients); a leading axis of 1 broadcasts against `scale`.  Row
    (e, q, c) of D holds sqrt(scale_e w_q) phi[e, q, :, c] at the full dofs
    `emap[e]`.  Only a face row (`faces`: emap lists both sides' dofs)
    holds a dof twice, and there the two entries are summed; an element
    row lists each dof once, and D^T D reads its unsorted columns as they
    are.
    """
    col = row if col is None else col
    # D's data and int32 columns, each filled once in (element, point,
    # component, slot) order; D keeps both buffers, nothing is copied
    ndl = emap.shape[1]
    d = np.sqrt(scale[:, None] * weights)[:, :, None, None] * phi.swapaxes(2, 3)
    idx = np.broadcast_to(emap.astype(np.int32)[:, None, None, :], d.shape).flatten()
    nrows = d.size // ndl
    D = sp.csr_matrix((d.ravel(), idx, ndl * np.arange(nrows + 1)), shape=(nrows, row.n_full))
    if faces:
        D.sum_duplicates()
    mat = (D.T @ D).tocsr()[row.active][:, col.active]
    mat.sort_indices()
    return FormMatrix(mat)


def assemble_stiffness(space_row: FeSpace, space_col: FeSpace | None = None) -> FormMatrix:
    """Laplace form: entry (i,j) = integral of grad(phi_j) . grad(phi_i).

    Mixed pairs (Dirichlet rows, full columns) give the constraint
    coupling block of the saddle system.
    """
    if space_col is not None:
        _same_discretization(space_row, space_col)
    rule = ASSEMBLY_RULE
    g = space_row.phys_grads(slice(None), rule.points)  # (nt, nq, ndl, 2)
    return _gram(g, rule.weights, np.abs(space_row.det), space_row.full_map, space_row, space_col)


def assemble_region_mass(space: FeSpace, region) -> FormMatrix:
    """Mass matrix over the union of tagged elements; zero rows elsewhere."""
    elements = space.mesh.region_elements(region)
    if elements.size == 0:
        raise ValueError(f"empty region {region}")
    rule = ASSEMBLY_RULE
    vals = space.basis_values(rule.points)  # (nq, ndl)
    scale = np.abs(space.det[elements])
    return _gram(vals[None, :, :, None], rule.weights, scale, space.full_map[elements], space)


def assemble_gradient_jump(space: FeSpace) -> FormMatrix:
    """Interior-face penalty sum_F |F| int_F [dn u][dn v] ds.

    The face weight is the face length (stands in for the adjacent-element
    size, equivalent under shape regularity); boundary faces are skipped.
    """
    mesh = space.mesh
    interior = mesh.interior_edges
    tq, wq = FACE_RULE
    a = mesh.vertices[mesh.edges[interior, 0]]
    b = mesh.vertices[mesh.edges[interior, 1]]
    tangent = b - a
    length = np.linalg.norm(tangent, axis=1)
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / length[:, None]
    pts = a[:, None, :] + tq[None, :, None] * tangent[:, None, :]  # (nf, nqf, 2)

    dn, emap = [], []
    for tri in mesh.edge_tris[interior].T:
        v0 = mesh.vertices[mesh.triangles[tri, 0]]
        # lambda(x) = e_0 + grad(lambda) . (x - v_0) at the face points
        bary = np.einsum("fia,fqa->fqi", space.grad_lam[tri], pts - v0[:, None, :])
        bary[:, :, 0] += 1.0
        dn.append(np.einsum("fqia,fa->fqi", space.phys_grads(tri, bary), normal))
        emap.append(space.full_map[tri])

    # stacked local dof vector: side-0 dofs then side-1 dofs, jump = dn0 - dn1
    jump = np.concatenate([dn[0], -dn[1]], axis=2)  # (nf, nqf, 2ndl)
    weight = length**2  # |F| face weight times |F| from the line integral
    return _gram(jump[..., None], wq, weight, np.hstack(emap), space, faces=True)


def assemble_cell_laplacian(space: FeSpace) -> FormMatrix:
    """Element term sum_T h_T^2 (Lap u, Lap v)_T; identically zero for k=1."""
    n = space.n_dofs
    if space.k == 1:
        return FormMatrix(sp.csr_matrix((n, n)))
    # Lap(lambda_i (2 lambda_i - 1)) = 4 |grad lambda_i|^2 and
    # Lap(4 lambda_a lambda_b) = 8 grad lambda_a . grad lambda_b
    g = space.grad_lam
    lap = np.concatenate([4 * (g * g).sum(axis=2), 8 * (g * g[:, _NEXT]).sum(axis=2)], axis=1)
    scale = element_diameters(space.mesh) ** 2 * (0.5 * np.abs(space.det))
    # the Laplacian is constant per element: one point of unit weight
    return _gram(lap[:, None, :, None], np.ones(1), scale, space.full_map, space)


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

"""Lagrange elements, dof management and assembly of all bilinear forms.

P1/P2 spaces on straight triangles.  Assembled forms: the Laplace
stiffness a(u,v), region-restricted mass matrices, data loads, and the
mesh-dependent regularization

    s(u,v) = sum_T (h_T^2 Lap u, Lap v)_T
           + sum_F |F| ([dn u],[dn v])_F          (interior faces only)
           + tik^{2k} (u,v)_Omega

whose gradient-jump part penalizes the normal-derivative jump across
interior faces and vanishes on globally polynomial fields of degree <= k.
Every form is a weighted sum of squares D^T D, where the sparse operator D
evaluates sqrt(weight) * (basis data) at the quadrature points, one row per
element or face, point and component; s is one D^T D of the stacked jump,
cell-Laplacian and tik^k-scaled mass operators.  Every form is over the
full dofs; only the stiffness is then restricted, to the dofs of the
zero-trace space V_0h (`FeSpace.zero_trace`).

Every form commutes with the turn by 2 pi / m that a disk mesh records
(`Mesh.rotation`), so only the rows of the orbit representatives (sector 0
and the fixed centre, `sparse.cyclic_orbits`) are computed, from D over
the elements and faces that hold one, a fixed row only at representative
and fixed columns.  Each entry and its transpose, in another
representative's row, become their mean ((a + b) / 2 is the same float in
either order).  Row u is then its representative's row with each column
turned as often as u is, and a fixed row is spread over the turns of its
columns (the cyclic-symmetry method, D. L. Thomas, IJNME 14, 1979).  So
every form is exactly symmetric and rotation invariant, P A P^T == A bit
for bit, with a stored pattern closed under transpose and rotation.  A
mesh without a recorded rotation is the m = 1 case.

Each form takes the smallest rule exact for its polynomial integrand:
tri_rule(2k-2) for the stiffness and tri_rule(2k) for the mass, the k-point
Gauss rule (exact to 2k-1) for the degree 2k-2 squared normal-derivative
jump on a face, and one point for the constant cell Laplacian.  The load and
the error norms integrate non-polynomial fields with ASSEMBLY_RULE.

On a straight triangle the barycentric gradients grad(lambda_i) are the
whole element geometry: each is the edge opposite vertex i turned by +90
degrees over det = 2 * signed area.  Every basis gradient, P2 cell
Laplacian and face-point barycentric is built from them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .fields import _field_gradient, _field_values
from .mesh import Mesh, element_diameters, signed_areas
from .sparse import cyclic_orbits

#: the degree-4 rule of the load and the error norms, whose fields are not polynomial
ASSEMBLY_RULE = quadrature.tri_rule(4)

#: the P2 edge slots (0,1), (1,2), (2,0) pair vertex a with vertex _NEXT[a]
_NEXT = [1, 2, 0]


@dataclass(frozen=True)
class FormMatrix:
    """Assembled sparse form."""

    matrix: sp.csr_matrix


class FeSpace:
    """Continuous piecewise-polynomial space of order k on a mesh, over all
    its dofs.

    `zero_trace()` is the subspace V_0h without the dofs on the polygonal
    boundary.  Coefficient vectors carry the dofs `active` (all of them
    here); `expand_coeffs` pads the others with zero.  On a mesh with a
    recorded rotation, `rotation` maps each dof to the dof the turn carries
    it to (None otherwise); `orbits` is `sparse.cyclic_orbits` of that map.
    """

    def __init__(self, mesh: Mesh, k: int):
        if k not in (1, 2):
            raise ValueError(f"unsupported polynomial order k={k}")
        self.mesh = mesh
        self.k = k
        self.dirichlet = False

        nv = mesh.n_vertices
        if k == 1:
            self.n_full = nv
            self.full_map = mesh.triangles
            self.dof_coords = mesh.vertices
        else:
            self.n_full = nv + mesh.n_edges
            self.full_map = np.hstack([mesh.triangles, nv + mesh.tri_edges])
            mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
            self.dof_coords = np.vstack([mesh.vertices, mid])
        self.active = np.arange(self.n_full)
        self.n_dofs = self.n_full
        # the mesh rotation carried to the dofs: dof i turns into dof rotation[i]
        self.rotation = None
        if mesh.rotation is not None:
            self.rotation = mesh.rotation if k == 1 else mesh.rotation_with_midpoints()
        self.orbits = cyclic_orbits(self.rotation, self.dof_coords)

        # element geometry: grad(lambda_i) is the edge opposite vertex i,
        # running v_{i+1} -> v_{i+2}, turned by +90 degrees over det
        v = np.take(mesh.vertices, mesh.triangles, axis=0)  # (nt, 3, 2)
        self.det = 2.0 * signed_areas(mesh)
        edge = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
        self.grad_lam = np.stack([-edge[..., 1], edge[..., 0]], axis=2) / self.det[:, None, None]

    def zero_trace(self) -> FeSpace:
        """V_0h, the dofs off the polygonal boundary, as a view of this full
        space: mesh, full_map, det and grad_lam are shared, not copied."""
        if self.dirichlet:
            return self
        mesh = self.mesh
        boundary = mesh.boundary_vertices
        if self.k == 2:
            boundary = np.concatenate([boundary, mesh.n_vertices + mesh.boundary_edges])
        sub = copy.copy(self)
        sub.dirichlet = True
        sub.active = np.setdiff1d(self.active, boundary)
        sub.n_dofs = int(sub.active.size)
        sub.dof_coords = self.dof_coords[sub.active]
        if self.rotation is not None:
            # a turn maps the boundary onto itself, so V_0h onto V_0h
            sub.rotation = np.searchsorted(sub.active, self.rotation[sub.active])
        return sub

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
        return np.asarray(bary) @ self.mesh.vertices[self.mesh.triangles[elements]]

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


def build_space(mesh: Mesh, k: int) -> FeSpace:
    return FeSpace(mesh, k)


def _same_discretization(a: FeSpace, b: FeSpace):
    if a.mesh is not b.mesh or a.k != b.k:
        raise ValueError("spaces must share the same mesh and order")


def _operator(phi, weights, scale, emap, n_full) -> sp.csr_matrix:
    """The sparse evaluation operator D over the full dofs.

    `phi` holds the basis data per element and quadrature point, shape
    (n, nq, ndl, c) with c the component count (1 for values, 2 for
    gradients); a leading axis of 1 broadcasts against `scale`.  Row
    (e, q, c) of D holds sqrt(scale_e w_q) phi[e, q, :, c] at the full dofs
    `emap[e]`; a dof that emap[e] lists twice is stored twice.
    """
    # D's data and int32 columns, each filled once in (element, point,
    # component, slot) order; D keeps both buffers, nothing is copied
    ndl = emap.shape[1]
    d = np.sqrt(scale[:, None] * weights)[:, :, None, None] * phi.swapaxes(2, 3)
    idx = np.broadcast_to(emap.astype(np.int32)[:, None, None, :], d.shape).flatten()
    nrows = d.size // ndl
    return sp.csr_matrix((d.ravel(), idx, ndl * np.arange(nrows + 1)), shape=(nrows, n_full))


def _near_reps(space: FeSpace) -> np.ndarray:
    """Per element, whether it holds a representative dof (see `_gram`)."""
    return (np.take(space.orbits[3], space.full_map) == 0).any(axis=1)


def _gram(space: FeSpace, D) -> sp.csr_matrix:
    """The form D^T D over the full dofs, with sorted indices, replicated
    from the representatives' rows (module docstring); D holds the rows of
    the elements and faces `_near_reps` keeps, each with a dof once."""
    orbits, fixed, rep, shift = space.orbits
    nr, m = orbits.shape
    # the rows below are only those of this mesh if the turn maps it onto itself
    z = space.mesh.vertices @ np.array([1.0, 1.0j]) / np.abs(space.mesh.vertices).max()
    if m > 1 and not abs(z[space.mesh.rotation] - z * np.exp(2j * np.pi / m)).max() <= 1e-9:
        raise ValueError(f"the mesh rotation does not turn its vertices by 2 pi / {m}")
    # turn s of representative number r: orbits[r, s], or the fixed dof itself
    table = np.vstack([orbits, np.repeat(fixed[:, None], m, axis=1)])
    # dof d turned s times, 0 <= s <= m, is turned[at[d] + s]
    turned = np.tile(table, 2).ravel()
    at = rep * 2 * m + shift

    # the representatives' rows; a fixed one only at representative columns,
    # as its other columns are their turns
    G = (D.T.tocsr()[table[:, 0]] @ D).tocoo()
    keep = (G.row < nr) | (shift[G.col] == 0)
    i, c, v = G.row[keep], G.col[keep], G.data[keep]
    # entry (i, c) and its transpose, entry (rep[c], representative i turned
    # back shift[c] times), both become their mean: a + b == b + a exactly
    i, c = np.r_[i, rep[c]], np.r_[c, turned[at[table[i, 0]] + m - shift[c]]]
    G = sp.csr_matrix((np.r_[v, v] * 0.5, (i, c)), shape=(len(table), space.n_full)).tocoo()
    # a fixed row in full: each moved column at every turn
    spread = (G.row >= nr) & (rep[G.col] < nr)
    i = np.r_[G.row[~spread], np.repeat(G.row[spread], m)]
    c = np.r_[G.col[~spread], turned[at[G.col[spread], None] + np.arange(m)].ravel()]
    v = np.r_[G.data[~spread], np.repeat(G.data[spread], m)]
    G = sp.csr_matrix((v, (i, c)), shape=G.shape)
    # row u is row rep[u] of G with its columns turned shift[u] times
    length = np.diff(G.indptr)[rep]
    indptr = np.r_[0, np.cumsum(length)]
    src = np.arange(indptr[-1]) + np.repeat(G.indptr[rep] - indptr[:-1], length)
    indices = turned[at[G.indices][src] + np.repeat(shift, length)]
    mat = sp.csr_matrix((G.data[src], indices, indptr), shape=(space.n_full, space.n_full))
    mat.sort_indices()
    return mat


def assemble_stiffness(space_row: FeSpace, space_col: FeSpace | None = None) -> FormMatrix:
    """Laplace form: entry (i,j) = integral of grad(phi_j) . grad(phi_i).

    A zero-trace space restricts its side of the full-dof product; mixed
    pairs (zero-trace rows, full columns) give the constraint coupling
    block of the saddle system.
    """
    col = space_row if space_col is None else space_col
    _same_discretization(space_row, col)
    rule = quadrature.tri_rule(2 * space_row.k - 2)
    elements = np.flatnonzero(_near_reps(space_row))
    g = space_row.phys_grads(elements, rule.points)  # (nel, nq, ndl, 2)
    scale, emap = np.abs(space_row.det[elements]), space_row.full_map[elements]
    mat = _gram(space_row, _operator(g, rule.weights, scale, emap, space_row.n_full))
    if space_row.dirichlet:
        mat = mat[space_row.active]
    if col.dirichlet:
        mat = mat[:, col.active]
    return FormMatrix(mat)


def _mass_operator(space: FeSpace, elements) -> sp.csr_matrix:
    rule = quadrature.tri_rule(2 * space.k)
    elements = elements[_near_reps(space)[elements]]
    vals = space.basis_values(rule.points)[None, :, :, None]  # (1, nq, ndl, 1)
    scale, emap = np.abs(space.det[elements]), space.full_map[elements]
    return _operator(vals, rule.weights, scale, emap, space.n_full)


def assemble_region_mass(space: FeSpace, region) -> FormMatrix:
    """Mass matrix over the union of tagged elements; zero rows elsewhere."""
    elements = space.mesh.region_elements(region)
    if elements.size == 0:
        raise ValueError(f"empty region {region}")
    return FormMatrix(_gram(space, _mass_operator(space, elements)))


def _jump_operator(space: FeSpace) -> sp.csr_matrix:
    mesh = space.mesh
    interior = mesh.interior_edges
    interior = interior[_near_reps(space)[mesh.edge_tris[interior]].any(axis=1)]
    tq, wq = quadrature.gauss_rule_01(space.k)
    a = mesh.vertices[mesh.edges[interior, 0]]
    b = mesh.vertices[mesh.edges[interior, 1]]
    tangent = b - a
    length = np.linalg.norm(tangent, axis=1)
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / length[:, None]
    pts = a[:, None, :] + tq[None, :, None] * tangent[:, None, :]  # (nf, nqf, 2)

    dn, emap = [], []
    for tri in mesh.edge_tris[interior].T:
        if space.k == 1:
            grads = space.grad_lam[tri][:, None]  # constant on the face
        else:
            v0 = mesh.vertices[mesh.triangles[tri, 0]]
            # lambda(x) = e_0 + grad(lambda) . (x - v_0) at the face points
            bary = np.einsum("fia,fqa->fqi", space.grad_lam[tri], pts - v0[:, None, :])
            bary[:, :, 0] += 1.0
            grads = space.phys_grads(tri, bary)
        dn.append(np.einsum("fqia,fa->fqi", grads, normal))
        emap.append(space.full_map[tri])

    # stacked local dof vector: side-0 dofs then side-1 dofs, jump = dn0 - dn1
    jump = np.concatenate([dn[0], -dn[1]], axis=2)  # (nf, nqf, 2ndl)
    weight = length**2  # |F| face weight times |F| from the line integral
    D = _operator(jump[..., None], wq, weight, np.hstack(emap), space.n_full)
    D.sum_duplicates()  # a face row lists the dofs of the shared edge twice
    return D


def assemble_gradient_jump(space: FeSpace) -> FormMatrix:
    """Interior-face penalty sum_F |F| int_F [dn u][dn v] ds.

    The face weight is the face length (stands in for the adjacent-element
    size, equivalent under shape regularity); boundary faces are skipped.
    """
    return FormMatrix(_gram(space, _jump_operator(space)))


def _cell_operator(space: FeSpace) -> sp.csr_matrix:
    if space.k == 1:
        return sp.csr_matrix((0, space.n_full))  # P1 Laplacians vanish: no rows
    elements = np.flatnonzero(_near_reps(space))
    # Lap(lambda_i (2 lambda_i - 1)) = 4 |grad lambda_i|^2 and
    # Lap(4 lambda_a lambda_b) = 8 grad lambda_a . grad lambda_b
    g = space.grad_lam[elements]
    lap = np.concatenate([4 * (g * g).sum(axis=2), 8 * (g * g[:, _NEXT]).sum(axis=2)], axis=1)
    scale = element_diameters(space.mesh)[elements] ** 2 * (0.5 * np.abs(space.det[elements]))
    # the Laplacian is constant per element: one point of unit weight
    emap = space.full_map[elements]
    return _operator(lap[:, None, :, None], np.ones(1), scale, emap, space.n_full)


def assemble_cell_laplacian(space: FeSpace) -> FormMatrix:
    """Element term sum_T h_T^2 (Lap u, Lap v)_T; identically zero for k=1."""
    return FormMatrix(_gram(space, _cell_operator(space)))


def assemble_stabilization(space: FeSpace, tikhonov_scale: float) -> FormMatrix:
    """Full regularization s(.,.): cell Laplacian + gradient jump + Tikhonov.

    `tikhonov_scale` is a length (h, or max(h, h_min) under a stagnation
    floor); s holds tikhonov_scale^{2k} times the whole-domain mass matrix.
    """
    if tikhonov_scale <= 0.0:
        raise ValueError(f"tikhonov_scale must be positive, got {tikhonov_scale}")
    everywhere = np.arange(space.mesh.n_triangles)
    D = [_cell_operator(space), _jump_operator(space), _mass_operator(space, everywhere)]
    D[2].data *= tikhonov_scale**space.k
    # Tikhonov rows first, so each entry sums its small terms before the O(1) ones
    D = sp.vstack(D[::-1], format="csr")  # rebound: frees the parts before the product
    return FormMatrix(_gram(space, D))


def assemble_load_region(space: FeSpace, g, region) -> np.ndarray:
    """Load vector with entries integral over the region of g * phi_i."""
    elements = space.mesh.region_elements(region)
    rule = ASSEMBLY_RULE
    vals = space.basis_values(rule.points)
    pts = space.phys_points(elements, rule.points)
    gv = _field_values(g, pts.reshape(-1, 2)).reshape(elements.size, -1)
    contrib = (gv * rule.weights) @ vals * space.det[elements][:, None]
    out = np.bincount(space.full_map[elements].ravel(), contrib.ravel(), minlength=space.n_full)
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
    l2sq = float(det @ ((ue - uh) ** 2 @ rule.weights))

    ge = _field_gradient(exact, flatpts)
    if ge is None:
        h1sq = float("nan")
    else:
        # a P1 gradient is constant per element: take it at one point only
        g = space.phys_grads(elements, rule.points[: 1 if space.k == 1 else None])
        gh = (local[:, None, None, :] @ g)[:, :, 0]  # (nel, 1 | nq, 2)
        diff = ge.reshape(pts.shape) - gh
        h1sq = float(det @ ((diff * diff).sum(axis=2) @ rule.weights))
    return ErrorNorms(l2=np.sqrt(max(l2sq, 0.0)), h1_semi=np.sqrt(max(h1sq, 0.0)))


def stability_terms(u, z, S, M_omega, A0) -> tuple[float, float, float]:
    """The three terms s(u,u), a(z,z) and |u|^2_{L2(omega)} of the squared
    stability norm, from the CSR matrices of s, of the data-region mass and
    of the zero-trace stiffness."""
    return float(u @ (S @ u)), float(z @ (A0 @ z)), float(u @ (M_omega @ u))


def triple_norm(u, z, S, M_omega, A0) -> float:
    """Stability norm |||(u,z)||| = sqrt(s(u,u) + a(z,z) + |u|^2_{L2(omega)})."""
    return float(np.sqrt(max(sum(stability_terms(u, z, S, M_omega, A0)), 0.0)))

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
full dofs; only the stiffness is then restricted, as a view, to the dofs
of the zero-trace space V_0h (`FeSpace.zero_trace`).

Every form commutes with the turn by 2 pi / m that a disk mesh records
(`Mesh.rotation`), so only the rows of the orbit representatives
(`FeSpace.orbits`: sector 0 and the fixed centre) are computed, from D
over the elements that hold one (`FeSpace.near`) and their faces, a
fixed row only at representative and fixed columns.  Each entry and its
transpose, in another representative's row, become their mean ((a + b)
/ 2 is the same float in either order), and a fixed row is spread over
the turns of its columns.  Each assembler returns these rows, a
`sparse.FormMatrix` (the cyclic-symmetry method, D. L. Thomas, IJNME 14,
1979), so every form is exactly symmetric and rotation invariant,
P A P^T == A bit for bit, with a stored pattern closed under transpose
and rotation.  A mesh without a
recorded rotation is the m = 1 case, whose rows are the whole form.

Each form takes the smallest rule exact for its polynomial integrand:
tri_rule(2k-2) for the stiffness and tri_rule(2k) for the mass, the k-point
Gauss rule (exact to 2k-1) for the degree 2k-2 squared normal-derivative
jump on a face, and one point for the constant cell Laplacian.  The load and
the error norms integrate non-polynomial fields with ASSEMBLY_RULE.

On a straight triangle the barycentric gradients grad(lambda_i) are the
whole element geometry: each is the edge opposite vertex i turned by +90
degrees over det = 2 * signed area.  Every basis gradient, P2 cell
Laplacian and face-point barycentric is built from them.  A space keeps
only det; the gradients (`FeSpace.grad_lam`) and the element diameters are
computed for the elements a form or norm asks for, mostly the eighth that
hold a representative dof (`FeSpace.near`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .mesh import Mesh, element_diameters
from .sparse import FormMatrix, cyclic_orbits

#: the degree-4 rule of the load and the error norms, whose fields are not polynomial
ASSEMBLY_RULE = quadrature.tri_rule(4)

#: the P2 edge slots (0,1), (1,2), (2,0) pair vertex a with vertex _NEXT[a]
_NEXT = [1, 2, 0]


class FeSpace:
    """Continuous piecewise-polynomial space of order k on a mesh, over all
    its dofs.

    `zero_trace()` is the subspace V_0h without the dofs on the polygonal
    boundary.  Coefficient vectors carry the dofs `active` (all of them
    here); `expand_coeffs` pads the others with zero.  `orbits` is
    `sparse.cyclic_orbits` of the mesh's turn carried to all dofs (order 1
    without one), the one derivation of the orbits, which the forms and
    every solve read.  `turn_table`, `turned_dofs` and `turn_at` are the
    int32 orbit lookup of the forms: turn s of representative number r is
    turn_table[r, s] (a fixed dof at every s), and dof d turned s times,
    0 <= s <= m, is turned_dofs[turn_at[d] + s].  `near` marks the elements
    that hold a representative dof (all without a turn), the ones every
    form is computed on.  V_0h (`zero_trace()`) shares these five.
    `turns_mesh` says whether the turn carries the vertices onto each other
    (every form refuses a space without it).
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
        rotation = mesh.rotation if k == 1 or mesh.rotation is None else mesh.rotation_with_midpoints
        self.orbits = orbits, fixed, rep, shift = cyclic_orbits(rotation, self.dof_coords)
        # the forms replicated by the turn (`_gram`) are this mesh's only if it turns its vertices
        m = orbits.shape[1]
        self.turns_mesh = True
        if m > 1:
            z = mesh.vertices @ np.array([1.0, 1.0j]) / np.abs(mesh.vertices).max()
            self.turns_mesh = abs(z[mesh.rotation] - z * np.exp(2j * np.pi / m)).max() <= 1e-9
        self.turn_table = np.vstack([orbits, np.repeat(fixed[:, None], m, axis=1)])
        self.turned_dofs = np.tile(self.turn_table, 2).ravel()
        if self.turned_dofs.size > np.iinfo(np.int32).max:  # rep * 2m + shift in int32
            raise ValueError(f"{self.n_full} dofs exceed the int32 orbit lookup")
        self.turn_at = rep * (2 * m) + shift
        rep_dof = shift == 0
        self.near = rep_dof[self.full_map[:, 0]]
        for dofs in self.full_map.T[1:]:
            self.near |= rep_dof[dofs]
        self.det = 2.0 * mesh.signed_areas

    def grad_lam(self, elements) -> np.ndarray:
        """Barycentric gradients of `elements`, shape (nel, 3, 2), from 1-D
        coordinate gathers: grad(lambda_i) is the edge opposite vertex i,
        running v_{i+1} -> v_{i+2}, turned by +90 degrees over det.  The
        result is C-ordered, as the matmul in `error_norms` rounds by layout."""
        x, y = (np.take(c, self.mesh.triangles[elements]) for c in self.mesh.vertices.T)
        ex, ey = (np.take(c, [2, 0, 1], axis=1) - np.take(c, [1, 2, 0], axis=1) for c in (x, y))
        return np.stack([-ey, ex], axis=2) / self.det[elements][:, None, None]

    def zero_trace(self) -> FeSpace:
        """V_0h, the dofs off the polygonal boundary, as a view of this full
        space: mesh, full_map, det, the orbit lookup and `near` are shared,
        not copied."""
        if self.dirichlet:
            return self
        mesh = self.mesh
        boundary = mesh.boundary_vertices
        if self.k == 2:
            boundary = np.concatenate([boundary, mesh.n_vertices + mesh.boundary_edges])
        sub = copy.copy(self)
        sub.dirichlet = True
        # both sets are unique: without the flag, numpy re-uniques all dofs (1 s at 1.3M)
        sub.active = np.setdiff1d(self.active, boundary, assume_unique=True)
        sub.n_dofs = int(sub.active.size)
        sub.dof_coords = self.dof_coords[sub.active]
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
        """Physical coordinates sum_i lambda_i v_i, shape (nel, nq, 2), of
        the (nq, 3) barycentric points `bary`, one coordinate at a time."""
        tri, at = self.mesh.triangles[elements], np.asarray(bary).T
        return np.stack([c[tri] @ at for c in self.mesh.vertices.T], axis=-1)

    def phys_grads(self, elements, bary) -> np.ndarray:
        """Physical basis gradients, shape (nel, nq, ndl, 2).

        `bary` is (nq, 3), shared by every element, or (nel, nq, 3).
        """
        bary = np.asarray(bary, dtype=float)
        g = self.grad_lam(elements)[:, None]  # (nel, 1, 3, 2)
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
    idx = np.broadcast_to(emap[:, None, None, :], d.shape).flatten()
    nrows = d.size // ndl
    return sp.csr_matrix((d.ravel(), idx, ndl * np.arange(nrows + 1)), shape=(nrows, n_full))


def _gram(space: FeSpace, D) -> FormMatrix:
    """The form D^T D over the full dofs, kept as the rows of the orbit
    representatives, row r holding row turn_table[r, 0] (module docstring);
    D holds the rows of the elements of `space.near` and of the faces next
    to them, each with a dof once.  The caller passes D without keeping it:
    it is freed after the product."""
    orbits, _, rep, shift = space.orbits
    nr, m = orbits.shape
    if not space.turns_mesh:
        raise ValueError(f"the mesh rotation does not turn its vertices by 2 pi / {m}")
    table, turned, at = space.turn_table, space.turned_dofs, space.turn_at

    # the representatives' rows; a fixed one only at representative columns,
    # as its other columns are their turns
    G = (D.T.tocsr()[table[:, 0]] @ D).tocoo()
    del D
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
    return FormMatrix(sp.csr_matrix((v, (i, c)), shape=G.shape), space)


def assemble_stiffness(space_row: FeSpace, space_col: FeSpace | None = None) -> FormMatrix:
    """Laplace form: entry (i,j) = integral of grad(phi_j) . grad(phi_i).

    A zero-trace space restricts its side of the full-dof product (a view of
    the same representatives' rows); mixed pairs (zero-trace rows, full
    columns) give the constraint coupling block of the saddle system.
    """
    col = space_row if space_col is None else space_col
    _same_discretization(space_row, col)
    rule = quadrature.tri_rule(2 * space_row.k - 2)
    elements = np.flatnonzero(space_row.near)
    g = space_row.phys_grads(elements, rule.points)  # (nel, nq, ndl, 2)
    scale, emap = np.abs(space_row.det[elements]), space_row.full_map[elements]
    form = _gram(space_row, _operator(g, rule.weights, scale, emap, space_row.n_full))
    return replace(
        form,
        rows=space_row.active if space_row.dirichlet else None,
        cols=col.active if col.dirichlet else None,
    )


def _mass_operator(space: FeSpace, elements) -> sp.csr_matrix:
    rule = quadrature.tri_rule(2 * space.k)
    elements = elements[space.near[elements]]
    vals = space.basis_values(rule.points)[None, :, :, None]  # (1, nq, ndl, 1)
    scale, emap = np.abs(space.det[elements]), space.full_map[elements]
    return _operator(vals, rule.weights, scale, emap, space.n_full)


def assemble_region_mass(space: FeSpace, region) -> FormMatrix:
    """Mass matrix over the union of tagged elements; zero rows elsewhere."""
    elements = space.mesh.region_elements(region)
    if elements.size == 0:
        raise ValueError(f"empty region {region}")
    return _gram(space, _mass_operator(space, elements))


def _jump_operator(space: FeSpace) -> sp.csr_matrix:
    mesh = space.mesh
    near, (t0, t1) = space.near, mesh.edge_tris.T
    # the interior faces next to a kept element; slot 1 of a boundary edge is -1
    interior = np.flatnonzero((mesh.edge_counts == 2) & (near[t0] | near[t1]))
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
            grads = space.grad_lam(tri)[:, None]  # constant on the face
        else:
            v0 = mesh.vertices[mesh.triangles[tri, 0]]
            # lambda(x) = e_0 + grad(lambda) . (x - v_0) at the face points
            bary = np.einsum("fia,fqa->fqi", space.grad_lam(tri), pts - v0[:, None, :])
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
    return _gram(space, _jump_operator(space))


def _cell_operator(space: FeSpace) -> sp.csr_matrix:
    if space.k == 1:
        return sp.csr_matrix((0, space.n_full))  # P1 Laplacians vanish: no rows
    elements = np.flatnonzero(space.near)
    # Lap(lambda_i (2 lambda_i - 1)) = 4 |grad lambda_i|^2 and
    # Lap(4 lambda_a lambda_b) = 8 grad lambda_a . grad lambda_b
    g = space.grad_lam(elements)
    lap = np.concatenate([4 * (g * g).sum(axis=2), 8 * (g * g[:, _NEXT]).sum(axis=2)], axis=1)
    scale = element_diameters(space.mesh, elements) ** 2 * (0.5 * np.abs(space.det[elements]))
    # the Laplacian is constant per element: one point of unit weight
    emap = space.full_map[elements]
    return _operator(lap[:, None, :, None], np.ones(1), scale, emap, space.n_full)


def assemble_cell_laplacian(space: FeSpace) -> FormMatrix:
    """Element term sum_T h_T^2 (Lap u, Lap v)_T; identically zero for k=1."""
    return _gram(space, _cell_operator(space))


def _stabilization_operator(space: FeSpace, tikhonov_scale: float) -> sp.csr_matrix:
    """The stacked operator of s, returned to be passed on unnamed (`_gram`)."""
    everywhere = np.arange(space.mesh.n_triangles)
    D = [_cell_operator(space), _jump_operator(space), _mass_operator(space, everywhere)]
    D[2].data *= tikhonov_scale**space.k
    # Tikhonov rows first, so each entry sums its small terms before the O(1) ones
    return sp.vstack(D[::-1], format="csr")


def assemble_stabilization(space: FeSpace, tikhonov_scale: float) -> FormMatrix:
    """Full regularization s(.,.): cell Laplacian + gradient jump + Tikhonov.

    `tikhonov_scale` is a length (h, or max(h, h_min) under a stagnation
    floor); s holds tikhonov_scale^{2k} times the whole-domain mass matrix.
    """
    if tikhonov_scale <= 0.0:
        raise ValueError(f"tikhonov_scale must be positive, got {tikhonov_scale}")
    return _gram(space, _stabilization_operator(space, tikhonov_scale))


def assemble_load_region(space: FeSpace, g, region) -> np.ndarray:
    """Load vector with entries integral over the region of g * phi_i."""
    elements = space.mesh.region_elements(region)
    rule = ASSEMBLY_RULE
    vals = space.basis_values(rule.points)
    pts = space.phys_points(elements, rule.points)
    gv = g.value(pts.reshape(-1, 2)).reshape(elements.size, -1)
    contrib = (gv * rule.weights) @ vals * space.det[elements][:, None]
    out = np.bincount(space.full_map[elements].ravel(), contrib.ravel(), minlength=space.n_full)
    return out[space.active]


def interpolate_nodal(space: FeSpace, f) -> np.ndarray:
    """Coefficients of the nodal interpolant: f evaluated at the dof nodes."""
    return f.value(space.dof_coords)


@dataclass(frozen=True)
class ErrorNorms:
    l2: float
    h1_semi: float
    l2_inner: float
    l2_uh: float


def error_norms(space: FeSpace, coeffs, exact, region, inner=()) -> ErrorNorms:
    """Quadrature L2 and H1-seminorm of (exact - u_h) over tagged elements.

    `exact` needs a `gradient` method for the seminorm; without one the
    seminorm is reported as nan.  `l2_inner` is the L2 error over the
    elements of `region` tagged `inner`, and `l2_uh` |u_h|_{L2} over the mesh.
    """
    rule, mesh = ASSEMBLY_RULE, space.mesh
    full = space.expand_coeffs(coeffs)
    uh = full[space.full_map] @ space.basis_values(rule.points).T  # (n_triangles, nq)
    elements = mesh.region_elements(region)
    pts = space.phys_points(elements, rule.points)  # (nel, nq, 2)
    det = space.det[elements]
    sq = (exact.value(pts.reshape(-1, 2)).reshape(pts.shape[:2]) - uh[elements]) ** 2 @ rule.weights
    at_inner = np.isin(elements, mesh.region_elements(inner))
    l2sq, inner_sq, uh_sq = det @ sq, det[at_inner] @ sq[at_inner], space.det @ (uh**2 @ rule.weights)

    if not hasattr(exact, "gradient"):
        h1sq = float("nan")
    else:
        # a P1 gradient is constant per element: take it at one point only
        g = space.phys_grads(elements, rule.points[: 1 if space.k == 1 else None])
        gh = (full[space.full_map[elements]][:, None, None, :] @ g)[:, :, 0]  # (nel, 1 | nq, 2)
        diff = exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape) - gh
        h1sq = float(det @ ((diff * diff).sum(axis=2) @ rule.weights))
    return ErrorNorms(*(np.sqrt(max(float(v), 0.0)) for v in (l2sq, h1sq, inner_sq, uh_sq)))


def stability_terms(u, z, K) -> tuple[float, float, float]:
    """The three terms s(u,u), a(z,z) and |u|^2_{L2(omega)} of the squared
    stability norm, from the forms K.S, K.A0 and K.M_omega of the saddle
    system K (a `sparse.Saddle`)."""
    return float(u @ (K.S @ u)), float(z @ (K.A0 @ z)), float(u @ (K.M_omega @ u))


def triple_norm(u, z, K) -> float:
    """Stability norm |||(u,z)||| = sqrt(s(u,u) + a(z,z) + |u|^2_{L2(omega)})
    of the saddle system K (see `stability_terms`)."""
    return float(np.sqrt(max(sum(stability_terms(u, z, K)), 0.0)))

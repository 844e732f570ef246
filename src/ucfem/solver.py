"""Primal-dual solver for the unique continuation problem.

The discrete problem couples a primal field u_h (full space) with a dual
multiplier z_h (zero-trace space) through

    [ S + M_omega   B^T ] [u]   [ (q + dq, phi)_omega ]
    [ B            -A0  ] [z] = [ 0                   ]

where S is the mesh-dependent regularization, M_omega the data-region
mass, B the mixed stiffness and A0 the Dirichlet stiffness.  Testing the
system with (u, -z) reproduces the squared stability norm, which is what
guarantees solvability and is checked numerically by `verify_positivity`.
The data perturbation dq enters only through the right-hand side, so
`make_perturbation` returns its load vector (dq, phi)_omega together with
the certified norm ||dq||_{L2(omega)} on which the error estimates depend.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import (
    FeSpace,
    FormMatrix,
    assemble_load_region,
    assemble_region_mass,
    assemble_stiffness,
    assemble_stabilization,
    build_space,
    region_l2_norm,
)
from .fields import OscillatoryField
from .geometry import Geometry
from .mesh import ALL_REGIONS, Mesh, Region
from .sparse import achieved_residual, compose_saddle, nested_dissection, solve_direct


@dataclass(frozen=True)
class PerturbationSpec:
    mode: str = "none"  # none | oscillatory | nodal_noise
    epsilon: float = 0.0
    kappa: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "oscillatory", "nodal_noise"):
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class UcProblem:
    """Problem description: geometry, order, exact solution and data noise.

    `exact` is any field with value/gradient methods (harmonic monomial,
    affine field, or ZeroField for pure-noise studies).  `tikhonov_hmin`
    activates the stagnation variant: the Tikhonov scale becomes
    max(h, tikhonov_hmin) instead of h.
    """

    geometry: Geometry
    k: int
    exact: object
    perturbation: PerturbationSpec = PerturbationSpec()
    tikhonov_hmin: float | None = None


@dataclass
class Perturbation:
    """Data perturbation: its load vector (dq, phi_i)_omega on the primal
    space and its quadrature-certified L2(omega) norm."""

    load: np.ndarray
    norm_l2_omega: float


@dataclass
class SolveDiagnostics:
    solve_residual: float
    triple_norm_parts: dict
    h: float
    tikhonov_scale: float
    n_dofs_primal: int
    n_dofs_dual: int


@dataclass
class UcSolution:
    u: np.ndarray
    z: np.ndarray
    diagnostics: SolveDiagnostics
    primal_space: FeSpace = dc_field(repr=False, default=None)
    dual_space: FeSpace = dc_field(repr=False, default=None)
    forms: dict = dc_field(repr=False, default=None)
    perturbation: Perturbation = dc_field(repr=False, default=None)


def solve_poisson(space0: FeSpace, f, rel_tol: float = 1e-10) -> np.ndarray:
    """Galerkin solution of -Lap u = f with zero boundary values.

    The stiffness matrix on the zero-trace space is symmetric positive
    definite, so the solve cannot legitimately fail; solver errors
    propagate with context if it does.
    """
    if not space0.dirichlet:
        raise ValueError("solve_poisson requires a Dirichlet space")
    A0 = assemble_stiffness(space0).matrix
    b = assemble_load_region(space0, f, ALL_REGIONS)
    return _solve_ordered(A0, b, space0.dof_coords, rel_tol)


def _solve_ordered(K, b, coords, rel_tol: float = 1e-10) -> np.ndarray:
    """`solve_direct` of K x = b in the nested-dissection order of K's graph
    over the dof points coords, returned in the original order."""
    p = nested_dissection(coords, K)
    x = np.empty_like(b, dtype=float)
    x[p] = solve_direct(K[p][:, p], b[p], rel_tol)
    return x


def make_perturbation(spec: PerturbationSpec, space: FeSpace, M_omega) -> Perturbation:
    """The load vector (dq, phi_i)_omega of a data perturbation scaled to
    L2(omega) norm epsilon.

    oscillatory: dq = eps * sin(kappa x) sin(kappa y) / (quadrature norm on
    the polygonal omega).  nodal_noise: dq is the finite element function
    with seeded uniform(-1,1) values on the dofs of the data-region
    elements, mass-scaled to eps; its load is M_omega @ coeffs, with M_omega
    the data-region mass matrix of space (the one in the saddle system).
    The stored norm is the quadrature L2(omega) norm of the scaled dq.
    """
    if spec.mode == "none" or spec.epsilon == 0.0:
        return Perturbation(load=np.zeros(space.n_dofs), norm_l2_omega=0.0)

    if spec.mode == "oscillatory":
        raw = OscillatoryField(kappa=spec.kappa)
        raw_norm = region_l2_norm(space, raw, Region.OMEGA_DATA)
        if raw_norm == 0.0:
            raise ValueError(f"oscillatory perturbation with kappa={spec.kappa} has zero norm")
        scale = spec.epsilon / raw_norm
        load = scale * assemble_load_region(space, raw, Region.OMEGA_DATA)
        return Perturbation(load=load, norm_l2_omega=scale * raw_norm)

    # nodal_noise
    elements = space.mesh.region_elements(Region.OMEGA_DATA)
    omega_dofs = np.unique(space.dof_map[elements])
    omega_dofs = omega_dofs[omega_dofs >= 0]
    rng = np.random.default_rng(spec.seed)
    coeffs = np.zeros(space.n_dofs)
    coeffs[omega_dofs] = rng.uniform(-1.0, 1.0, omega_dofs.size)
    raw_norm = np.sqrt(coeffs @ (M_omega @ coeffs))
    if raw_norm == 0.0:
        raise ValueError("nodal noise degenerated to the zero field")
    coeffs *= spec.epsilon / raw_norm
    load = M_omega @ coeffs
    return Perturbation(load=load, norm_l2_omega=float(np.sqrt(coeffs @ load)))


def _assemble_saddle(space: FeSpace, space0: FeSpace, tik: float):
    """The forms S, M_omega, A0 and B keyed by name, and the saddle matrix K of them."""
    S = assemble_stabilization(space, tik)
    M_omega = assemble_region_mass(space, Region.OMEGA_DATA)
    A0 = assemble_stiffness(space0)
    B = assemble_stiffness(space0, space)
    K = compose_saddle(S.matrix + M_omega.matrix, B.matrix, A0.matrix)
    return {"S": S, "M_omega": M_omega, "A0": A0, "B": B}, K


def solve_uc(problem: UcProblem, mesh: Mesh, rel_tol: float = 1e-10) -> UcSolution:
    """Assemble and solve the stabilized primal-dual system on a mesh."""
    space = build_space(mesh, problem.k, dirichlet=False)
    space0 = build_space(mesh, problem.k, dirichlet=True)

    h = mesh.h
    tik = h if problem.tikhonov_hmin is None else max(h, problem.tikhonov_hmin)
    forms, K = _assemble_saddle(space, space0, tik)
    S, M_omega, A0 = forms["S"], forms["M_omega"], forms["A0"]

    pert = make_perturbation(problem.perturbation, space, M_omega.matrix)
    load = assemble_load_region(space, problem.exact, Region.OMEGA_DATA) + pert.load

    rhs = np.concatenate([load, np.zeros(space0.n_dofs)])
    x = _solve_ordered(K, rhs, np.concatenate([space.dof_coords, space0.dof_coords]), rel_tol)
    u = x[: space.n_dofs]
    z = x[space.n_dofs :]

    diag = SolveDiagnostics(
        solve_residual=achieved_residual(K, x, rhs),
        triple_norm_parts={
            "s": float(u @ (S.matrix @ u)),
            "dual": float(z @ (A0.matrix @ z)),
            "omega": float(u @ (M_omega.matrix @ u)),
        },
        h=h,
        tikhonov_scale=tik,
        n_dofs_primal=space.n_dofs,
        n_dofs_dual=space0.n_dofs,
    )
    return UcSolution(
        u=u,
        z=z,
        diagnostics=diag,
        primal_space=space,
        dual_space=space0,
        forms=forms,
        perturbation=pert,
    )


def hminus1_residual(
    space0: FeSpace,
    space: FeSpace,
    u,
    A0: FormMatrix = None,
    B: FormMatrix = None,
) -> float:
    """Discrete dual norm of the equation residual of u.

    Riesz-represents v -> a(u, v) on the zero-trace space and returns the
    energy norm of the representer; a computable surrogate for the H^-1
    norm of Lap u that scales identically in h.
    """
    u = np.asarray(u, dtype=float)
    if A0 is None:
        A0 = assemble_stiffness(space0)
    if B is None:
        B = assemble_stiffness(space0, space)
    r = B.matrix @ u
    phi = _solve_ordered(A0.matrix, r, space0.dof_coords)
    return float(np.sqrt(max(phi @ r, 0.0)))


def verify_positivity(space: FeSpace, space0: FeSpace, trials: int, seed: int = 0) -> float:
    """Max relative gap between the saddle form at (u,z),(u,-z) and the
    squared stability norm over seeded random coefficient pairs."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    forms, K = _assemble_saddle(space, space0, space.mesh.h)
    S, M_omega, A0 = forms["S"], forms["M_omega"], forms["A0"]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.uniform(-1.0, 1.0, space.n_dofs)
        z = rng.uniform(-1.0, 1.0, space0.n_dofs)
        test = np.concatenate([u, -z])
        lhs = float(test @ (K @ np.concatenate([u, z])))
        rhs = float(u @ (S.matrix @ u) + z @ (A0.matrix @ z) + u @ (M_omega.matrix @ u))
        denom = max(abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst

"""Primal-dual solver for the unique continuation problem.

The discrete problem couples a primal field u_h (full space) with a dual
multiplier z_h (zero-trace space) through

    [ S + M_omega   B^T ] [u]   [ (q + dq, phi)_omega ]
    [ B            -A0  ] [z] = [ 0                   ]

where S is the mesh-dependent regularization, M_omega the data-region
mass, B the mixed stiffness and A0 the Dirichlet stiffness.  K is kept as
these four forms (`sparse.Saddle`) and never formed.
Testing the system with (u, -z) reproduces the squared stability norm
(`fem.stability_terms` of K), which guarantees solvability and is checked
numerically by `verify_positivity`; `solve_uc` returns the K it solved.
The data perturbation dq enters only through the right-hand side, so
`make_perturbation` returns its load vector (dq, phi)_omega together with
the certified norm ||dq||_{L2(omega)} on which the error estimates depend.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import PerturbationSpec
from .fem import (
    FeSpace,
    assemble_load_region,
    assemble_region_mass,
    assemble_stiffness,
    assemble_stabilization,
    build_space,
    error_norms,
    stability_terms,
)
from .fields import OscillatoryField
from .mesh import ALL_REGIONS, Mesh, Region
from .sparse import (
    REL_TOL,
    CyclicModes,
    Saddle,
    SolverError,
    achieved_residual,
    compose_saddle,
    orbit_index,
    solve_direct,
)


@dataclass
class Perturbation:
    """Data perturbation: its load vector (dq, phi_i)_omega on the primal
    space and its quadrature-certified L2(omega) norm."""

    load: np.ndarray
    norm_l2_omega: float


@dataclass
class UcSolution:
    """The primal and dual coefficients, the relative residual of the saddle
    solve and the Tikhonov scale it used; K is the `Saddle` that was solved,
    whose forms S, M_omega and A0 also give the stability norm.  K holds
    the forms' representatives' rows (`K.nbytes`); a form's `.matrix`
    replicates it into full CSR on request."""

    u: np.ndarray
    z: np.ndarray
    solve_residual: float
    tikhonov_scale: float
    primal_space: FeSpace = dc_field(repr=False)
    dual_space: FeSpace = dc_field(repr=False)
    K: Saddle = dc_field(repr=False)
    perturbation: Perturbation = dc_field(repr=False)


def solve_poisson(space0: FeSpace, f) -> np.ndarray:
    """Galerkin solution of -Lap u = f with zero boundary values.

    The stiffness matrix on the zero-trace space is symmetric positive
    definite, so the solve cannot legitimately fail; solver errors
    propagate with context if it does.
    """
    if not space0.dirichlet:
        raise ValueError("solve_poisson requires a Dirichlet space")
    A0 = assemble_stiffness(space0)
    b = assemble_load_region(space0, f, ALL_REGIONS)
    return _solve_ordered(A0, b, space0)[0]


def _solve_ordered(K, b, *spaces) -> tuple[np.ndarray, float]:
    """x and its `achieved_residual` on K for K x = b, K (CSR, a form or a
    `Saddle`) over the dofs of `spaces`, each after those before it (V_0h,
    or the saddle's primal and dual space): one `solve_direct` of the modes
    the load excites on the spaces' orbits (`_orbits`, `CyclicModes`), at
    the block tolerance that keeps x within the contract on K.  x = 0 for
    b = 0.  SolverError if x misses the contract, as for a K that does not
    commute with the turn."""
    if not b.any():
        return np.zeros(K.shape[0]), 0.0
    coords = np.concatenate([space.dof_coords for space in spaces])
    modes = CyclicModes(K, b, coords, _orbits(spaces))
    x = modes.recombine(solve_direct(modes.matrix, modes.rhs, rel_tol=modes.rel_tol))
    res = achieved_residual(K, x, b, modes.kmax)
    if not res <= REL_TOL:
        raise SolverError(
            f"residual tolerance not met after recombining modes {modes.modes}: "
            f"relative residual {res:.3e}, required {REL_TOL:.3e}"
        )
    return x, res


def _orbits(spaces):
    """`sparse.orbit_index` of the unknowns of `spaces`, the active dofs of
    each after those before it: each space's full-dof `orbits` tables mapped
    through `active`, keeping the orbits and fixed dofs that map.  A turn
    keeps the boundary, so an orbit is active whole or not at all."""
    orbits, fixed, offset = [], [], 0
    for space in spaces:
        index = np.full(space.n_full, -1, dtype=np.int32)
        index[space.active] = np.arange(offset, offset + space.n_dofs, dtype=np.int32)
        turned, kept = index[space.orbits[0]], index[space.orbits[1]]
        orbits.append(turned[turned[:, 0] >= 0])
        fixed.append(kept[kept >= 0])
        offset += space.n_dofs
    return orbit_index(np.concatenate(orbits), np.concatenate(fixed))


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
        raw_norm = error_norms(space, np.zeros(space.n_dofs), raw, Region.OMEGA_DATA).l2
        if raw_norm == 0.0:
            raise ValueError(f"oscillatory perturbation with kappa={spec.kappa} has zero norm")
        scale = spec.epsilon / raw_norm
        load = scale * assemble_load_region(space, raw, Region.OMEGA_DATA)
        return Perturbation(load=load, norm_l2_omega=scale * raw_norm)

    # nodal_noise
    in_omega = np.zeros(space.n_full, dtype=bool)
    in_omega[space.full_map[space.mesh.region_elements(Region.OMEGA_DATA)]] = True
    omega_dofs = np.flatnonzero(in_omega[space.active])
    rng = np.random.default_rng(spec.seed)
    coeffs = np.zeros(space.n_dofs)
    coeffs[omega_dofs] = rng.uniform(-1.0, 1.0, omega_dofs.size)
    # np.sum, not a BLAS dot, whose last bits depend on its thread count
    raw_norm = np.sqrt(np.sum(coeffs * (M_omega @ coeffs)))
    if raw_norm == 0.0:
        raise ValueError("nodal noise degenerated to the zero field")
    coeffs *= spec.epsilon / raw_norm
    load = M_omega @ coeffs
    return Perturbation(load=load, norm_l2_omega=float(np.sqrt(np.sum(coeffs * load))))


def _assemble_saddle(space: FeSpace, space0: FeSpace, tik: float) -> Saddle:
    """The `Saddle` of the forms S, M_omega, B and A0 with Tikhonov scale tik."""
    return compose_saddle(
        S=assemble_stabilization(space, tik),
        M_omega=assemble_region_mass(space, Region.OMEGA_DATA),
        A0=assemble_stiffness(space0),
        B=assemble_stiffness(space0, space),
    )


def solve_uc(
    mesh: Mesh,
    k: int,
    exact,
    perturbation: PerturbationSpec = PerturbationSpec(),
    tikhonov_hmin: float = 0.0,
) -> UcSolution:
    """Assemble and solve the order-k primal-dual system for the data
    exact + perturbation on omega, with Tikhonov scale max(h, tikhonov_hmin);
    `exact` is any field with value/gradient methods."""
    space = build_space(mesh, k)
    space0 = space.zero_trace()

    tik = max(mesh.h, tikhonov_hmin)
    K = _assemble_saddle(space, space0, tik)

    pert = make_perturbation(perturbation, space, K.M_omega)
    load = assemble_load_region(space, exact, Region.OMEGA_DATA) + pert.load

    rhs = np.concatenate([load, np.zeros(space0.n_dofs)])
    x, res = _solve_ordered(K, rhs, space, space0)
    return UcSolution(
        u=x[: space.n_dofs],
        z=x[space.n_dofs :],
        solve_residual=res,
        tikhonov_scale=tik,
        primal_space=space,
        dual_space=space0,
        K=K,
        perturbation=pert,
    )


def hminus1_residual(space0: FeSpace, u, A0, B) -> float:
    """Discrete dual norm of the equation residual of u.

    Riesz-represents v -> a(u, v) on the zero-trace space and returns the
    energy norm of the representer; a computable surrogate for the H^-1
    norm of Lap u that scales identically in h.  A0 and B are the
    zero-trace and mixed stiffness forms (`FormMatrix` or CSR), of a solve:
    sol.K.A0, sol.K.B.
    For the u of a `solve_uc` solve the representer is its z (the saddle's
    second block row reads B u = A0 z), so the result equals sqrt(a(z,z))
    up to rounding.
    """
    r = B @ u
    phi = _solve_ordered(A0, r, space0)[0]
    return float(np.sqrt(max(phi @ r, 0.0)))


def verify_positivity(space: FeSpace, space0: FeSpace, trials: int, seed: int = 0) -> float:
    """Max relative gap between the saddle form at (u,z),(u,-z) and the
    squared stability norm over seeded random coefficient pairs."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    K = _assemble_saddle(space, space0, space.mesh.h)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.uniform(-1.0, 1.0, space.n_dofs)
        z = rng.uniform(-1.0, 1.0, space0.n_dofs)
        test = np.concatenate([u, -z])
        lhs = float(test @ (K @ np.concatenate([u, z])))
        rhs = sum(stability_terms(u, z, K))
        denom = max(abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst

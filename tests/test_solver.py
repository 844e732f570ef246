import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from ucfem.config import PerturbationSpec
from ucfem.fem import (
    assemble_gradient_jump,
    assemble_load_region,
    assemble_region_mass,
    assemble_stiffness,
    build_space,
    error_norms,
    interpolate_nodal,
    stability_terms,
)
from ucfem.fields import AffineField, ConstantField, RadialQuadratic, ZeroField
from ucfem.harmonic import HarmonicMonomial, harmonic_norm_closed
from ucfem.mesh import ALL_REGIONS, B_REGIONS, Region, build_disk_mesh, refine_uniform
from ucfem import solver
from ucfem.solver import (
    hminus1_residual,
    make_perturbation,
    solve_poisson,
    saddle_dofs,
    solve_uc,
    verify_positivity,
)
from ucfem.sparse import REL_TOL, CyclicModes, SolverError, achieved_residual, compose_saddle
from test_fem import jittered_disk_mesh


#: 1 - |x|^2, the f = 4 manufactured solution on the unit disk
PARABOLOID = RadialQuadratic(1.0, -1.0)
RADIUS_SQUARED = RadialQuadratic(0.0, 1.0)


class TestPoisson:
    def test_zero_load_gives_zero(self, mesh_l2):
        space0 = build_space(mesh_l2, 1).zero_trace()
        u = solve_poisson(space0, ZeroField())
        assert np.array_equal(u, np.zeros(space0.n_dofs))

    def test_requires_dirichlet_space(self, mesh_l2):
        with pytest.raises(ValueError):
            solve_poisson(build_space(mesh_l2, 1), ConstantField(4.0))

    def test_first_order_h1_rate(self, geometry, mesh_l2):
        mesh = mesh_l2
        errs, hs = [], []
        for _ in range(3):
            space0 = build_space(mesh, 1).zero_trace()
            u = solve_poisson(space0, ConstantField(4.0))
            errs.append(error_norms(space0, u, PARABOLOID, ALL_REGIONS).h1_semi)
            hs.append(mesh.h)
            mesh = refine_uniform(mesh, geometry)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.85 <= slope <= 1.15

    def test_k2_l2_error_boundary_limited_but_decreasing(self, geometry):
        # the polygonal boundary caps the P2 L2(B) error at second order;
        # it must still shrink steadily under refinement
        mesh = build_disk_mesh(geometry, 8, 1)
        errs = []
        for _ in range(3):
            space0 = build_space(mesh, 2).zero_trace()
            u = solve_poisson(space0, ConstantField(4.0))
            errs.append(error_norms(space0, u, PARABOLOID, B_REGIONS).l2)
            mesh = refine_uniform(mesh, geometry)
        for coarse, fine in zip(errs, errs[1:]):
            assert fine < 0.5 * coarse


def stiffness_pair(space, space0):
    """The zero-trace stiffness A0 and the mixed stiffness B as CSR matrices."""
    return assemble_stiffness(space0).matrix, assemble_stiffness(space0, space).matrix


class TestHminus1Residual:
    def test_affine_is_harmonic(self, mesh_l2):
        # a(u, v) = 0 for affine u and zero-trace v
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        u = interpolate_nodal(space, AffineField(1.0, -2.0, 0.5))
        assert hminus1_residual(space0, u, *stiffness_pair(space, space0)) < 1e-10

    def test_cross_oracle_quadratic_k2(self, mesh_l2):
        # P2 reproduces |x|^2 exactly, so the residual of the interpolant must
        # match the energy norm of the Poisson solve with f = -Lap|x|^2 = -4,
        # computed through the independent load-assembly path
        space = build_space(mesh_l2, 2)
        space0 = space.zero_trace()
        u = interpolate_nodal(space, RADIUS_SQUARED)
        A0, B = stiffness_pair(space, space0)
        got = hminus1_residual(space0, u, A0, B)
        phi = solve_poisson(space0, ConstantField(-4.0))
        want = math.sqrt(phi @ (A0 @ phi))
        assert abs(got - want) < 1e-8 * want

    def test_cross_oracle_quadratic_k1_within_interpolation_error(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        u = interpolate_nodal(space, RADIUS_SQUARED)
        A0, B = stiffness_pair(space, space0)
        got = hminus1_residual(space0, u, A0, B)
        phi = solve_poisson(space0, ConstantField(-4.0))
        want = math.sqrt(phi @ (A0 @ phi))
        gap = error_norms(space, u, RADIUS_SQUARED, ALL_REGIONS).h1_semi
        assert abs(got - want) <= gap

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_dual_energy_of_the_solve(self, geometry, k):
        # the saddle's second block row reads B u = A0 z, so z is the Riesz
        # representer of the residual of u and residual^2 = a(z, z)
        mesh = build_disk_mesh(geometry, 8, 1)
        for level in (1, 2, 3):
            sol = solve_uc(mesh, k, HarmonicMonomial(3))
            f = sol.forms
            resid = hminus1_residual(sol.dual_space, sol.u, f["A0"], f["B"])
            dual = stability_terms(sol.u, sol.z, f["S"], f["M_omega"], f["A0"])[1]
            assert abs(resid**2 - dual) <= 1e-9 * dual, level
            if level < 3:
                mesh = refine_uniform(mesh, geometry)


def region_mass(space):
    return assemble_region_mass(space, Region.OMEGA_DATA).matrix


def saddle_system(mesh, k, exact, perturbation=PerturbationSpec()):
    """The saddle matrix, load, dof points and dof rotation of `solve_uc`."""
    sol = solve_uc(mesh, k, exact, perturbation)
    space, space0, f = sol.primal_space, sol.dual_space, sol.forms
    K = compose_saddle(f["S"] + f["M_omega"], f["B"], f["A0"])
    load = assemble_load_region(space, exact, Region.OMEGA_DATA) + sol.perturbation.load
    rhs = np.concatenate([load, np.zeros(space0.n_dofs)])
    return (K, rhs, *saddle_dofs(space, space0))


NOISE = PerturbationSpec("nodal_noise", 1e-3, seed=5)


class TestCyclicModes:
    @pytest.mark.parametrize("k", [1, 2])
    def test_saddle_commutes_with_rotation(self, geometry, k):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        for level in (2, 3):
            mesh = build_disk_mesh(geometry, 8, level)
            K, _, coords, rot = saddle_system(mesh, k, HarmonicMonomial(4))
            assert np.abs(coords[rot] - coords @ np.array([[c, s], [-s, c]])).max() < 1e-14
            assert abs(K[rot][:, rot] - K).max() == 0.0

    @pytest.mark.parametrize(
        "exact, perturbation, modes",
        [
            (HarmonicMonomial(4), PerturbationSpec(), (3,)),
            (ZeroField(), NOISE, (0, 1, 2, 3, 4)),
        ],
    )
    def test_kept_modes(self, geometry, exact, perturbation, modes):
        # Re z^3 lives in modes +-3 of the 8 sectors; nodal noise in all
        mesh = build_disk_mesh(geometry, 8, 2)
        split = CyclicModes(*saddle_system(mesh, 1, exact, perturbation))
        assert split.modes == modes
        assert np.iscomplexobj(split.matrix.data)

    @pytest.mark.parametrize("k, level, tol", [(1, 3, 1e-8), (2, 2, 1e-6)])
    def test_mode_solve_matches_order_one_solve(self, geometry, k, level, tol):
        mesh = build_disk_mesh(geometry, 8, level)
        cases = ((HarmonicMonomial(4), PerturbationSpec()), (ZeroField(), NOISE))
        for exact, perturbation in cases:
            modes = solve_uc(mesh, k, exact, perturbation)
            full = solve_uc(replace(mesh, rotation=None), k, exact, perturbation)
            for got, want in ((modes.u, full.u), (modes.z, full.z)):
                assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_jittered_mesh_takes_order_one_path(self, geometry):
        # no recorded rotation: one real mode holding the whole K
        mesh = jittered_disk_mesh(geometry, 2, seed=1, amplitude=1.0)
        assert mesh.rotation is None
        K, rhs, coords, rot = saddle_system(mesh, 1, HarmonicMonomial(4))
        split = CyclicModes(K, rhs, coords, rot)
        assert split.modes == (0,)
        assert split.matrix.shape == K.shape and not np.iscomplexobj(split.matrix.data)
        x = split.recombine(spsolve(split.matrix, split.rhs))
        assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_rotation_the_matrix_does_not_commute_with_fails(self, geometry):
        # the blocks of the sector-0 rows solve another system; the check
        # on the full K catches it
        mesh = jittered_disk_mesh(geometry, 2, seed=1, amplitude=1.0)
        with_turn = replace(mesh, rotation=build_disk_mesh(geometry, 8, 2).rotation)
        K, rhs, coords, _ = saddle_system(mesh, 1, HarmonicMonomial(4))
        turned = build_space(with_turn, 1)
        rot = saddle_dofs(turned, turned.zero_trace())[1]
        split = CyclicModes(K, rhs, coords, rot)
        assert achieved_residual(K, split.recombine(spsolve(split.matrix, split.rhs)), rhs) > 1e-6
        with pytest.raises(SolverError, match="residual"):
            solver._solve_ordered(K, rhs, coords, rot)

    def test_recombined_residual_is_checked(self, geometry, monkeypatch):
        mesh = build_disk_mesh(geometry, 8, 2)
        K, rhs, coords, rot = saddle_system(mesh, 1, HarmonicMonomial(4))
        monkeypatch.setattr(solver, "solve_direct", lambda A, b, rel_tol: np.zeros_like(b))
        with pytest.raises(SolverError, match="residual"):
            solver._solve_ordered(K, rhs, coords, rot)

    @pytest.mark.parametrize("k, sectors", [(1, 8), (1, 16), (2, 8), (2, 16)])
    def test_block_tolerance_bounds_the_full_residual(self, geometry, k, sectors, monkeypatch):
        # block solutions whose residual sits at the block tolerance, moved
        # off the solve in random directions that keep modes 0 and m/2 real,
        # meet the contract on K without a second solve
        K, rhs, coords, rot = saddle_system(build_disk_mesh(geometry, sectors, 3 - k), k, ZeroField(), NOISE)
        rng = np.random.default_rng(sectors + k)
        splits, tols = [], []

        def recorded(*args):
            splits.append(CyclicModes(*args))
            return splits[-1]

        def at_tolerance(A, b, rel_tol):
            tols.append(rel_tol)
            split = splits[-1]
            assert split.modes == tuple(range(sectors // 2 + 1))
            d = rng.uniform(-1.0, 1.0, b.size) + 1j * rng.uniform(-1.0, 1.0, b.size)
            for j, offset, perm in split._blocks:
                if j in (0, sectors // 2):
                    d[offset : offset + perm.size] = d[offset : offset + perm.size].real
            y, kmax, t = spsolve(A, b), np.abs(A.data).max(), 0.0
            for _ in range(3):  # t: the residual t |A d| at rel_tol of the scale of y + t d
                t = rel_tol * (kmax * np.linalg.norm(y + t * d) + np.linalg.norm(b))
                t /= np.linalg.norm(A @ d)
            assert achieved_residual(A, y + t * d, b) == pytest.approx(rel_tol, rel=1e-3)
            return y + t * d

        monkeypatch.setattr(solver, "CyclicModes", recorded)
        monkeypatch.setattr(solver, "solve_direct", at_tolerance)
        for _ in range(5):
            x, res = solver._solve_ordered(K, rhs, coords, rot)
            assert res == achieved_residual(K, x, rhs) <= REL_TOL
        ratio = np.abs(K.data).max() / np.abs(splits[0].matrix.data).max()
        assert tols == [0.5 * REL_TOL * min(1.0, ratio)] * 5

    def test_zero_load_solves_nothing(self, geometry, monkeypatch):
        mesh = build_disk_mesh(geometry, 8, 2)
        K, rhs, coords, rot = saddle_system(mesh, 1, HarmonicMonomial(4))
        monkeypatch.setattr(solver, "solve_direct", None)
        x, res = solver._solve_ordered(K, np.zeros_like(rhs), coords, rot)
        assert x.shape == rhs.shape and not x.any() and res == 0.0

    def test_one_residual_per_solve(self, mesh_l2, monkeypatch):
        # without refinement the full-K residual is evaluated once, and
        # solve_uc reports that value
        calls = []

        def counted(*args):
            calls.append(achieved_residual(*args))
            return calls[-1]

        monkeypatch.setattr(solver, "achieved_residual", counted)
        sol = solve_uc(mesh_l2, 1, HarmonicMonomial(4))
        assert calls == [sol.solve_residual]


class TestPerturbation:
    def test_zero_epsilon_gives_zero_field(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        pert = make_perturbation(PerturbationSpec("oscillatory", 0.0), space, region_mass(space))
        assert pert.norm_l2_omega == 0.0
        assert np.array_equal(pert.load, np.zeros(space.n_dofs))

    def test_oscillatory_norm_certified(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        pert = make_perturbation(PerturbationSpec("oscillatory", 1e-3), space, region_mass(space))
        assert abs(pert.norm_l2_omega - 1e-3) < 1e-10 * 1e-3

    def test_degenerate_kappa_rejected(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        with pytest.raises(ValueError):
            make_perturbation(
                PerturbationSpec("oscillatory", 1e-3, kappa=0.0), space, region_mass(space)
            )

    def test_nodal_noise_deterministic(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        M_omega = region_mass(space)
        a = make_perturbation(PerturbationSpec("nodal_noise", 1e-3, seed=42), space, M_omega)
        b = make_perturbation(PerturbationSpec("nodal_noise", 1e-3, seed=42), space, M_omega)
        c = make_perturbation(PerturbationSpec("nodal_noise", 1e-3, seed=43), space, M_omega)
        assert np.array_equal(a.load, b.load)
        assert not np.array_equal(a.load, c.load)
        assert abs(a.norm_l2_omega - 1e-3) < 1e-12

    def test_nodal_noise_supported_on_data_region(self, mesh_l2, geometry):
        space = build_space(mesh_l2, 1)
        pert = make_perturbation(
            PerturbationSpec("nodal_noise", 1e-3, seed=7), space, region_mass(space)
        )
        outside = np.linalg.norm(space.dof_coords, axis=1) > geometry.r1 + 1e-9
        assert np.abs(pert.load[outside]).max() == 0.0
        assert np.abs(pert.load[~outside]).max() > 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec(mode="gaussian")


def real_part_norm_sq(mono, rho):
    # squared L2 norm of the real part: half the complex-monomial norm for n >= 2
    full = harmonic_norm_closed(mono, rho)
    return full if mono.n == 1 else 0.5 * full


class TestSolveUc:
    def test_affine_error_decreases(self, geometry):
        exact = AffineField(0.0, 1.0, 0.0)
        mesh = build_disk_mesh(geometry, 8, 2)
        errs = []
        for _ in range(3):
            sol = solve_uc(mesh, 1, exact)
            errs.append(error_norms(sol.primal_space, sol.u, exact, B_REGIONS).l2)
            mesh = refine_uniform(mesh, geometry)
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_solve_residual_within_tolerance(self, mesh_l2):
        sol = solve_uc(mesh_l2, 1, HarmonicMonomial(3))
        assert sol.solve_residual <= 1e-10

    @pytest.mark.parametrize("mode", ["oscillatory", "nodal_noise"])
    def test_linear_in_data(self, mesh_l2, mode):
        # with zero exact solution the scheme maps the perturbation linearly
        base = PerturbationSpec(mode=mode, epsilon=1e-3)
        doubled = PerturbationSpec(mode=mode, epsilon=2e-3)
        u1 = solve_uc(mesh_l2, 1, ZeroField(), base).u
        u2 = solve_uc(mesh_l2, 1, ZeroField(), doubled).u
        assert np.allclose(u2, 2.0 * u1, rtol=1e-9, atol=1e-16)

    def test_k2_quadratic_error_decreases(self, geometry):
        # Re z^2 lies in the P2 space; only the h^{2k} consistency term
        # pollutes, which fades fast enough to engage from level 2 on
        exact = HarmonicMonomial(3)
        mesh = build_disk_mesh(geometry, 8, 2)
        errs = []
        for _ in range(3):
            sol = solve_uc(mesh, 2, exact)
            errs.append(error_norms(sol.primal_space, sol.u, exact, B_REGIONS).l2)
            mesh = refine_uniform(mesh, geometry)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2

    def test_hmin_floor_applied(self, mesh_l2):
        sol = solve_uc(mesh_l2, 1, HarmonicMonomial(3), tikhonov_hmin=0.5)
        assert sol.tikhonov_scale == 0.5

    def test_ordered_solve_matches_unordered(self, mesh_l2):
        # the nested-dissection order changes the factorization, not u
        exact = HarmonicMonomial(3)
        sol = solve_uc(mesh_l2, 1, exact)
        f = sol.forms
        K = compose_saddle(f["S"] + f["M_omega"], f["B"], f["A0"])
        load = assemble_load_region(sol.primal_space, exact, Region.OMEGA_DATA)
        x = spsolve(K.tocsc(), np.concatenate([load, np.zeros(sol.dual_space.n_dofs)]))
        u = x[: sol.primal_space.n_dofs]
        assert np.linalg.norm(sol.u - u) <= 1e-10 * np.linalg.norm(u)

    def test_a_priori_bound(self, geometry):
        # unperturbed primal solutions stay within twice the exact L2 size
        exact = HarmonicMonomial(3)
        limit = 2.0 * math.sqrt(real_part_norm_sq(exact, 1.0))
        mesh = build_disk_mesh(geometry, 8, 1)
        for _ in range(3):
            sol = solve_uc(mesh, 1, exact)
            norm_uh = error_norms(sol.primal_space, sol.u, ZeroField(), ALL_REGIONS).l2
            assert norm_uh <= limit
            mesh = refine_uniform(mesh, geometry)


class TestConsistencyIdentity:
    # frozen budgets for the magnitude of the interpolant's jump residual,
    # recorded at the first green run (levels 1..3, exact Re z^3, k=1:
    # observed 2.34, 0.57, 0.14, halving per level as expected of the
    # O(h^k)-consistent penalty; frozen with 50% headroom)
    BUDGETS = {1: 3.5, 2: 0.9, 3: 0.21}

    def test_discrete_consistency(self, geometry):
        exact = HarmonicMonomial(4)
        mesh = build_disk_mesh(geometry, 8, 1)
        for level in (1, 2, 3):
            sol = solve_uc(mesh, 1, exact)
            sp = sol.primal_space
            S, Mw, B = (sol.forms[key] for key in ("S", "M_omega", "B"))
            u_interp = interpolate_nodal(sp, exact)
            M_all = assemble_region_mass(sp, ALL_REGIONS).matrix
            load = assemble_load_region(sp, exact, Region.OMEGA_DATA)
            # residual functional of (u_I - u_h, -z_h) tested against (v, 0),
            # minus the Tikhonov source, plus the data mismatch on omega
            lhs = (
                (S + Mw) @ (u_interp - sol.u)
                + B.T @ (-sol.z)
                - mesh.h**2 * (M_all @ u_interp)
                + (load - Mw @ u_interp)
            )
            jump_residual = assemble_gradient_jump(sp).matrix @ u_interp
            assert np.abs(lhs - jump_residual).max() < 1e-12
            assert np.abs(lhs).max() < self.BUDGETS[level]
            if level < 3:
                mesh = refine_uniform(mesh, geometry)


class TestPositivity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_small_deviation(self, mesh_l2, k):
        space = build_space(mesh_l2, k)
        space0 = space.zero_trace()
        assert verify_positivity(space, space0, trials=50, seed=0) <= 1e-12

    def test_zero_pair_trivial(self, mesh_l2):
        # both sides vanish identically at (0, 0); covered by the relative
        # deviation using the guarded denominator
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        assert verify_positivity(space, space0, trials=1, seed=0) >= 0.0

    def test_rejects_no_trials(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        with pytest.raises(ValueError):
            verify_positivity(space, space0, trials=0)

    def test_deviation_scale_invariant(self, mesh_l2):
        # both sides of the identity are quadratic, so scaling (u, z) by 10
        # multiplies each by exactly 100 and leaves the deviation untouched
        from ucfem.fem import assemble_stabilization
        from ucfem.sparse import compose_saddle

        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        S = assemble_stabilization(space, mesh_l2.h).matrix
        Mw = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
        A0 = assemble_stiffness(space0).matrix
        B = assemble_stiffness(space0, space).matrix
        K = compose_saddle(S + Mw, B, A0)
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 1, space.n_dofs)
        z = rng.uniform(-1, 1, space0.n_dofs)

        def sides(uu, zz):
            lhs = np.concatenate([uu, -zz]) @ (K @ np.concatenate([uu, zz]))
            rhs = uu @ ((S + Mw) @ uu) + zz @ (A0 @ zz)
            return lhs, rhs

        l1, r1 = sides(u, z)
        l10, r10 = sides(10 * u, 10 * z)
        assert abs(l10 - 100 * l1) < 1e-10 * abs(l10)
        assert abs(r10 - 100 * r1) < 1e-10 * abs(r10)


@pytest.mark.xfail(
    strict=True,
    reason="blocked by the data/regularization energy imbalance at the pinned "
    "configuration: for monomial data on omega = B(0.25) the stabilization "
    "energy of the interpolant exceeds the data energy until h ~ 2e-3 "
    "(refinement level ~9), so no data-fit rate is observable at levels <= 5; "
    "see the decisions ledger",
)
def test_data_fit_rate_invariant(geometry):
    # stated invariant: || q - u_h ||_{L2(omega)} decays with rate >= k - 0.3
    exact = HarmonicMonomial(4)
    mesh = build_disk_mesh(geometry, 8, 2)
    errs, hs = [], []
    for _ in range(3):
        sol = solve_uc(mesh, 1, exact)
        errs.append(error_norms(sol.primal_space, sol.u, exact, [Region.OMEGA_DATA]).l2)
        hs.append(mesh.h)
        mesh = refine_uniform(mesh, geometry)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.7

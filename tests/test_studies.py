import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ball_norm_sq_quadrature, config_to_text, harmonic_norm_closed
from ucfem.config import parse_config
from ucfem.fem import error_norms
from ucfem.fields import QuadraticField
from ucfem.harmonic import HarmonicMonomial, optimal_alpha
from ucfem.mesh import build_disk_mesh
from ucfem.studies import (
    fit_rate,
    report_to_csv,
    report_to_json,
    run_convergence_study,
    run_perturbation_study,
    run_stagnation_study,
)


class TestFitRate:
    def test_exact_quadratic(self):
        fit = fit_rate([(1.0, 1.0), (0.5, 0.25), (0.25, 0.0625)])
        assert abs(fit.slope - 2.0) < 1e-12
        assert all(abs(e - 2.0) < 1e-12 for e in fit.per_step_eoc)

    def test_square_root_points(self):
        fit = fit_rate([(0.1, 0.31623), (0.05, 0.22361)])
        assert abs(fit.slope - 0.5) < 1e-4

    def test_constant_errors(self):
        assert abs(fit_rate([(1.0, 3.0), (0.5, 3.0), (0.25, 3.0)]).slope) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (0.5, 0.0)])
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0)])

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_recovers_synthetic_power_law(self, slope, scale):
        hs = [0.4 * 0.5**i for i in range(5)]
        pts = [(h, scale * h**slope) for h in hs]
        fit = fit_rate(pts)
        assert abs(fit.slope - slope) < 1e-10


@pytest.fixture(scope="module")
def quick_report():
    cfg = parse_config("levels = 1..2\n")
    return run_convergence_study(cfg), cfg


class TestConvergenceStudy:
    def test_rows_ordered_by_decreasing_h(self, quick_report):
        report, _ = quick_report
        hs = [row.h for row in report.rows]
        assert hs == sorted(hs, reverse=True)
        ratio = hs[1] / hs[0]
        assert 0.45 <= ratio <= 0.55

    def test_levels_match_config(self, quick_report):
        report, cfg = quick_report
        assert [row.level for row in report.rows] == list(cfg.levels)

    def test_config_echo_round_trips(self, quick_report):
        report, cfg = quick_report
        text = "".join(f"{k} = {v}\n" for k, v in report.config_echo.items())
        assert parse_config(text) == cfg
        assert parse_config(config_to_text(cfg)) == cfg

    def test_csv_schema(self, quick_report):
        report, _ = quick_report
        lines = report_to_csv(report).splitlines()
        assert lines[0] == (
            "level,h,n_dofs_primal,n_dofs_dual,err_l2_B,err_l2_omega,"
            "err_h1semi_B,triple_norm,residual_hminus1,l2_Omega_of_uh,energy_ratio"
        )
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert first[0] == "1"
        assert "e" in first[1]  # %.12e formatting

    def test_energy_ratio_at_pinned_geometry(self, quick_report):
        # s(u_I,u_I) / |u_I|^2_omega for Re z^2 at radii 0.25/0.5/1.0
        report, _ = quick_report
        want = (23776.169999521957, 6837.216933972654)
        for row, ratio in zip(report.rows, want):
            assert abs(row.energy_ratio - ratio) <= 1e-10 * ratio
        assert "energy_ratio" not in report.fitted_rates

    def test_configured_floor_applies(self):
        cfg = parse_config("levels = 1..2\nhmin.mode = value\nhmin.value = 0.5\n")
        report = run_convergence_study(cfg)
        for row in report.rows:
            assert row.tik_scale == max(row.h, 0.5)

    def test_json_mirrors_report(self, quick_report):
        report, _ = quick_report
        payload = json.loads(report_to_json(report))
        assert payload["study"] == "converge"
        assert payload["config"] == report.config_echo
        assert len(payload["rows"]) == len(report.rows)
        assert set(payload["fitted_rates"]) == {
            "err_l2_B",
            "err_l2_omega",
            "err_h1semi_B",
            "triple_norm",
            "residual_hminus1",
        }

    def test_onset_data_rederived_at_levels_1_to_4(self):
        # the committed k=1 Re z^3 study, re-run from the config its JSON
        # records over its first four levels
        stored = json.loads((Path(__file__).parents[1] / "data/onset_k1_n3/converge.json").read_text())
        config = dict(stored["config"], levels="1..4")
        report = run_convergence_study(parse_config("".join(f"{k} = {v}\n" for k, v in config.items())))
        got = json.loads(report_to_json(report))
        assert got["columns"] == stored["columns"]
        assert len(got["rows"]) == 4
        for row, want in zip(got["rows"], stored["rows"]):
            for column, value in want.items():
                assert row[column] == pytest.approx(value, rel=1e-9, abs=0.0), (row["level"], column)

    def test_deterministic_output(self):
        cfg = parse_config("levels = 1..2\n")
        a = run_convergence_study(cfg)
        b = run_convergence_study(cfg)
        assert report_to_csv(a) == report_to_csv(b)
        assert report_to_json(a) == report_to_json(b)


class TestPerturbationStudy:
    def test_zero_epsilon_degenerates_to_plain_study(self):
        cfg = parse_config("levels = 1..2\n")
        plain = run_convergence_study(cfg)
        pert = run_perturbation_study(cfg)
        for a, b in zip(plain.rows, pert.rows):
            assert a.err_l2_B == b.err_l2_B
            assert a.triple_norm == b.triple_norm
        assert all(row.sensitivity is None for row in pert.rows)

    def test_doubling_epsilon_scales_linearly(self):
        base = parse_config("exact.kind = zero\nperturbation.epsilon = 1e-3\nlevels = 1..2\n")
        double = parse_config("exact.kind = zero\nperturbation.epsilon = 2e-3\nlevels = 1..2\n")
        ra = run_perturbation_study(base)
        rb = run_perturbation_study(double)
        for a, b in zip(ra.rows, rb.rows):
            assert abs(b.err_l2_B - 2.0 * a.err_l2_B) < 1e-9 * b.err_l2_B
            # the normalized sensitivity is scale free
            assert abs(b.sensitivity - a.sensitivity) < 1e-9 * a.sensitivity

    def test_k2_sensitivity_is_the_normalized_error(self):
        # err_l2_B h^((1 - alpha) k) / eps with k = 2: at k = 1 an exponent
        # without its factor k reads the same
        cfg = parse_config(
            "k = 2\nlevels = 1..3\nexact.kind = zero\n"
            "perturbation.mode = oscillatory\nperturbation.epsilon = 1e-3\n"
        )
        alpha = optimal_alpha(*cfg.geometry.radii).alpha
        rows = run_perturbation_study(cfg).rows
        assert [row.level for row in rows] == [1, 2, 3]
        for row in rows:
            assert row.sensitivity == pytest.approx(row.err_l2_B * row.h ** ((1 - alpha) * 2) / 1e-3, rel=1e-14)

    def test_sensitivity_column_in_csv(self):
        cfg = parse_config("exact.kind = zero\nperturbation.epsilon = 1e-3\nlevels = 1..2\n")
        report = run_perturbation_study(cfg)
        lines = report_to_csv(report).splitlines()
        assert lines[0].endswith(",energy_ratio,sensitivity")
        assert "sensitivity_max_min_ratio" in report.verdicts
        # a zero exact solution has no data energy: empty cell, JSON null
        assert all(line.split(",")[-2] == "" for line in lines[1:])
        text = report_to_json(report)
        assert "NaN" not in text
        assert all(row["energy_ratio"] is None for row in json.loads(text)["rows"])


class TestStagnationStudy:
    def test_zero_epsilon_matches_plain_study(self):
        cfg = parse_config("levels = 1..2\nhmin.mode = auto\n")
        plain = run_convergence_study(cfg)
        stag = run_stagnation_study(cfg)
        for a, b in zip(plain.rows, stag.rows):
            assert a.err_l2_B == b.err_l2_B
            assert a.energy_ratio == b.energy_ratio
        assert stag.verdicts["h_min"] == 0.0
        # without a floor the Tikhonov scale is h itself, and the report says so
        rows = json.loads(report_to_json(stag))["rows"]
        assert [row["tik_scale"] for row in rows] == [row["h"] for row in rows]

    def test_floor_recorded_in_rows(self):
        cfg = parse_config(
            "exact.n = 3\nperturbation.epsilon = 1e-2\nlevels = 2..4\n"
            "hmin.mode = value\nhmin.value = 0.1\n"
        )
        report = run_stagnation_study(cfg)
        for row in report.rows:
            assert row.tik_scale == max(row.h, 0.1)
        assert report.verdicts["crossing_level"] == 4

    def test_auto_floor_from_closed_form_norm(self):
        from ucfem.harmonic import monomial_sobolev_norm
        from ucfem.studies import resolve_hmin

        cfg = parse_config("exact.n = 3\nperturbation.epsilon = 1e-2\nhmin.mode = auto\n")
        expected = 1e-2 / monomial_sobolev_norm(HarmonicMonomial(3), 1.0, 2)
        assert abs(resolve_hmin(cfg) - expected) < 1e-15


class TestBallNormOracle:
    def test_matches_closed_forms_quickly(self, geometry):
        mesh = build_disk_mesh(geometry, 8, 2)
        for n in (1, 2, 3):
            mono = HarmonicMonomial(n)
            for circle, rho in ((1, 0.25), (2, 0.5), (3, 1.0)):
                got = ball_norm_sq_quadrature(mesh, geometry, mono, circle)
                want = harmonic_norm_closed(mono, rho)
                assert abs(got - want) <= 1e-10 * want

    def test_segment_completion_matters(self, geometry):
        # without the sliver correction the polygon integral is O(h^2) short
        mesh = build_disk_mesh(geometry, 8, 2)
        mono = HarmonicMonomial(1)
        want = harmonic_norm_closed(mono, 1.0)
        got = ball_norm_sq_quadrature(mesh, geometry, mono, 3)
        polygon_only = mesh.signed_areas.sum()
        assert abs(got - want) < 1e-12 * want
        assert want - polygon_only > 1e-3  # the slivers are not negligible

    def test_rejects_bad_circle(self, geometry, base_mesh):
        with pytest.raises(ValueError):
            ball_norm_sq_quadrature(base_mesh, geometry, HarmonicMonomial(1), 0)


def test_engaged_regime_reaches_optimal_rate():
    # a data disk of radius 0.8 carries O(1) mass: the energy ratio falls
    # below 1 between levels 3 and 4 and the L2(B) error converges at the
    # paper's rate h^{alpha k} or better
    cfg = parse_config(
        "geometry.r1 = 0.8\ngeometry.r2 = 0.9\nsectors = 16\nexact.n = 3\n"
        "levels = 1..4\nrate_window = 2..4\n"
    )
    report = run_convergence_study(cfg)
    ratios = [row.energy_ratio for row in report.rows]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[2] > 1.0 > ratios[3]
    assert report.fitted_rates["err_l2_B"] >= optimal_alpha(0.8, 0.9, 1.0).alpha


@pytest.mark.xfail(
    strict=True,
    reason="blocked: the stated near-exact data fit at level 3 requires the "
    "data term to dominate the Tikhonov energy, which fails by two orders at "
    "the pinned geometry (see the decisions ledger)",
)
def test_affine_near_exact_at_level_3(geometry):
    # stated example: err_l2_B below 1e-3 * ||u|| at level 3 for affine exact
    from ucfem.mesh import B_REGIONS
    from ucfem.solver import solve_uc

    exact = QuadraticField(0.0, 1.0, 0.0)
    mesh = build_disk_mesh(geometry, 8, 3)
    sol = solve_uc(mesh, 1, exact)
    err = error_norms(sol.primal_space, sol.u, exact, B_REGIONS).l2
    norm_u = np.sqrt(0.5 * harmonic_norm_closed(HarmonicMonomial(2), geometry.r2))
    assert err < 1e-3 * norm_u

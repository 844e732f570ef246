"""Experiment drivers: convergence, perturbation-sensitivity and stagnation.

Each study runs the primal-dual solver over a family of refined meshes,
records the error and residual norms per level, and fits experimental
convergence orders by least squares in log-log coordinates.  Reports
serialize to CSV (one row per level) and JSON (full report including the
config echo and the frozen verification thresholds).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import RunConfig, config_echo
from .fem import error_norms, interpolate_nodal, triple_norm
from .fields import QuadraticField
from .harmonic import HarmonicMonomial, monomial_sobolev_norm, optimal_alpha
from .mesh import (
    B_REGIONS,
    Mesh,
    Region,
    build_disk_mesh,
    refine_uniform,
)
from .solver import hminus1_residual, solve_uc

#: boundedness constant for the normalized perturbation sensitivity
#: (max/min across levels); frozen at the first verified run of the
#: default setup (observed ratio 6.99 for oscillatory noise, levels 1-5)
SENSITIVITY_RATIO_BOUND = 10.0
#: stagnation acceptance: finest-level error within this factor of the
#: error at the h_min crossing level
STAGNATION_FACTOR_BOUND = 3.0
#: the stagnation plateau must lie within one decade of eps^a * |u|^(1-a)
PLATEAU_DECADES = 1.0

_RATE_COLUMNS = (
    "err_l2_B",
    "err_l2_omega",
    "err_h1semi_B",
    "triple_norm",
    "residual_hminus1",
)


@dataclass(frozen=True)
class RateFit:
    slope: float
    per_step_eoc: tuple


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(err) against log(h) over a sequence of
    (h, err) with positive entries."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a rate")
    h = np.array([p[0] for p in pts], dtype=float)
    e = np.array([p[1] for p in pts], dtype=float)
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("rate fitting requires positive h and err values")
    slope = float(np.polyfit(np.log(h), np.log(e), 1)[0])
    eoc = tuple(
        float(np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1])) for i in range(len(e) - 1)
    )
    return RateFit(slope=slope, per_step_eoc=eoc)


@dataclass
class LevelRecord:
    level: int
    h: float
    n_dofs_primal: int
    n_dofs_dual: int
    err_l2_B: float
    err_l2_omega: float
    err_h1semi_B: float
    triple_norm: float
    residual_hminus1: float
    l2_Omega_of_uh: float
    energy_ratio: float | None
    tik_scale: float
    sensitivity: float | None = None


#: the columns of every report; a study may append one excluded column
_BASE_COLUMNS = tuple(
    f.name for f in fields(LevelRecord) if f.name not in ("tik_scale", "sensitivity")
)


@dataclass
class ConvergenceReport:
    study: str
    rows: list
    columns: tuple
    fitted_rates: dict
    eoc: dict
    rate_window: tuple
    config_echo: dict
    thresholds: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)


def exact_field_from_config(cfg: RunConfig):
    if cfg.exact.kind == "zero":
        return QuadraticField()
    return HarmonicMonomial(n=cfg.exact.n, part=cfg.exact.part, dim=2)


def _exact_scale(cfg: RunConfig) -> float:
    """Closed-form H^{k+1} norm of the exact monomial on the outer disk."""
    return monomial_sobolev_norm(exact_field_from_config(cfg), cfg.geometry.r3, cfg.k + 1)


def _meshes_for_levels(cfg: RunConfig):
    mesh = build_disk_mesh(cfg.geometry, cfg.sectors, level=cfg.levels[0])
    yield mesh
    current = cfg.levels[0]
    for lv in cfg.levels[1:]:
        for _ in range(lv - current):
            mesh = refine_uniform(mesh, cfg.geometry)
        current = lv
        yield mesh


def _solve_level(cfg: RunConfig, mesh: Mesh, exact) -> LevelRecord:
    sol = solve_uc(mesh, cfg.k, exact, cfg.perturbation, resolve_hmin(cfg))
    primal, dual = sol.primal_space, sol.dual_space
    u_interp = interpolate_nodal(primal, exact)
    err = error_norms(primal, sol.u, exact, B_REGIONS, inner=[Region.OMEGA_DATA])
    tnorm = triple_norm(u_interp - sol.u, sol.z, sol.K)
    resid = hminus1_residual(dual, sol.u, sol.K.A0, sol.K.B)
    # energy balance s(u_I,u_I) / |u_I|^2_omega: the data term engages the
    # solver only once it falls below about 1; None when u_I = 0 on omega
    reg_energy = float(u_interp @ (sol.K.S @ u_interp))
    data_energy = float(u_interp @ (sol.K.M_omega @ u_interp))
    return LevelRecord(
        level=mesh.level,
        h=float(mesh.h),
        n_dofs_primal=primal.n_dofs,
        n_dofs_dual=dual.n_dofs,
        err_l2_B=float(err.l2),
        err_l2_omega=float(err.l2_inner),
        err_h1semi_B=float(err.h1_semi),
        triple_norm=float(tnorm),
        residual_hminus1=float(resid),
        l2_Omega_of_uh=float(err.l2_uh),
        energy_ratio=reg_energy / data_energy if data_energy > 0 else None,
        tik_scale=float(sol.tikhonov_scale),
    )


def _fit_columns(rows, window_levels) -> tuple[dict, dict]:
    lo, hi = window_levels
    fitted, eoc = {}, {}
    for col in _RATE_COLUMNS:
        pts_all = [(row.h, getattr(row, col)) for row in rows]
        pts_win = [(row.h, getattr(row, col)) for row in rows if lo <= row.level <= hi]
        try:
            fitted[col] = fit_rate(pts_win).slope if len(pts_win) >= 2 else None
        except ValueError:
            fitted[col] = None
        try:
            eoc[col] = list(fit_rate(pts_all).per_step_eoc)
        except ValueError:
            eoc[col] = [None] * (len(rows) - 1)
    return fitted, eoc


def _run_study(cfg: RunConfig, study: str, column: str | None = None) -> ConvergenceReport:
    """Solve every configured level and fit the rate columns; the calling
    study fills in its own column and adds its thresholds and verdicts."""
    exact = exact_field_from_config(cfg)
    rows = [_solve_level(cfg, mesh, exact) for mesh in _meshes_for_levels(cfg)]
    window = cfg.resolved_rate_window()
    fitted, eoc = _fit_columns(rows, window)
    return ConvergenceReport(
        study=study,
        rows=rows,
        columns=_BASE_COLUMNS + ((column,) if column else ()),
        fitted_rates=fitted,
        eoc=eoc,
        rate_window=window,
        config_echo=config_echo(cfg),
    )


def run_convergence_study(cfg: RunConfig) -> ConvergenceReport:
    """Unperturbed h-refinement study; the main optimal-rate evidence table."""
    return _run_study(cfg, "converge")


def run_perturbation_study(cfg: RunConfig) -> ConvergenceReport:
    """Fixed perturbation amplitude across levels; records the normalized
    sensitivity err * h^{(1-alpha)k} / eps and checks its boundedness."""
    report = _run_study(cfg, "perturb", "sensitivity")
    alpha = optimal_alpha(*cfg.geometry.radii).alpha
    eps = cfg.perturbation.epsilon
    report.thresholds = {"sensitivity_ratio_bound": SENSITIVITY_RATIO_BOUND}
    if eps > 0:
        for row in report.rows:
            row.sensitivity = float(row.err_l2_B * row.h ** ((1.0 - alpha) * cfg.k) / eps)
        sens = [row.sensitivity for row in report.rows]
        ratio = max(sens) / min(sens) if min(sens) > 0 else math.inf
        report.verdicts = {
            "sensitivity_max_min_ratio": float(ratio),
            "sensitivity_bounded": bool(ratio <= SENSITIVITY_RATIO_BOUND),
        }
    return report


def resolve_hmin(cfg: RunConfig) -> float:
    """Stagnation floor from the config policy.

    `value` uses the given length; `auto` uses (eps / scale)^{1/k} with the
    supplied surrogate solution scale, defaulting to the closed-form
    H^{k+1} norm of the exact monomial on the outer disk.
    """
    if cfg.hmin.mode == "off":
        return 0.0
    if cfg.hmin.mode == "value":
        return cfg.hmin.value
    eps = cfg.perturbation.epsilon
    if eps == 0.0:
        return 0.0
    scale = cfg.hmin.scale
    if scale == 0.0:
        if cfg.exact.kind == "zero":
            raise ValueError("hmin.mode = auto needs hmin.scale for a zero exact solution")
        scale = _exact_scale(cfg)
    return (eps / scale) ** (1.0 / cfg.k)


def run_stagnation_study(cfg: RunConfig) -> ConvergenceReport:
    """Refine past the perturbation-dominated mesh size with the
    max(h, h_min) Tikhonov variant and verify the error stagnates; a verdict
    that would divide by zero or compare the finest row with itself is left out."""
    alpha = optimal_alpha(*cfg.geometry.radii).alpha
    eps = cfg.perturbation.epsilon
    hmin_value = resolve_hmin(cfg)
    report = _run_study(cfg, "stagnate", "tik_scale")
    rows = report.rows

    report.thresholds = {
        "stagnation_factor_bound": STAGNATION_FACTOR_BOUND,
        "plateau_decades": PLATEAU_DECADES,
    }
    verdicts = report.verdicts = {"h_min": float(hmin_value)}
    crossing = next((row for row in rows if row.h < hmin_value), None)
    if crossing is not None:
        verdicts["crossing_level"] = crossing.level
        if crossing is not rows[-1] and crossing.err_l2_B > 0:
            factor = float(rows[-1].err_l2_B / crossing.err_l2_B)
            verdicts["stagnation_factor"] = factor
            verdicts["stagnated"] = bool(factor <= STAGNATION_FACTOR_BOUND)
        if cfg.exact.kind == "monomial" and eps > 0:
            reference = eps**alpha * _exact_scale(cfg) ** (1.0 - alpha)
            plateau = float(rows[-1].err_l2_B)
            verdicts["plateau"] = plateau
            verdicts["plateau_reference"] = float(reference)
            verdicts["plateau_within_decade"] = bool(
                plateau > 0 and abs(math.log10(plateau / reference)) <= PLATEAU_DECADES
            )
    return report


# --- report serialization ---------------------------------------------------

def report_to_csv(report: ConvergenceReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        cells = []
        for col in report.columns:
            val = getattr(row, col)
            if isinstance(val, int):
                cells.append(str(val))
            elif val is None:
                cells.append("")
            else:
                cells.append(f"{val:.12e}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_to_json(report: ConvergenceReport) -> str:
    payload = {
        "study": report.study,
        "config": report.config_echo,
        "rate_window": list(report.rate_window),
        "columns": list(report.columns),
        "rows": [{col: getattr(row, col) for col in report.columns} for row in report.rows],
        "fitted_rates": report.fitted_rates,
        "eoc": report.eoc,
        "thresholds": report.thresholds,
        "verdicts": report.verdicts,
    }
    return json.dumps(payload, indent=2) + "\n"

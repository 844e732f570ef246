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
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, config_echo
from .fem import error_norms, interpolate_nodal, triple_norm
from .fields import ZeroField
from .geometry import Geometry
from .harmonic import HarmonicMonomial, monomial_sobolev_norm, optimal_alpha
from .mesh import ALL_REGIONS, B_REGIONS, Mesh, Region, build_disk_mesh, refine_uniform
from .quadrature import TriangleRule, gauss_rule_01, tri_rule_collapsed
from .solver import UcProblem, hminus1_residual, solve_uc

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


def fit_rate(points, window=None) -> RateFit:
    """Least-squares slope of log(err) against log(h).

    `points` is a sequence of (h, err) with positive entries; `window`
    optionally selects a contiguous index range (lo, hi) inclusive.
    """
    pts = list(points)
    if window is not None:
        lo, hi = window
        pts = pts[lo : hi + 1]
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
    sensitivity: float | None = None
    tik_scale: float | None = None


@dataclass
class ConvergenceReport:
    study: str
    rows: list
    fitted_rates: dict
    eoc: dict
    rate_window: tuple
    config_echo: dict
    thresholds: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)


def exact_field_from_config(cfg: RunConfig):
    if cfg.exact.kind == "zero":
        return ZeroField()
    return HarmonicMonomial(n=cfg.exact.n, part=cfg.exact.part, dim=2)


def _meshes_for_levels(cfg: RunConfig):
    mesh = build_disk_mesh(cfg.geometry, cfg.sectors, level=cfg.levels[0])
    yield mesh
    current = cfg.levels[0]
    for lv in cfg.levels[1:]:
        for _ in range(lv - current):
            mesh = refine_uniform(mesh, cfg.geometry)
        current = lv
        yield mesh


def _solve_level(cfg: RunConfig, mesh: Mesh, exact, hmin_value: float | None) -> LevelRecord:
    problem = UcProblem(
        geometry=cfg.geometry,
        k=cfg.k,
        exact=exact,
        perturbation=cfg.perturbation,
        tikhonov_hmin=hmin_value,
    )
    sol = solve_uc(problem, mesh)
    primal, dual = sol.primal_space, sol.dual_space
    u_interp = interpolate_nodal(primal, exact)
    err_b = error_norms(primal, sol.u, exact, B_REGIONS)
    err_omega = error_norms(primal, sol.u, exact, [Region.OMEGA_DATA])
    tnorm = triple_norm(
        primal,
        dual,
        u_interp - sol.u,
        sol.z,
        sol.forms["S"],
        sol.forms["M_omega"],
        sol.forms["A0"],
    )
    resid = hminus1_residual(dual, primal, sol.u, A0=sol.forms["A0"], B=sol.forms["B"])
    l2_uh = error_norms(primal, sol.u, ZeroField(), ALL_REGIONS).l2
    return LevelRecord(
        level=mesh.level,
        h=float(mesh.h),
        n_dofs_primal=primal.n_dofs,
        n_dofs_dual=dual.n_dofs,
        err_l2_B=float(err_b.l2),
        err_l2_omega=float(err_omega.l2),
        err_h1semi_B=float(err_b.h1_semi),
        triple_norm=float(tnorm),
        residual_hminus1=float(resid),
        l2_Omega_of_uh=float(l2_uh),
        tik_scale=None if hmin_value is None else float(max(mesh.h, hmin_value)),
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


def _run_study(cfg: RunConfig, study: str, hmin_value: float | None = None) -> ConvergenceReport:
    """Solve every configured level and fit the rate columns; the calling
    study adds its own column, thresholds and verdicts to the report."""
    exact = exact_field_from_config(cfg)
    rows = [_solve_level(cfg, mesh, exact, hmin_value) for mesh in _meshes_for_levels(cfg)]
    window = cfg.resolved_rate_window()
    fitted, eoc = _fit_columns(rows, window)
    return ConvergenceReport(
        study=study,
        rows=rows,
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
    report = _run_study(cfg, "perturb")
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
        mono = HarmonicMonomial(n=cfg.exact.n, part=cfg.exact.part, dim=2)
        scale = monomial_sobolev_norm(mono, cfg.geometry.r3, cfg.k + 1)
    return (eps / scale) ** (1.0 / cfg.k)


def run_stagnation_study(cfg: RunConfig) -> ConvergenceReport:
    """Refine past the perturbation-dominated mesh size with the
    max(h, h_min) Tikhonov variant and verify the error stagnates."""
    alpha = optimal_alpha(*cfg.geometry.radii).alpha
    eps = cfg.perturbation.epsilon
    hmin_value = resolve_hmin(cfg)
    report = _run_study(cfg, "stagnate", hmin_value if hmin_value > 0 else None)
    rows = report.rows

    report.thresholds = {
        "stagnation_factor_bound": STAGNATION_FACTOR_BOUND,
        "plateau_decades": PLATEAU_DECADES,
    }
    verdicts = report.verdicts = {"h_min": float(hmin_value)}
    crossing = next((row for row in rows if row.h < hmin_value), None)
    if crossing is not None:
        factor = float(rows[-1].err_l2_B / crossing.err_l2_B)
        verdicts["crossing_level"] = crossing.level
        verdicts["stagnation_factor"] = factor
        verdicts["stagnated"] = bool(factor <= STAGNATION_FACTOR_BOUND)
        if cfg.exact.kind == "monomial":
            mono = HarmonicMonomial(n=cfg.exact.n, part=cfg.exact.part, dim=2)
            scale_ref = monomial_sobolev_norm(mono, cfg.geometry.r3, cfg.k + 1)
            reference = eps**alpha * scale_ref ** (1.0 - alpha)
            plateau = float(rows[-1].err_l2_B)
            verdicts["plateau"] = plateau
            verdicts["plateau_reference"] = float(reference)
            verdicts["plateau_within_decade"] = bool(
                plateau > 0 and abs(math.log10(plateau / reference)) <= PLATEAU_DECADES
            )
    return report


# --- report serialization ---------------------------------------------------

_BASE_COLUMNS = (
    "level",
    "h",
    "n_dofs_primal",
    "n_dofs_dual",
    "err_l2_B",
    "err_l2_omega",
    "err_h1semi_B",
    "triple_norm",
    "residual_hminus1",
    "l2_Omega_of_uh",
)
_INT_COLUMNS = {"level", "n_dofs_primal", "n_dofs_dual"}


def _report_columns(report: ConvergenceReport):
    cols = list(_BASE_COLUMNS)
    if report.study == "perturb":
        cols.append("sensitivity")
    if report.study == "stagnate":
        cols.append("tik_scale")
    return cols


def report_to_csv(report: ConvergenceReport) -> str:
    cols = _report_columns(report)
    lines = [",".join(cols)]
    for row in report.rows:
        cells = []
        for col in cols:
            val = getattr(row, col)
            if col in _INT_COLUMNS:
                cells.append(str(val))
            elif val is None:
                cells.append("")
            else:
                cells.append(f"{val:.12e}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_to_json(report: ConvergenceReport) -> str:
    cols = _report_columns(report)
    payload = {
        "study": report.study,
        "config": report.config_echo,
        "rate_window": list(report.rate_window),
        "columns": cols,
        "rows": [{col: getattr(row, col) for col in cols} for row in report.rows],
        "fitted_rates": report.fitted_rates,
        "eoc": report.eoc,
        "thresholds": report.thresholds,
        "verdicts": report.verdicts,
    }
    return json.dumps(payload, indent=2) + "\n"


# --- cross-oracle quadrature of monomial norms over a ball ------------------


def ball_norm_sq_quadrature(
    mesh: Mesh,
    geometry: Geometry,
    mono: HarmonicMonomial,
    circle: int,
    rule: TriangleRule | None = None,
    segment_order: int = 8,
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
    rule = rule or tri_rule_collapsed(max(2 * (mono.n - 1), 2))
    regions = {1: (Region.OMEGA_DATA,), 2: B_REGIONS, 3: ALL_REGIONS}[circle]
    rho = {1: geometry.r1, 2: geometry.r2, 3: geometry.r3}[circle]
    p = mono.n - 1

    elements = mesh.region_elements(regions)
    v = mesh.vertices
    t = mesh.triangles[elements]
    v0 = v[t[:, 0]]
    d1 = v[t[:, 1]] - v0
    d2 = v[t[:, 2]] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    ref = rule.points[:, 1:]
    pts = v0[:, None, :] + np.einsum("qa,eab->eqb", ref, np.stack([d1, d2], axis=1))
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

    tq, wq = gauss_rule_01(segment_order)
    theta = theta_lo[:, None] + span[:, None] * tq[None, :]
    r_chord = dist[:, None] / np.cos(theta - (theta_lo + 0.5 * span)[:, None])
    width = rho - r_chord  # (nc, nq)
    # radial Gauss points per (chord, theta)
    r = r_chord[:, :, None] + width[:, :, None] * tq[None, None, :]
    integrand = r ** (2 * p) * r  # f(r) * jacobian r
    radial = np.einsum("s,cqs->cq", wq, integrand) * width
    seg_part = float(np.einsum("q,cq,c->", wq, radial, span))

    return tri_part + seg_part

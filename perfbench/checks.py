"""Correctness checks on the outputs a workload wrote.

Every check takes plain numbers and arrays and returns a list of failure
messages, empty when the output passes.  References are computed here (the
two-point tree, the closed forms, the scans), not copied from earlier runs
of the program.  Boundary values read from CSV carry 6 significant digits;
unfound boundary levels are +inf.
"""
from __future__ import annotations

import math

import numpy as np

from carbonstop.solver import PriceGrid

# Relative rounding of a value printed with 6 significant digits.
CSV_REL = 1e-5


def cell_width(levels: np.ndarray, value: float) -> float:
    """Width of the grid cell at the first level at or above `value`, the
    acceptance suite's one-cell band."""
    return float(PriceGrid(levels).cell_width_at(int(np.searchsorted(levels, value))))


def tree_premium(y0: float, mu: float, sigma: float, p: float, horizon: int) -> float:
    """Root waiting premium U(0, y0) on the daily recombining two-point tree.

    One step moves the log-price by (mu - sigma^2/2) +/- sigma with equal
    probability; the running term uses the tree's own mean factor q.
    """
    up = math.exp(mu - 0.5 * sigma**2 + sigma)
    down = math.exp(mu - 0.5 * sigma**2 - sigma)
    q = 0.5 * (up + down)
    k = np.arange(horizon + 1, dtype=float)
    u = np.zeros(horizon + 1)
    for i in range(horizon - 1, -1, -1):
        y = y0 * down ** (i - k[: i + 1]) * up ** k[: i + 1]
        u = np.maximum(0.0, 0.5 * (u[:-1] + u[1:]) + (p - y * q ** (horizon - i)))
    return float(u[0])


def tree_b0(mu: float, sigma: float, p: float, horizon: int, tol: float,
            lo: float, hi: float) -> float:
    """Smallest y0 whose tree premium has fallen to `tol`, bisected to 1e-3."""
    def premium(y0):
        return tree_premium(y0, mu, sigma, p, horizon)

    if not premium(lo) > tol >= premium(hi):
        raise ValueError(f"[{lo}, {hi}] does not bracket the tree's b(0)")
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if premium(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def b0_matches_tree(b0: float, reference: float, levels: np.ndarray) -> list[str]:
    cell = cell_width(levels, reference)
    if abs(b0 - reference) <= cell:
        return []
    return [f"b(0)={b0:.4f} is more than one cell ({cell:.4f}) from the tree's {reference:.4f}"]


def on_grid(values: np.ndarray, levels: np.ndarray) -> list[str]:
    """Every found b(t) is a level of the grid the solve's parameters give."""
    found = values[np.isfinite(values)]
    j = np.clip(np.searchsorted(levels, found), 1, len(levels) - 1)
    nearest = np.minimum(abs(levels[j] - found), abs(levels[j - 1] - found))
    off = found[nearest > CSV_REL * found]
    if not len(off):
        return []
    return [f"{len(off)} boundary values are not grid levels, first {off[0]:.6g}"]


def terminal_at_p(values: np.ndarray, p: float, levels: np.ndarray) -> list[str]:
    cell = cell_width(levels, p)
    if abs(values[-1] - p) <= cell:
        return []
    return [f"b(T)={values[-1]:.4f} is more than one cell ({cell:.4f}) from P={p}"]


def above_lower_bound(times: np.ndarray, values: np.ndarray, lower: np.ndarray,
                      levels: np.ndarray) -> list[str]:
    """Every found b(t) at or above the guarantee `lower` less one cell."""
    out = []
    for t, b, lb in zip(times, values, lower):
        if math.isfinite(b) and b < lb - cell_width(levels, b):
            out.append(f"b({t:g})={b:.4f} lies more than one cell below P*exp(-mu(T-t))={lb:.4f}")
    return out


def closed_form_matches(times: np.ndarray, values: np.ndarray, closed: np.ndarray,
                        levels: np.ndarray) -> list[str]:
    """A sigma=0 boundary equals P*exp(-mu(T-t)) within one cell at every t."""
    out = []
    for t, b, c in zip(times, values, closed):
        if not abs(b - c) <= cell_width(levels, c):
            out.append(f"sigma=0: b({t:g})={b:.4f} is not within one cell of {c:.4f}")
    return out


def upgrade_consistent(times: np.ndarray, before: np.ndarray, after: np.ndarray,
                       before_rows: list, after_rows: list, composite_rows: list,
                       day: float) -> list[str]:
    """after >= before everywhere and strictly somewhere; the composite takes
    the before rows until the switch day and the after rows from it on."""
    out = []
    if np.any(after < before):
        t = times[np.argmax(after < before)]
        out.append(f"upgraded boundary falls below the original at t={t:g}")
    if not np.any(after > before):
        out.append("upgraded boundary never rises above the original")
    for t, b, a, c in zip(times, before_rows, after_rows, composite_rows):
        if c != (a if t >= day else b):
            out.append(f"composite row at t={t:g} is not stitched at day {day:g}")
            break
    return out


def surface_monotone_in_p(B: np.ndarray) -> list[str]:
    """Each time row of B(t, p) is nondecreasing across increasing p."""
    bad = np.argwhere(np.diff(B, axis=1) < 0)
    if not len(bad):
        return []
    i, j = bad[0]
    return [f"surface falls as P rises at row {i}, columns {j} and {j + 1} ({len(bad)} pairs)"]


def surface_decays(B: np.ndarray) -> list[str]:
    """B(T, p) < B(0, p) in every column."""
    bad = np.nonzero(~(B[-1] < B[0]))[0]
    if not len(bad):
        return []
    return [f"B(T) >= B(0) in {len(bad)} columns, first column {bad[0]}"]


def min_survival_matches(row: np.ndarray, p_values: np.ndarray, y: float,
                         reported) -> list[str]:
    """The smallest swept P whose boundary sits strictly above y."""
    above = np.nonzero(row > y)[0]
    expected = float(p_values[above[0]]) if len(above) else None
    if reported == expected:
        return []
    return [f"min_survival_p={reported} but the surface row gives {expected}"]


def crossing_matches(values: np.ndarray, prices, reported) -> list[str]:
    """The first day whose price reaches the boundary, or None.

    A price within the CSV rounding of its boundary value may fall either
    side, so such a day is accepted as crossed or not.
    """
    n = min(len(prices), len(values))
    for i in range(n):
        b, y = values[i], prices[i]
        near = math.isfinite(b) and abs(y - b) <= CSV_REL * b
        if reported == i and (near or y >= b):
            return []
        if not near and y >= b:
            return [f"crossing index {reported} but price {y:.4f} reaches b={b:.4f} on day {i}"]
    if reported is None:
        return []
    return [f"crossing index {reported} but no price reaches the boundary there"]


def calibration_within_se(mu_hat: float, sigma_hat: float, log_drift: float,
                          sigma: float, n: int) -> list[str]:
    """Estimated daily log-drift and volatility within 3 standard errors of
    the generating values, for n returns."""
    out = []
    se_mu = sigma / math.sqrt(n)
    se_sigma = sigma / math.sqrt(2 * (n - 1))
    if not abs(mu_hat - log_drift) <= 3 * se_mu:
        out.append(f"mu={mu_hat:.6f} is more than 3 SE ({se_mu:.6f}) from {log_drift:.6f}")
    if not abs(sigma_hat - sigma) <= 3 * se_sigma:
        out.append(f"sigma={sigma_hat:.6f} is more than 3 SE ({se_sigma:.6f}) from {sigma:.6f}")
    return out

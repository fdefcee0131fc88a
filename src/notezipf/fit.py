"""Fit the one-parameter rank law n(r) = 1/(a + b*r)**z to a rank table.

The law has a single free exponent: writing nu = 1/z, the occurrence cap n0
is pinned by the corpus totals through

    T/V = nu * (n0**(1-nu) - 1) / ((1-nu) * (1 - n0**(-nu)))

and the coefficients follow as a = 1/n0**nu, b = (1 - a)/V, so a + b*V = 1
and the predicted count at the last rank is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateTable, DomainError, NoRoot, NonConvergence
from .numerics import bisect, chi_square_sf, golden_minimize
from .stats import RankTable

NU_LOWER = 0.02
NU_UPPER = 0.98
_GRID_STEP = 0.01
_REFINE_TOL = 1e-4
_BOUNDARY_MARGIN = 1e-3
_NU_LIMIT_SWITCH = 1e-6


@dataclass(frozen=True)
class SimonFit:
    """Fitted rank-law parameters and goodness of fit for one table."""

    nu: float
    z: float
    n0: float
    a: float
    b: float
    sse_log: float
    chi2: float
    dof: int
    p_value: float
    boundary_warning: bool


def _tv_ratio(log_n0: float, nu: float) -> float:
    """Continuum T/V implied by n0 = exp(log_n0) at exponent nu."""
    if log_n0 <= 0.0:
        return 1.0
    s = 1.0 - nu
    if s < _NU_LIMIT_SWITCH:
        # series limit as nu -> 1: expm1(s*L)/s -> L, with enough correction
        # terms kept that the branches join well inside 1e-6 relative
        sl = s * log_n0
        series = log_n0 * (1.0 + sl / 2.0 + sl * sl / 6.0)
        return nu * series / -math.expm1(-nu * log_n0)
    if s * log_n0 > 700.0:
        return math.inf
    return nu * math.expm1(s * log_n0) / (s * -math.expm1(-nu * log_n0))


def solve_n0(T: float, V: float, nu: float) -> float:
    """Occurrence cap n0 > 1 satisfying the T/V relation at exponent nu.

    The relation's left side is monotone increasing in n0 and tends to 1 as
    n0 -> 1+, so a corpus with T <= V admits no cap; that case raises NoRoot.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must lie in (0, 1), got {nu}")
    if V < 2 or T < V:
        raise DomainError(f"need T >= V >= 2, got T={T}, V={V}")
    target = T / V
    if target <= 1.0:
        raise NoRoot(f"T/V = {target} <= 1: every count is 1, no cap above 1 exists")
    lo = 1e-12
    hi = 1.0
    for _ in range(100):
        if _tv_ratio(hi, nu) >= target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NonConvergence("could not bracket the occurrence cap")
    log_root = bisect(lambda log_n0: _tv_ratio(log_n0, nu) - target, lo, hi, rel_tol=1e-14)
    return math.exp(log_root)


def coefficients(n0: float, V: float, nu: float) -> tuple[float, float]:
    """Offset a = 1/n0**nu and slope b = (1 - a)/V; a + b*V = 1 by construction."""
    if n0 < 1.0:
        raise DomainError(f"n0 must be >= 1, got {n0}")
    a = math.exp(-nu * math.log(n0)) if n0 > 1.0 else 1.0
    b = (1.0 - a) / V
    return a, b


def _predict(r: float, a: float, b: float, z: float) -> float:
    return math.exp(-z * math.log(a + b * r))


def predict_n(r: float, fit: SimonFit) -> float:
    """Predicted occurrence count at rank r (r = 0 gives n0, r = V gives 1)."""
    return _predict(r, fit.a, fit.b, fit.z)


def _sse_log(log_counts: list[float], a: float, b: float, z: float) -> float:
    return math.fsum(
        (obs + z * math.log(a + b * r)) ** 2
        for r, obs in enumerate(log_counts, start=1)
    )


def _sse_linear(counts: list[int], a: float, b: float, z: float) -> float:
    return math.fsum(
        (c - _predict(r, a, b, z)) ** 2 for r, c in enumerate(counts, start=1)
    )


def fit_nu(table: RankTable, residuals: str = "log") -> SimonFit:
    """Least-squares fit of the rank law with nu as the only free parameter.

    For every trial nu the cap n0 and the coefficients a, b are recomputed
    from (T, V, nu), so the curve always passes through n(V) = 1.  Residuals
    are taken in log space by default (the data spans decades); pass
    residuals="linear" for plain residuals.  The search runs a coarse grid
    over [0.02, 0.98] followed by golden-section refinement.
    """
    if residuals not in ("log", "linear"):
        raise ValueError(f"residuals must be 'log' or 'linear', got {residuals!r}")
    counts = table.counts()
    V, T = table.V, table.T
    if V < 3:
        raise DegenerateTable(f"need at least 3 distinct tokens to fit, got {V}")
    if counts[0] == counts[-1]:
        raise DegenerateTable("all counts equal; the table carries no rank structure")
    log_counts = [math.log(c) for c in counts]

    def objective(nu: float) -> float:
        try:
            n0 = solve_n0(T, V, nu)
        except OverflowError:
            # the cap exceeds the float range at this nu (extreme T/V): no curve
            return math.inf
        a, b = coefficients(n0, V, nu)
        z = 1.0 / nu
        if residuals == "log":
            return _sse_log(log_counts, a, b, z)
        return _sse_linear(counts, a, b, z)

    grid = []
    nu = NU_LOWER
    while nu < NU_UPPER + _GRID_STEP / 2.0:
        grid.append(round(nu, 6))
        nu += _GRID_STEP
    values = [objective(g) for g in grid]
    k = min(range(len(grid)), key=values.__getitem__)
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    nu_hat = golden_minimize(objective, lo, hi, x_tol=_REFINE_TOL)
    if objective(nu_hat) > values[k]:
        nu_hat = grid[k]

    n0 = solve_n0(T, V, nu_hat)
    a, b = coefficients(n0, V, nu_hat)
    z = 1.0 / nu_hat
    chi2, dof, p_value = chi_square_gof(counts, a, b, z)
    return SimonFit(
        nu=nu_hat,
        z=z,
        n0=n0,
        a=a,
        b=b,
        sse_log=_sse_log(log_counts, a, b, z),
        chi2=chi2,
        dof=dof,
        p_value=p_value,
        boundary_warning=(
            nu_hat - NU_LOWER < _BOUNDARY_MARGIN or NU_UPPER - nu_hat < _BOUNDARY_MARGIN
        ),
    )


def chi_square_gof(counts: list[int], a: float, b: float, z: float) -> tuple[float, int, float]:
    """Pearson chi-square of observed counts against the curve (a, b, z).

    Returns (chi2, dof, p_value) with dof = V - 2: one fitted exponent plus
    the constraint the corpus total imposes through the cap.
    """
    chi2 = math.fsum(
        (c - pred) ** 2 / pred
        for r, c in enumerate(counts, start=1)
        for pred in (_predict(r, a, b, z),)
    )
    dof = len(counts) - 2
    return chi2, dof, chi_square_sf(chi2, dof)

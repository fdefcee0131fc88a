"""Fit the one-parameter rank law n(r) = 1/(a + b*r)**z to a rank table.

The law has a single free exponent: writing nu = 1/z, the occurrence cap n0
is pinned by the corpus totals through

    T/V = nu * (n0**(1-nu) - 1) / ((1-nu) * (1 - n0**(-nu)))

and the coefficients follow as a = 1/n0**nu, b = (1 - a)/V, so a + b*V = 1
and the predicted count at the last rank is exactly 1.

The search objective sums each long run of equal counts by Euler-Maclaurin
(see _run_sse_log), so one evaluation costs O(runs) rather than O(V); the
reported sse_log and chi-square are direct per-rank sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator

from .errors import DegenerateTable, DomainError, NoRoot
from .numerics import chi_square_sf, golden_minimize
from .stats import RankTable

NU_LOWER = 0.02
NU_UPPER = 0.98
_GRID_STEP = 0.01
_REFINE_TOL = 1e-4
_BOUNDARY_MARGIN = 1e-3
# Runs of at least this many ranks with one count are summed by Euler-Maclaurin.
_RUN_MIN = 32
# Euler-Maclaurin end terms, one per j = 1..4: B_2j / (2j (2j - 1)) and the
# harmonic number H_(2j-2) (see _run_sse_log)
_EM_TERMS = ((1 / 12, 0.0), (-1 / 360, 3 / 2), (1 / 1260, 25 / 12), (-1 / 1680, 49 / 20))
_FLOAT_RANGE = f"the float range (up to {sys.float_info.max:.4g})"


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
    """Continuum T/V implied by n0 = exp(log_n0) > 1 at exponent nu."""
    s = 1.0 - nu
    if s * log_n0 > 700.0:
        return math.inf
    return nu * math.expm1(s * log_n0) / (s * -math.expm1(-nu * log_n0))


def solve_n0(T: float, V: float, nu: float) -> float:
    """Occurrence cap n0 > 1 satisfying the T/V relation at exponent nu.

    The relation's left side is monotone increasing in n0 and tends to 1 as
    n0 -> 1+, so a corpus with T <= V admits no cap; that case raises NoRoot.
    log n0 is bracketed in [1e-12, 2**63], where the ratio is inf for any nu,
    and halved to a relative width of 1e-14.  Below T/V = 1 + 5e-13 the root
    lies under the bracket, and n0 = exp(1e-12) is returned.
    """
    if not 1e-295 <= nu < 1.0:  # so nu * 1e-12 is a normal float
        raise DomainError(f"nu must lie in [1e-295, 1), got {nu}")
    if not math.inf > T >= V >= 2:  # a NaN T or V fails this too
        raise DomainError(f"need finite T >= V >= 2, got T={T}, V={V}")
    try:
        target = T / V
    except OverflowError:
        raise DomainError(f"T/V exceeds {_FLOAT_RANGE}") from None
    if target <= 1.0:
        raise NoRoot(f"T/V = {target} <= 1: every count is 1, no cap above 1 exists")
    lo = 1e-12
    hi = 1.0
    while (ratio := _tv_ratio(hi, nu)) < target:
        lo = hi
        hi *= 2.0
    log_root = hi
    while ratio != target:
        if ratio < target:
            lo = log_root
        else:
            hi = log_root
        log_root = 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * log_root:
            break
        ratio = _tv_ratio(log_root, nu)
    try:
        return math.exp(log_root)
    except OverflowError:
        raise DomainError(
            f"occurrence cap exp({log_root:.6g}) at nu={nu} exceeds {_FLOAT_RANGE}"
        ) from None


def coefficients(n0: float, V: float, nu: float) -> tuple[float, float]:
    """Offset a = 1/n0**nu and slope b = (1 - a)/V; a + b*V = 1 by construction."""
    if not n0 >= 1.0:
        raise DomainError(f"n0 must be >= 1, got {n0}")
    a = math.exp(-nu * math.log(n0))
    b = (1.0 - a) / V
    return a, b


def predict_n(r: float, fit: SimonFit) -> float:
    """Predicted occurrence count at rank r (r = 0 gives n0, r = V gives 1)."""
    return math.exp(-fit.z * math.log(fit.a + fit.b * r))


def _log_curve(V: int, a: float, b: float) -> Iterator[float]:
    """log(a + b*r) at ranks r = 1..V, computed as predict_n and _sse_log compute it."""
    return (math.log(a + b * r) for r in range(1, V + 1))


def _curve(log_curve: Iterable[float], z: float) -> Iterator[float]:
    """The law's count exp(-z*u) for each u that _log_curve gives, as predict_n has it."""
    return (math.exp(-z * u) for u in log_curve)


def predicted_counts(fit: SimonFit, V: int) -> list[float]:
    """predict_n at ranks 1..V, float for float."""
    return list(_curve(_log_curve(V, fit.a, fit.b), fit.z))


def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    rule = []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, prev = x, 1.0
            for k in range(2, n + 1):
                p, prev = ((2 * k - 1) * x * p - (k - 1) * prev) / k, p
            slope = n * (x * p - prev) / (x * x - 1.0)
            step = p / slope
            x -= step
            if abs(step) <= 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


_GAUSS = _gauss_legendre(16)


def _run_sse_log(obs: float, r1: int, r2: int, a: float, b: float, z: float) -> list[float]:
    """Terms whose sum is the log-SSE of ranks r1..r2, which share log count obs.

    With g(r) = (obs + z*log(a + b*r))**2 the run's sum is, by Euler-Maclaurin,
    the integral of g over [r1, r2] plus (g(r1) + g(r2))/2 plus end terms in
    the odd derivatives of g.  For q = b/(a + b*r) and e = sqrt(g),
    g^(2j-1)(r) = 2z (2j-2)! q**(2j-1) (e - z H_(2j-2)), so each end term is
    2z q**(2j-1) (e - z H_(2j-2)) B_2j / (2j (2j-1)).  The integral is taken
    by Gauss-Legendre, which needs log(a + b*x) analytic well beyond the run:
    callers keep r2 - r1 <= 2 (a/b + r1).  Then q <= 1/15.5 once the run has
    _RUN_MIN ranks, and four end terms leave under 1e-14 of the sum.
    """
    half = 0.5 * (r2 - r1)
    mid = r1 + half
    terms = [
        half * w * (obs + z * math.log(a + b * (mid + half * x))) ** 2 for x, w in _GAUSS
    ]
    for r, sign in ((r1, -1.0), (r2, 1.0)):
        u = a + b * r
        e = obs + z * math.log(u)
        q = b / u
        terms.append(0.5 * e * e)
        q2 = q * q
        power = 2.0 * z * q * sign
        for coef, harmonic in _EM_TERMS:
            terms.append(power * coef * (e - z * harmonic))
            power *= q2
    return terms


def _sse_log(
    ranked: Iterable[tuple[int, float]],
    runs: list[tuple[float, int, int]],
    a: float,
    b: float,
    z: float,
) -> float:
    """Log-space SSE over (rank, log count) pairs and (log count, r1, r2) runs.

    The pairs are summed rank by rank.  Each run is cut into pieces that
    reach at most 2 (a/b + r) ranks past their first rank r, as _run_sse_log
    needs; a piece shorter than _RUN_MIN is summed rank by rank too.  With
    no runs this is the plain per-rank sum.
    """
    c = a / b if b > 0.0 else math.inf
    parts = [(obs + z * math.log(a + b * r)) ** 2 for r, obs in ranked]
    for obs, r1, r2 in runs:
        r = r1
        while r <= r2:
            reach = 2.0 * (c + r)
            end = r2 if reach >= r2 - r else r + int(reach)
            if end - r + 1 < _RUN_MIN:
                parts.extend((obs + z * math.log(a + b * s)) ** 2 for s in range(r, end + 1))
            else:
                parts.extend(_run_sse_log(obs, r, end, a, b, z))
            r = end + 1
    return math.fsum(parts)


def _sse_linear(counts: list[int], a: float, b: float, z: float) -> float:
    curve = _curve(_log_curve(len(counts), a, b), z)
    try:
        return math.fsum((c - p) ** 2 for c, p in zip(counts, curve))
    except OverflowError:
        raise DomainError(f"linear sum of squared residuals exceeds {_FLOAT_RANGE}") from None


def fit_nu(table: RankTable, residuals: str = "log") -> SimonFit:
    """Least-squares fit of the rank law with nu as the only free parameter.

    For every trial nu the cap n0 and the coefficients a, b are recomputed
    from (T, V, nu), so the curve always passes through n(V) = 1.  Residuals
    are taken in log space by default (the data spans decades); pass
    residuals="linear" for plain residuals.  The search runs a coarse grid
    over [0.02, 0.98] followed by golden-section refinement; in log space it
    sums each run of _RUN_MIN or more equal counts by Euler-Maclaurin.
    sse_log, chi2 and p_value are per-rank sums at the chosen nu.
    """
    if residuals not in ("log", "linear"):
        raise ValueError(f"residuals must be 'log' or 'linear', got {residuals!r}")
    counts = table.counts()
    V, T = table.V, table.T
    if V < 3:
        raise DegenerateTable(f"need at least 3 distinct tokens to fit, got {V}")
    if len(table.runs) == 1:
        raise DegenerateTable("all counts equal; the table carries no rank structure")
    ranked, runs = [], []
    r = 1
    for count, n in table.runs:
        obs = math.log(count)
        if n < _RUN_MIN:
            ranked.extend((s, obs) for s in range(r, r + n))
        else:
            runs.append((obs, r, r + n - 1))
        r += n

    def objective(nu: float) -> float:
        try:
            n0 = solve_n0(T, V, nu)
        except DomainError:
            # T, V and nu are in solve_n0's domain here, so the cap or T/V
            # exceeds the float range at this nu (extreme T/V): no curve
            return math.inf
        a, b = coefficients(n0, V, nu)
        z = 1.0 / nu
        if residuals == "log":
            return _sse_log(ranked, runs, a, b, z)
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
    # the closing per-rank sums share log(a + b*r), and take log(count) once
    # per run; besides that one list they hold no list of V terms
    log_curve = list(_log_curve(V, a, b))
    observed = chain.from_iterable(repeat(math.log(count), n) for count, n in table.runs)
    sse_log = math.fsum((obs + z * u) ** 2 for obs, u in zip(observed, log_curve))
    chi2, dof, p_value = _chi_square(counts, _curve(log_curve, z))
    return SimonFit(
        nu=nu_hat,
        z=z,
        n0=n0,
        a=a,
        b=b,
        sse_log=sse_log,
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
    return _chi_square(counts, _curve(_log_curve(len(counts), a, b), z))


def _chi_square(counts: list[int], curve: Iterable[float]) -> tuple[float, int, float]:
    """chi_square_gof with the predicted counts given by rank, as _curve gives them."""
    try:
        chi2 = math.fsum((c - p) ** 2 / p for c, p in zip(counts, curve))
    except OverflowError:
        raise DomainError(f"chi-square statistic exceeds {_FLOAT_RANGE}") from None
    dof = len(counts) - 2
    return chi2, dof, chi_square_sf(chi2, dof)

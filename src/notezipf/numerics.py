"""Self-contained numeric kernels: chi-square tail, golden-section
minimization, and least squares on log-log data.

No third-party numerics are used; the contracts here are small enough that an
in-repo implementation is easier to pin down bit-for-bit than a dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError, InsufficientSupport, NonConvergence

_EPS = 2.220446049250313e-16
_FPMIN = 1e-300


def _gamma_q_series(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) via the P series (DLMF 8.11.4)."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(600 + 10 * math.isqrt(int(a))):  # near x = a it takes about 8.6 sqrt(a)
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
            return min(max(1.0 - p, 0.0), 1.0)
    raise NonConvergence("incomplete gamma series did not converge")


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Q(a, x) via continued fraction, evaluated with modified Lentz."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, 600 + 10 * math.isqrt(int(a))):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            q = h * math.exp(-x + a * math.log(x) - math.lgamma(a))
            return min(max(q, 0.0), 1.0)
    raise NonConvergence("incomplete gamma continued fraction did not converge")


def chi_square_sf(x: float, k: float) -> float:
    """Upper-tail probability P(X >= x) for a chi-square variable with k dof.

    Equals Q(k/2, x/2) with Q the regularized upper incomplete gamma; the
    series branch is used for x < k + 1 and the continued fraction beyond.
    """
    if not x >= 0.0:  # a NaN x or k fails these too
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    if not math.inf > k >= 1:
        raise DomainError(f"degrees of freedom must be finite and >= 1, got {k}")
    if x == 0.0:
        return 1.0
    if x == math.inf:  # the tail is exactly 0; the continued fraction never settles there
        return 0.0
    a = k / 2.0
    xg = x / 2.0
    if x < k + 1.0:
        return _gamma_q_series(a, xg)
    return _gamma_q_contfrac(a, xg)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_minimize(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    x_tol: float = 1e-6,
) -> float:
    """Golden-section minimum of a unimodal g on [lo, hi], to width x_tol.

    Only ever evaluates g strictly inside [lo, hi].
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
    h = b - a
    if h <= x_tol:
        return 0.5 * (a + b)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = g(c)
    yd = g(d)
    while h > x_tol:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = g(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = g(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    intercept: float
    stderr: float


def loglog_ols(points: Sequence[tuple[float, float]]) -> LogLogFit:
    """Ordinary least squares of ln(y) on ln(x).

    Returns the slope, intercept, and the standard error of the slope
    (zero when the points lie exactly on a power law).
    """
    if len(points) < 3:
        raise InsufficientSupport(f"need >= 3 points, got {len(points)}")
    for x, y in points:
        if x <= 0.0 or y <= 0.0:
            raise DomainError(f"log-log fit needs positive coordinates, got ({x}, {y})")
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    n = len(points)
    mx = math.fsum(lx) / n
    my = math.fsum(ly) / n
    sxx = math.fsum((u - mx) ** 2 for u in lx)
    if sxx == 0.0:
        raise DomainError("all abscissae equal; slope undefined")
    sxy = math.fsum((u - mx) * (v - my) for u, v in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual_ss = math.fsum((v - (intercept + slope * u)) ** 2 for u, v in zip(lx, ly))
    stderr = math.sqrt(max(residual_ss, 0.0) / (n - 2) / sxx)
    return LogLogFit(slope=slope, intercept=intercept, stderr=stderr)

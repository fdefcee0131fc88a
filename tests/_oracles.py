"""Independent oracles used to compute expected test values.

Everything here is deliberately written against the underlying definitions
(density integrals, direct enumeration, forward evaluation of the rank law)
rather than against the package's own code paths, so a bug in the library
cannot hide behind an oracle that shares it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _simpson(f, a: float, b: float) -> float:
    return (b - a) / 6.0 * (f(a) + 4.0 * f((a + b) / 2.0) + f(b))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, depth: int = 60) -> float:
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance tol."""

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = (a + b) / 2.0
        lm, rm = (a + m) / 2.0, (m + b) / 2.0
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + recurse(
            m, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    m = (a + b) / 2.0
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, depth)


def chi_square_pdf(t: float, k: float) -> float:
    if t <= 0.0:
        return 0.0
    half = k / 2.0
    return math.exp((half - 1.0) * math.log(t) - t / 2.0 - half * math.log(2.0) - math.lgamma(half))


def chi_square_sf_quadrature(x: float, k: float, tol: float = 1e-13) -> float:
    """Upper-tail chi-square probability by direct integration of the density.

    Integrates from x out to a point where the remaining tail is below 1e-16;
    for t >= max(4k, x, 60) the density is dominated by exp(-t/4), so the
    truncation point below is far more than enough.  The interval is split at
    breakpoints around the density's mode (k - 2) before handing each panel to
    the adaptive rule, because a single panel whose endpoints all sit in the
    flat tails would otherwise terminate immediately and miss the bump.
    """
    if x <= 0.0:
        return 1.0
    upper = max(4.0 * k, x, 60.0) + 600.0
    breaks = sorted({x} | {b for b in (k / 2.0, k, 2.0 * k, 4.0 * k, upper / 2.0) if x < b < upper})
    breaks.append(upper)
    total = 0.0
    lo = breaks[0]
    for hi in breaks[1:]:
        total += adaptive_simpson(lambda t: chi_square_pdf(t, k), lo, hi, tol=tol)
        lo = hi
    return total


def exact_ols_slope(xs, ys):
    """Plain least-squares slope of ys on xs, written out long-hand."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def rank_law_counts(nu: float, V: int, n0: float) -> list[int]:
    """Forward-evaluate the rank law and round to integer counts >= 1.

    Written directly from the closed form (a = 1/n0**nu, b = (1-a)/V,
    n(r) = (a + b*r)**(-1/nu)) rather than through the package, so recovery
    tests exercise generation and fitting as independent routes.
    """
    a = n0 ** (-nu)
    b = (1.0 - a) / V
    z = 1.0 / nu
    return [max(1, math.floor((a + b * r) ** (-z) + 0.5)) for r in range(1, V + 1)]


def enumerate_simon_distribution(steps: int, innovation_probs, rule: str):
    """Exact output distribution of a tiny Simon process, by full enumeration.

    innovation_probs maps step t (2-based) to a Fraction; step 1 always
    introduces token 1.  rule is "uniform-history" (pick a uniformly random
    earlier position and copy its token) or "count-proportional" (pick an
    existing token with probability count/(t-1)).  Returns a dict mapping
    each possible token sequence (tuple of ids in order of first appearance)
    to its exact probability.
    """
    if rule not in ("uniform-history", "count-proportional"):
        raise ValueError(rule)
    dist: dict[tuple[int, ...], Fraction] = {}

    def recurse(seq: tuple[int, ...], prob: Fraction) -> None:
        t = len(seq) + 1
        if t > steps:
            dist[seq] = dist.get(seq, Fraction(0)) + prob
            return
        p_new = Fraction(innovation_probs[t])
        if p_new > 0:
            recurse(seq + (max(seq) + 1,), prob * p_new)
        p_old = 1 - p_new
        if p_old > 0:
            if rule == "uniform-history":
                for j in range(len(seq)):
                    recurse(seq + (seq[j],), prob * p_old / len(seq))
            else:
                counts: dict[int, int] = {}
                for tok in seq:
                    counts[tok] = counts.get(tok, 0) + 1
                for tok, c in counts.items():
                    recurse(seq + (tok,), prob * p_old * Fraction(c, len(seq)))

    recurse((1,), Fraction(1))
    return dist


def direct_log_sse(log_count: float, r1: int, r2: int, a: float, b: float, z: float) -> float:
    """Log-space SSE of ranks r1..r2 against n(r) = (a + b*r)**(-z), rank by rank.

    Every rank shares the observed log count, as in one run of equal counts.
    """
    return math.fsum((log_count + z * math.log(a + b * r)) ** 2 for r in range(r1, r2 + 1))


def lgamma_log_sum(r1: int, r2: int, a: float, b: float) -> float:
    """Sum of log(a + b*r) over r = r1..r2 in closed form.

    With c = a/b, the product of (c + r) over the run is
    Gamma(c + r2 + 1) / Gamma(c + r1), so the sum is
    n*log(b) + lgamma(c + r2 + 1) - lgamma(c + r1).  The two lgamma values
    are large and nearly cancel when c dwarfs the run, so this form is only
    accurate for moderate c.
    """
    c = a / b
    return (r2 - r1 + 1) * math.log(b) + math.lgamma(c + r2 + 1) - math.lgamma(c + r1)

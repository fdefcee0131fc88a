"""Generative token-stream simulator with preferential reuse.

Each step either introduces a new token or repeats one drawn from the history
so far.  Drawing a uniformly random *position* of the history makes the reuse
probability of a token proportional to its current count, in O(1) per step.

Two innovation schedules are provided:

* constant: a new token appears with fixed probability alpha at every step,
  so the vocabulary grows linearly in expectation.
* sublinear: a new token appears with probability min(1, nu * t**(nu-1)) at
  step t, the differential form of V ~ T**nu.

Reproducibility contract: the generator is SplitMix64 (Steele, Lea & Flood's
64-bit mixer), consuming one draw for the innovation decision and, only on
reuse steps, one more for the history index.  Identical (mode, parameter,
steps, seed) therefore produce byte-identical streams on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import analyze_tokens
from .errors import InsufficientSupport

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator; the algorithm identity is part of the contract."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_index(self, n: int) -> int:
        """Uniform integer in [0, n) by 64-bit multiply-shift."""
        return (self.next_u64() * n) >> 64


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run."""

    mode: str
    steps: int
    seed: int
    alpha: float | None = None
    nu: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("constant", "sublinear"):
            raise ValueError(f"mode must be 'constant' or 'sublinear', got {self.mode!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.mode == "constant":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ValueError(f"constant mode needs alpha in [0, 1], got {self.alpha}")
        else:
            if self.nu is None or not 0.0 < self.nu < 1.0:
                raise ValueError(f"sublinear mode needs nu in (0, 1), got {self.nu}")

    def to_dict(self) -> dict:
        out = {"mode": self.mode, "steps": self.steps, "seed": self.seed}
        if self.mode == "constant":
            out["alpha"] = self.alpha
        else:
            out["nu"] = self.nu
        return out


@dataclass(frozen=True)
class SimResult:
    """Generated stream; ids are dense integers in order of first appearance."""

    tokens: tuple[int, ...]
    V: int

    @property
    def T(self) -> int:
        return len(self.tokens)


def simulate(config: SimConfig) -> SimResult:
    """Run the process; step 1 always introduces token 1."""
    rng = SplitMix64(config.seed)
    tokens = [1]
    v = 1
    constant = config.mode == "constant"
    alpha = config.alpha if constant else 0.0
    nu = config.nu if not constant else 0.0
    for t in range(2, config.steps + 1):
        p_new = alpha if constant else min(1.0, nu * float(t) ** (nu - 1.0))
        if rng.next_float() < p_new:
            v += 1
            tokens.append(v)
        else:
            tokens.append(tokens[rng.next_index(t - 1)])
    return SimResult(tokens=tuple(tokens), V=v)


@dataclass(frozen=True)
class ZipfReport:
    """Exponent estimates for one simulated stream."""

    gamma_hat: float
    z_hat: float
    nu_hat: float
    V: int
    T: int
    boundary_warning: bool


def verify_zipf(result: SimResult, n_max: int | None = None) -> ZipfReport:
    """Run a simulated stream through the full statistics pipeline.

    Reports the spectrum exponent gamma_hat, the fitted vocabulary-growth
    exponent nu_hat, the implied rank exponent z_hat = 1/nu_hat, and the
    rank-law fit's boundary_warning (nu_hat at its search bounds).  When
    n_max is None the spectrum window adapts to the corpus via
    dense_spectrum_window, so small vocabularies are fit on their dense bins.
    Raises InsufficientSupport below 50 distinct tokens and the estimator's
    own exception when the spectrum or rank-law fit cannot run.
    """
    if result.V < 50:
        raise InsufficientSupport(f"need at least 50 distinct tokens, got {result.V}")
    analysis = analyze_tokens(result.tokens, n_max=n_max)
    # a failed spectrum fit is reported ahead of a failed rank-law fit
    for error in (analysis.gamma_error, analysis.fit_error):
        if error is not None:
            raise error
    return ZipfReport(
        gamma_hat=analysis.gamma.slope,
        z_hat=analysis.fit.z,
        nu_hat=analysis.fit.nu,
        V=analysis.table.V,
        T=analysis.table.T,
        boundary_warning=analysis.fit.boundary_warning,
    )

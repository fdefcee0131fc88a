"""Generative token-stream simulator with preferential reuse.

Each step either introduces a new token or repeats one drawn from the history
so far.  Drawing a uniformly random *position* of the history makes the reuse
probability of a token proportional to its current count, in O(1) per step.

Two innovation schedules are provided:

* constant: a new token appears with fixed probability alpha at every step,
  so the vocabulary grows linearly in expectation.
* sublinear: a new token appears with probability nu * t**(nu-1) at step
  t, the differential form of V ~ T**nu.

Reproducibility contract: the generator is SplitMix64 (Steele, Lea & Flood's
64-bit mixer), consuming one draw for the innovation decision and, only on
reuse steps, one more for the history index.  Identical (mode, parameter,
steps, seed) therefore produce byte-identical streams on any platform.

SplitMix64's k-th output (k = 1, 2, ...) is mix(seed + k*gamma mod 2**64), a
pure function of k.  So the outputs are computed a block at a time, as the
128-bit lanes of one Python int, and the draw order is unchanged.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain

from .analysis import Analysis, analyze_tokens
from .errors import InsufficientSupport

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 1 << 12  # draws per block; as fast as 2**14 or 2**16, and smaller


def _pack(words) -> int:
    """The int whose 128-bit lanes hold words, the first in the lowest lane."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")


@cache
def _lane_constants() -> tuple[int, int, int]:
    """Per lane i: i*gamma mod 2**64, then 1, then 2**64 - 1.

    Built on the first draw, not at import, so commands that never simulate
    do not pay for them.
    """
    ones = _pack([1] * _LANES)
    return _pack(i * _GAMMA & _MASK64 for i in range(_LANES)), ones, ones * _MASK64


def _u64_blocks(seed: int) -> Iterator[array]:
    steps, ones, low = _lane_constants()
    state = seed & _MASK64  # the state before the block's first draw
    while True:
        z = (steps + ((state + _GAMMA) & _MASK64) * ones) & low
        # Mask every lane to 64 bits before it multiplies: the shifts pull the
        # next lane's low bits into this lane's high half, and a product of
        # that garbage would carry into the next lane.
        z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
        z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
        z ^= z >> 31
        words = array("Q", z.to_bytes(16 * _LANES, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield words[::2]  # each lane's low word
        state = (state + _LANES * _GAMMA) & _MASK64


def _u64_stream(seed: int) -> Iterator[int]:
    """SplitMix64's outputs for seed, in order; the same stream as stepping
    the scalar generator, computed a block at a time."""
    return chain.from_iterable(_u64_blocks(seed))


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
            if self.nu is not None:
                raise ValueError(f"constant mode takes no nu, got {self.nu}")
        else:
            if self.nu is None or not 0.0 < self.nu < 1.0:
                raise ValueError(f"sublinear mode needs nu in (0, 1), got {self.nu}")
            if self.alpha is not None:
                raise ValueError(f"sublinear mode takes no alpha, got {self.alpha}")


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
    draw = _u64_stream(config.seed).__next__
    tokens = [1]
    append = tokens.append
    v = 1
    constant = config.mode == "constant"
    alpha = config.alpha if constant else 0.0
    nu = config.nu if not constant else 0.0
    exponent = nu - 1.0
    for t in range(2, config.steps + 1):
        if constant:
            p_new = alpha
        else:  # nu * t**(nu - 1) < nu < 1 for every t >= 2
            p_new = nu * float(t) ** exponent
        # a uniform double in [0, 1) from the top 53 bits
        if (draw() >> 11) * 2.0**-53 < p_new:
            v += 1
            append(v)
        else:  # a uniform history index in [0, t - 1) by 64-bit multiply-shift
            append(tokens[(draw() * (t - 1)) >> 64])
    return SimResult(tokens=tuple(tokens), V=v)


def verify_zipf(result: SimResult, n_max: int | None = None) -> Analysis:
    """Run a simulated stream through the full statistics pipeline.

    Returns the stream's Analysis, whose spectrum fit and rank-law fit are
    both present: the spectrum exponent, the fitted vocabulary-growth
    exponent nu with its z = 1/nu and boundary warning, and V and T.  When
    n_max is None the spectrum window adapts to the corpus via
    dense_spectrum_window, so small vocabularies are fit on their dense bins.
    Raises InsufficientSupport below 50 distinct tokens or when the spectrum
    fit cannot run; with its three distinct counts the rank-law fit runs.
    """
    if result.V < 50:
        raise InsufficientSupport(f"need at least 50 distinct tokens, got {result.V}")
    analysis = analyze_tokens(result.tokens, n_max=n_max)
    if analysis.gamma_error is not None:
        raise analysis.gamma_error
    return analysis

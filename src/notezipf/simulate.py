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

simulate runs the process in one function, and the stream contract above
holds throughout.  Its step loop takes each step in turn until the innovation
probability p(t) falls below a small cutoff, at the first step in constant
mode with a small alpha and once t is large enough in sublinear mode.  There
it hands over to a bulk loop: innovations are now rare, so the decision draws
between two of them are every other draw.  The bulk loop finds the next draw
that could innovate by a byte search, appends every reuse step before it with
one list.extend, and decides that step exactly as the step loop would.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat
from numbers import Real
from operator import mul, rshift

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
    # lane i holds the state of the block's draw i + 1, and each block adds
    # _LANES * gamma to every lane
    state = (steps + ((seed + _GAMMA) & _MASK64) * ones) & low
    advance = (_LANES * _GAMMA & _MASK64) * ones
    while True:
        z = state
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
        state = (state + advance) & low


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
        for name in ("steps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("alpha", "nu"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, Real) or isinstance(value, bool)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
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


# Steps whose innovation probability is below this run in bulk.  A bulk run
# costs a few microseconds more per innovation than the loop, and at 0.05 in
# constant mode the two took the same time.
_CUTOFF = 0.03
_TOP = 7 if sys.byteorder == "little" else 0  # where a native "Q" keeps its top byte


def _innovation_limit(p_new: float) -> int:
    """An integer above every draw that innovates with probability at most
    p_new.  A draw d innovates when (d >> 11) < p_new * 2**53, so every such
    draw is below (int(p_new * 2**53) + 1) << 11; one unit more covers a p(t)
    that is not exactly monotone in floats."""
    return (int(p_new * 2.0**53) + 2) << 11


@cache
def _top_table(top: int) -> bytes:
    """The bytes.translate table that maps a byte to 0 if it is at most top
    and to 1 otherwise."""
    return bytes(b > top for b in range(256))


def simulate(config: SimConfig) -> SimResult:
    """Run the process; step 1 always introduces token 1.

    The step loop runs while p(t) is at least _CUTOFF and hands the rest of
    the steps to the bulk loop.  Steps 2 .. t - 1 took 2t - 3 - v draws, and
    the k-th draw depends on k alone, so the bulk loop restarts the generator
    there.  It finds the first decision draw below the innovation limit by a
    byte search over the top bytes of every other draw, appends every reuse
    step before it by one extend, and decides that candidate step exactly.
    extend reads the list it grows, so a step may copy a token appended
    earlier in the same call.
    """
    steps = config.steps
    draw = _u64_stream(config.seed).__next__
    tokens = [1]
    append = tokens.append
    v = 1
    constant = config.mode == "constant"
    alpha = config.alpha if constant else 0.0
    nu = config.nu if not constant else 0.0
    exponent = nu - 1.0
    for t in range(2, steps + 1):
        if constant:
            p_new = alpha
        else:  # nu * t**(nu - 1) < nu < 1 for every t >= 2
            p_new = nu * float(t) ** exponent
        if p_new < _CUTOFF:
            break
        # a uniform double in [0, 1) from the top 53 bits
        if (draw() >> 11) * 2.0**-53 < p_new:
            v += 1
            append(v)
        else:  # a uniform history index in [0, t - 1) by 64-bit multiply-shift
            append(tokens[(draw() * (t - 1)) >> 64])
    else:  # no step is left for the bulk loop
        return SimResult(tokens=tuple(tokens), V=v)
    blocks = _u64_blocks(config.seed + (2 * t - 3 - v) * _GAMMA)
    buf = array("Q")
    pos = 0  # buf[pos] is the next unused draw
    extend = tokens.extend
    while t <= steps:
        p_new = alpha if constant else nu * float(t) ** exponent
        # 4/p steps hold the next innovation 98% of the time; the cap of
        # _LANES / 2 steps keeps the buffer within two blocks
        n = min(steps + 1 - t, int(4.0 / max(p_new, 8.0 / _LANES)))
        if len(buf) < pos + 2 * n:
            buf = buf[pos:]
            pos = 0
            while len(buf) < 2 * n:
                buf += next(blocks)
        limit = _innovation_limit(p_new)
        # 0 where a decision draw's top byte is at most the limit's: a
        # superset of the draws below the limit
        table = _top_table((limit - 1) >> 56)
        tops = buf[pos : pos + 2 * n].tobytes()[_TOP::16].translate(table)
        j = tops.find(0)
        while j >= 0 and buf[pos + 2 * j] >= limit:
            j = tops.find(0, j + 1)
        if j < 0:
            j = n
        # steps t .. t + j - 1 reuse, with the step loop's multiply-shift
        products = map(mul, buf[pos + 1 : pos + 2 * j : 2], range(t - 1, t - 1 + j))
        extend(map(tokens.__getitem__, map(rshift, products, repeat(64))))
        t += j
        pos += 2 * j
        if j < n:  # step t's decision draw is below the limit
            p_new = alpha if constant else nu * float(t) ** exponent
            if (buf[pos] >> 11) * 2.0**-53 < p_new:
                v += 1
                append(v)
                pos += 1
            else:
                append(tokens[(buf[pos + 1] * (t - 1)) >> 64])
                pos += 2
            t += 1
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

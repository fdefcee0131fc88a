import hashlib
import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, islice
from pathlib import Path

import pytest

import notezipf
from notezipf.errors import DegenerateTable, InsufficientSupport
from notezipf.simulate import (
    _GAMMA,
    _LANES,
    SimConfig,
    SimResult,
    _u64_stream,
    simulate,
    verify_zipf,
)

from _oracles import SplitMix64, enumerate_simon_distribution, first_bulk_step, reference_simulate

# the package exports the function simulate under the module's name
simulate_module = sys.modules["notezipf.simulate"]


class TestSplitMix64:
    def test_known_stream(self):
        # reference outputs for seed 0 (Vigna's splitmix64 test vector)
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_float_range(self):
        rng = SplitMix64(12345)
        for _ in range(1000):
            u = rng.next_float()
            assert 0.0 <= u < 1.0

    def test_index_range(self):
        rng = SplitMix64(7)
        for _ in range(1000):
            assert 0 <= rng.next_index(13) < 13


class TestU64Stream:
    def test_known_stream(self):
        # Vigna's seed-0 vector again, from the block-computed stream
        assert list(islice(_u64_stream(0), 3)) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, 2**70 + 5])
    def test_matches_scalar_generator_across_blocks(self, seed):
        rng = SplitMix64(seed)
        n = 3 * _LANES + 5  # three block boundaries
        assert list(islice(_u64_stream(seed), n)) == [rng.next_u64() for _ in range(n)]

    def test_lane_constants_wait_for_the_first_draw(self):
        # every command imports the simulator; only `simulate` should pay for them
        code = (
            "import notezipf.cli; from notezipf.simulate import _lane_constants; "
            "assert _lane_constants.cache_info().currsize == 0"
        )
        src = str(Path(notezipf.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


class TestSimConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SimConfig(mode="quadratic", steps=10, seed=1, alpha=0.5)
        with pytest.raises(ValueError):
            SimConfig(mode="constant", steps=0, seed=1, alpha=0.5)
        with pytest.raises(ValueError):
            SimConfig(mode="constant", steps=10, seed=1, alpha=1.5)
        with pytest.raises(ValueError):
            SimConfig(mode="sublinear", steps=10, seed=1, nu=1.0)
        with pytest.raises(ValueError):
            SimConfig(mode="sublinear", steps=10, seed=1)
        # the other mode's parameter is an error, not silently dropped
        with pytest.raises(ValueError, match="takes no alpha"):
            SimConfig(mode="sublinear", steps=10, seed=1, nu=0.5, alpha=3.0)
        with pytest.raises(ValueError, match="takes no nu"):
            SimConfig(mode="constant", steps=10, seed=1, alpha=0.5, nu=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [("steps", 10.5), ("steps", True), ("steps", "10"), ("seed", 1.5), ("seed", False), ("seed", None)],
    )
    def test_steps_and_seed_must_be_ints(self, field, value):
        # a float failed inside simulate as a bare TypeError, and steps=True ran one step
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            SimConfig(mode="constant", alpha=0.5, **{"steps": 10, "seed": 1, field: value})

    @pytest.mark.parametrize(
        "mode, field, value",
        [
            ("constant", "alpha", "0.5"),
            ("constant", "alpha", True),
            ("constant", "alpha", False),
            ("sublinear", "nu", "0.5"),
            ("sublinear", "nu", 1 + 0j),
            ("sublinear", "nu", True),
            ("sublinear", "alpha", "0.5"),
        ],
    )
    def test_alpha_and_nu_must_be_real_numbers(self, mode, field, value):
        # a str or complex failed the range check as a bare TypeError, and
        # alpha=True ran as alpha = 1
        params = {"alpha": 0.5} if mode == "constant" else {"nu": 0.5}
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            SimConfig(mode=mode, steps=10, seed=1, **{**params, field: value})

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(1, 3), 0.25])
    def test_real_alpha_of_any_numeric_type_is_accepted(self, alpha):
        assert SimConfig(mode="constant", steps=10, seed=1, alpha=alpha).alpha == alpha


class TestSimulate:
    def test_always_innovate(self):
        result = simulate(SimConfig(mode="constant", steps=50, seed=1, alpha=1.0))
        assert result.V == 50
        assert result.tokens == tuple(range(1, 51))

    def test_never_innovate_floor(self):
        result = simulate(SimConfig(mode="constant", steps=50, seed=1, alpha=0.0))
        assert result.V == 1
        assert result.tokens == (1,) * 50

    def test_reproducible(self):
        config = SimConfig(mode="sublinear", steps=5000, seed=99, nu=0.5)
        assert simulate(config).tokens == simulate(config).tokens

    def test_million_step_stream_pinned(self):
        # the tokens.txt bytes of `simulate --mode sublinear --nu 0.5
        # --steps 1000000 --seed 1 --emit-tokens`, as the scalar loop wrote them
        tokens = simulate(SimConfig(mode="sublinear", steps=1_000_000, seed=1, nu=0.5)).tokens
        text = "\n".join(map(str, tokens)) + "\n"
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "109cec2823f417293b39d8cda6fe0bb25ca7d1a7916889668ba42b4815ef755b"
        )

    def test_different_seeds_differ(self):
        a = simulate(SimConfig(mode="constant", steps=1000, seed=1, alpha=0.3))
        b = simulate(SimConfig(mode="constant", steps=1000, seed=2, alpha=0.3))
        assert a.tokens != b.tokens

    def test_ids_dense_and_in_first_appearance_order(self):
        result = simulate(SimConfig(mode="constant", steps=2000, seed=5, alpha=0.2))
        seen: list[int] = []
        for tok in result.tokens:
            if tok not in seen:
                seen.append(tok)
        assert seen == list(range(1, result.V + 1))
        assert len(result.tokens) == result.T == 2000

    def test_expected_vocabulary_constant_mode(self):
        # E[V] = 1 + alpha*(T-1); 20 seeds, checked to 3 standard errors
        alpha, steps, seeds = 0.1, 2000, 20
        vs = [
            simulate(SimConfig(mode="constant", steps=steps, seed=s, alpha=alpha)).V
            for s in range(1, seeds + 1)
        ]
        expected = 1.0 + alpha * (steps - 1)
        se = math.sqrt(alpha * (1.0 - alpha) * (steps - 1) / seeds)
        assert abs(statistics.mean(vs) - expected) <= 3.0 * se

    def test_sublinear_growth_scale(self):
        # frozen from a 10-seed oracle run: mean V / T**nu was 0.99 at nu=0.5
        vs = [
            simulate(SimConfig(mode="sublinear", steps=100_000, seed=s, nu=0.5)).V
            for s in range(1, 11)
        ]
        assert 0.7 * 100_000**0.5 <= statistics.mean(vs) <= 1.3 * 100_000**0.5


class TestBulkPhase:
    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(mode="sublinear", steps=30_000, seed=1, nu=0.5),
            SimConfig(mode="sublinear", steps=30_000, seed=-7, nu=0.62),
            SimConfig(mode="constant", steps=30_000, seed=2, alpha=0.02),
        ],
    )
    def test_runs_ending_at_the_switch_step_and_at_block_boundaries(self, config):
        reference = reference_simulate(config).tokens
        vocabulary = list(accumulate(reference, max))  # ids are dense, in first-appearance order

        def draws(steps):  # one per step after the first, one more per reuse step
            return 2 * (steps - 1) - (vocabulary[steps - 1] - 1)

        start = first_bulk_step(config)
        restart = draws(start - 1)  # where the bulk phase restarts the generator
        ends = [start - 1, start, start + 1]
        # steps whose draws, counted from the restart, end at a block's end,
        # one draw past it or one draw short of it
        for offset in (0, 1, _LANES - 1):
            ends += [s for s in range(start, config.steps) if (draws(s) - restart) % _LANES == offset][:3]
        assert len(ends) == 12
        for steps in ends:
            result = simulate(replace(config, steps=steps))
            assert result.tokens == reference[:steps]
            assert result.V == vocabulary[steps - 1]

    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(mode="constant", steps=3_000, seed=4, alpha=0.02),
            SimConfig(mode="constant", steps=3_000, seed=4, alpha=0.03),
            SimConfig(mode="constant", steps=3_000, seed=4, alpha=0.5),
            SimConfig(mode="sublinear", steps=277, seed=5, nu=0.5),
            SimConfig(mode="sublinear", steps=278, seed=5, nu=0.5),
            SimConfig(mode="sublinear", steps=3_000, seed=5, nu=0.5),
            SimConfig(mode="sublinear", steps=3_000, seed=6, nu=0.9),
        ],
    )
    def test_the_bulk_loop_restarts_the_generator_exactly_when_p_falls_below_the_cutoff(
        self, config, monkeypatch
    ):
        # the stream tests pass whether or not the step loop ever hands over;
        # the restart of the generator shows that it does
        seeds = []
        blocks = simulate_module._u64_blocks

        def recording_blocks(seed):
            seeds.append(seed % 2**64)
            return blocks(seed)

        monkeypatch.setattr(simulate_module, "_u64_blocks", recording_blocks)
        result = simulate(config)
        assert result == reference_simulate(config)
        start = first_bulk_step(config)
        if start > config.steps:
            assert seeds == [config.seed % 2**64]
        else:
            v = max(result.tokens[: start - 1])
            assert seeds == [config.seed % 2**64, (config.seed + (2 * start - 3 - v) * _GAMMA) % 2**64]


class TestReuseRuleEquivalence:
    def test_uniform_history_matches_count_proportional(self):
        # exact distributional identity of the two reuse rules on tiny runs
        for steps in (2, 3, 4, 5):
            probs = {t: Fraction(1, 3) for t in range(2, steps + 1)}
            uniform = enumerate_simon_distribution(steps, probs, "uniform-history")
            proportional = enumerate_simon_distribution(steps, probs, "count-proportional")
            assert uniform == proportional

    def test_equivalence_with_varying_schedule(self):
        probs = {t: Fraction(1, t) for t in range(2, 6)}
        uniform = enumerate_simon_distribution(5, probs, "uniform-history")
        proportional = enumerate_simon_distribution(5, probs, "count-proportional")
        assert uniform == proportional
        assert sum(uniform.values()) == 1


class TestVerifyZipf:
    def test_small_vocabulary_rejected(self):
        result = simulate(SimConfig(mode="constant", steps=100, seed=1, alpha=0.1))
        with pytest.raises(InsufficientSupport):
            verify_zipf(result)

    def test_report_fields(self):
        result = simulate(SimConfig(mode="sublinear", steps=50_000, seed=3, nu=0.5))
        analysis = verify_zipf(result)
        assert analysis.table.V == len(set(result.tokens))
        assert analysis.table.T == 50_000
        assert analysis.fit.z == pytest.approx(1.0 / analysis.fit.nu)
        assert 0.3 < analysis.fit.nu < 0.8
        assert analysis.gamma.slope > 0.5
        assert not analysis.fit.boundary_warning

    def test_flat_stream_cannot_be_analyzed(self):
        # a flat stream has a one-bin spectrum, so the gamma fit fails first
        tokens = tuple(1 + (i % 60) for i in range(600))
        with pytest.raises((InsufficientSupport, DegenerateTable)):
            verify_zipf(SimResult(tokens=tokens, V=60))

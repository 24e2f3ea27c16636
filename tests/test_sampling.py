import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyfw import sampling
from polyfw.diagnostics import AnalysisConstants, compute_constants
from polyfw.errors import ConfigError, MissingParam, NonpositiveS
from polyfw.geometry import unit_simplex
from polyfw.objectives import QuadraticObjective
from polyfw.sampling import (
    MEAN_BLOCK_MAX,
    NoiseModel,
    SamplePlan,
    BINOMIAL_MAX_N,
    STUDENT_T_MAX_DRAWS,
    calibrate_subgaussian_c,
    cell_sample_size,
    chebyshev_tail_bound,
    check_draws,
    estimate_gradient,
    noise_mean_stream,
    plan_sample_size,
    sample_noise_means,
    theorem_sample_size,
)
from polyfw.theory import subgaussian_c1


def quad3():
    return QuadraticObjective([1.0, 2.0, 3.0], z=[0.5, -0.5, 0.0])


class TestNoiseModel:
    def test_zero_sigma_is_exact(self, rng):
        obj = quad3()
        x = np.array([1.0, 2.0, 3.0])
        noise = NoiseModel.gaussian(0.0, 3)
        grad = obj.gradient(x)
        np.testing.assert_array_equal(estimate_gradient(grad, noise, 1, rng), grad)
        np.testing.assert_array_equal(estimate_gradient(grad, noise, 50, rng), grad)

    def test_mean_of_many_draws_is_the_gradient(self, rng):
        obj = quad3()
        x = np.array([0.1, 0.2, 0.3])
        sigma, n = 1.0, 10**5
        noise = NoiseModel.gaussian(sigma, 3)
        draws = np.array([estimate_gradient(obj.gradient(x), noise, 1, rng) for _ in range(200)])
        mean = obj.gradient(x) + noise.draw(rng, n).mean(axis=0)
        # 4-sigma radius for the norm of a 3-d mean of n draws.
        assert np.linalg.norm(mean - obj.gradient(x)) <= 4 * sigma * math.sqrt(3 / n)
        assert np.linalg.norm(draws.mean(axis=0) - obj.gradient(x)) <= 4 * sigma * math.sqrt(
            3 / 200
        )

    def test_second_moment_matches_vg(self, rng):
        trials = 200_000
        models = [
            NoiseModel.gaussian(0.7, 4),
            NoiseModel.student_t(5, 0.5, 4),
            NoiseModel.rademacher(1.3, 4),
        ]
        for noise in models:
            draws = noise.draw(rng, trials)
            emp = float((draws**2).sum(axis=1).mean())
            assert abs(emp - noise.V_g) <= 0.05 * noise.V_g

    def test_vg_closed_forms(self):
        assert NoiseModel.gaussian(2.0, 3).V_g == 12.0
        assert np.isclose(NoiseModel.student_t(5, 1.0, 2).V_g, 2 * 5 / 3)
        assert NoiseModel.rademacher(0.5, 8).V_g == 2.0

    def test_rho(self):
        assert np.isclose(NoiseModel.gaussian(2.0, 4).rho, 4.0)
        assert np.isclose(NoiseModel.rademacher(1.0, 9).rho, 3.0)
        assert NoiseModel.student_t(4, 1.0, 2).rho is None

    def test_student_t_needs_dof_at_least_three(self):
        with pytest.raises(ValueError):
            NoiseModel.student_t(2, 1.0, 3)


class TestEstimator:
    def test_estimator_variance_shrinks_as_vg_over_n(self, rng):
        obj = quad3()
        x = np.zeros(3)
        noise = NoiseModel.rademacher(1.0, 3)
        n, trials = 25, 20_000
        errs = np.array(
            [
                np.sum((estimate_gradient(obj.gradient(x), noise, n, rng) - obj.gradient(x)) ** 2)
                for _ in range(trials)
            ]
        )
        assert abs(errs.mean() - noise.V_g / n) <= 0.1 * noise.V_g / n

    def test_gaussian_exact_law_matches_sampling_distribution(self, rng):
        obj = quad3()
        x = np.ones(3)
        n = 1000
        noise = NoiseModel.gaussian(2.0, 3)
        errs = np.array(
            [
                estimate_gradient(obj.gradient(x), noise, n, rng) - obj.gradient(x)
                for _ in range(20_000)
            ]
        )
        # Mean sq. error per trial should match V_g / n within 5%.
        emp = float((errs**2).sum(axis=1).mean())
        assert abs(emp - noise.V_g / n) <= 0.05 * noise.V_g / n
        assert abs(errs.mean()) <= 4 * noise.sigma / math.sqrt(n * errs.size)

    def test_rejects_nonpositive_n(self, rng):
        with pytest.raises(ValueError):
            estimate_gradient(np.zeros(3), NoiseModel.gaussian(1.0, 3), 0, rng)


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|, evaluated
    at every observed value (exact for discrete samples)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


class TestNoiseMeans:
    @pytest.mark.parametrize(
        "n, seed", [(1, 14), (2, 15), (5, 11), (50, 12), (63, 16), (64, 17), (500, 13)]
    )
    def test_binomial_rademacher_means_match_direct_draws(self, n, seed):
        rng = np.random.default_rng(seed)
        noise = NoiseModel.rademacher(1.3, 3)
        trials = 4000
        binomial = sample_noise_means(noise, n, (trials,), rng)
        direct = noise.scale * rng.choice((-1.0, 1.0), (trials, n, 3)).mean(axis=1)
        assert binomial.shape == direct.shape == (trials, 3)

        def sign_count(means):
            # Each mean is scale * (2k - n) / n for a count k of +1 signs;
            # comparing counts keeps rounding from splitting one atom in two.
            k = (means / noise.scale * n + n) / 2
            np.testing.assert_allclose(k, np.round(k), atol=1e-6)
            return np.round(k).ravel()

        # KS at level 0.001 for two samples of size m: 1.95 sqrt(2 / m),
        # conservative for discrete laws.
        m = binomial.size
        stat = ks_two_sample(sign_count(binomial), sign_count(direct))
        assert stat <= 1.95 * math.sqrt(2.0 / m)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 33, 63, 64])
    def test_small_n_rademacher_means_count_the_low_bits_of_one_word(self, n):
        noise = NoiseModel.rademacher(1.3, 4)
        means = sample_noise_means(noise, n, (1000,), np.random.default_rng(n))
        # Each mean is scale * (2k - n) / n: a uint8 count that wrapped in
        # 2k - n would land far outside [-scale, scale].
        assert np.all(np.abs(means) <= noise.scale)
        k = np.round((means / noise.scale * n + n) / 2)
        assert means.tobytes() == (noise.scale * (2.0 * k - n) / n).tobytes()
        # k is the number of ones among the low n bits of one generator word.
        words = np.random.default_rng(n).bit_generator.random_raw((1000, 4))
        assert k.tolist() == [[bin(int(w) & ((1 << n) - 1)).count("1") for w in row]
                              for row in words]

    @pytest.mark.parametrize("n", [65, 27_000])
    def test_large_n_rademacher_means_are_the_binomial_stream(self, n):
        # away-subgauss and the golden away-rademacher run draw here.
        noise, shape = NoiseModel.rademacher(1.3, 8), (100, 8)
        means = sample_noise_means(noise, n, (100,), np.random.default_rng(n))
        rng = np.random.default_rng(n)
        expected = noise.scale * (2 * rng.binomial(n, 0.5, shape) - n) / n
        assert means.tobytes() == expected.tobytes()

    def test_rademacher_estimate_at_huge_n_is_o_d(self, rng, monkeypatch):
        # n of the bounded_variance_away plan for Rademacher noise at
        # epsilon = 0.2 on the d = 3 simplex: n * d signs would take 320 GB.
        n = 13_300_000_000

        def no_draws(*args, **kwargs):
            raise AssertionError("Rademacher means must not draw n signs")

        monkeypatch.setattr(NoiseModel, "draw", no_draws)
        grad = np.array([0.5, -1.0, 2.0])
        t0 = time.perf_counter()
        est = estimate_gradient(grad, NoiseModel.rademacher(1.0, 3), n, rng)
        assert time.perf_counter() - t0 < 1.0
        assert est.shape == (3,)
        assert np.all(np.abs(est - grad) <= 6.0 / math.sqrt(n))

    @pytest.mark.parametrize("d", [3, 8])
    @pytest.mark.parametrize("n, seed", [(5, 21), (50, 22), (1000, 23)])
    def test_gaussian_means_match_averaged_draws(self, n, seed, d):
        rng = np.random.default_rng(seed)
        noise = NoiseModel.gaussian(0.7, d)
        trials = 3000
        exact = sample_noise_means(noise, n, (trials,), rng)
        averaged = np.array([noise.draw(rng, n).mean(axis=0) for _ in range(trials)])
        assert exact.shape == averaged.shape == (trials, d)
        # KS at level 0.001 for two samples of size m, coordinate by coordinate.
        for j in range(d):
            assert ks_two_sample(exact[:, j], averaged[:, j]) <= 1.95 * math.sqrt(2.0 / trials)

    def test_gaussian_means_never_draw_n_vectors(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("gaussian means must not draw n vectors")

        monkeypatch.setattr(NoiseModel, "draw", no_draws)
        noise = NoiseModel.gaussian(0.7, 3)
        for n in (2, 1000, 4096, 10**12):
            rng, direct = np.random.default_rng(n), np.random.default_rng(n)
            means = sample_noise_means(noise, n, (4,), rng)
            expected = direct.normal(0.0, 0.7 / math.sqrt(n), (4, 3))
            assert means.tobytes() == expected.tobytes()

    def test_chunked_student_t_mean_stays_bounded_and_matches(self, monkeypatch):
        noise = NoiseModel.student_t(5, 0.5, 3)
        n = 1000
        whole = noise.draw(np.random.default_rng(4), n).mean(axis=0)
        sizes = []
        original = NoiseModel.draw

        def recording(self, rng, count):
            sizes.append(count * self.dim)
            return original(self, rng, count)

        monkeypatch.setattr(NoiseModel, "draw", recording)
        monkeypatch.setattr(sampling, "DRAW_CHUNK", 300)
        chunked = sample_noise_means(noise, n, (), np.random.default_rng(4))
        assert max(sizes) <= 300 and len(sizes) == 10
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-12)

    def test_means_split_across_chunks_by_whole_trials_are_unchanged(self, monkeypatch):
        noise = NoiseModel.student_t(3, 1.0, 3)
        whole = sample_noise_means(noise, 4, (7,), np.random.default_rng(9))
        monkeypatch.setattr(sampling, "DRAW_CHUNK", 24)  # two trials per chunk
        split = sample_noise_means(noise, 4, (7,), np.random.default_rng(9))
        np.testing.assert_array_equal(split, whole)


# Every family but student-t draws its means from their exact law, in blocks.
STREAM_CASES = [
    (NoiseModel.gaussian(0.7, 3), 4097, True),
    (NoiseModel.gaussian(0.7, 8), 10**6, True),
    (NoiseModel.gaussian(0.7, 3), 4096, True),
    (NoiseModel.gaussian(0.7, 3), 1, True),
    (NoiseModel.rademacher(1.3, 3), 1, True),
    (NoiseModel.rademacher(1.3, 8), 64, True),
    (NoiseModel.rademacher(1.3, 8), 27_000, True),
    (NoiseModel.rademacher(1.3, 3), 10**9, True),
    (NoiseModel.student_t(5, 0.5, 3), 7, False),
]
STREAM_IDS = ["gaussian_shortcut", "gaussian_shortcut_d8", "gaussian_n4096",
              "gaussian_n1", "rademacher_n1", "rademacher_n64_d8", "rademacher_d8",
              "rademacher_huge_n", "student_t"]


class TestNoiseMeanStream:
    @pytest.mark.parametrize("noise, n, blocked", STREAM_CASES, ids=STREAM_IDS)
    def test_equals_successive_single_means_bit_for_bit(self, noise, n, blocked):
        # 600 means cross every block boundary: 8, 24, 56, ..., 504 after the
        # blocks of 8, 16, 32, ..., 256, then blocks of MEAN_BLOCK_MAX.
        count = 600 if blocked else 40
        stream = noise_mean_stream(noise, n, np.random.default_rng(31))
        streamed = np.array([next(stream) for _ in range(count)])
        rng = np.random.default_rng(31)
        single = np.array([sample_noise_means(noise, n, (), rng) for _ in range(count)])
        assert streamed.shape == single.shape == (count, noise.dim)
        assert streamed.tobytes() == single.tobytes()
        # A run of 5 steps, shorter than the first block, takes its prefix.
        stream = noise_mean_stream(noise, n, np.random.default_rng(31))
        short = np.array([next(stream) for _ in range(5)])
        assert short.tobytes() == single[:5].tobytes()

    @pytest.mark.parametrize("noise, n, blocked", STREAM_CASES, ids=STREAM_IDS)
    def test_blocks_double_only_on_the_o_d_paths(self, noise, n, blocked, monkeypatch):
        sizes = []
        original = sampling.sample_noise_means

        def recording(noise, n, size, rng):
            sizes.append(size)
            return original(noise, n, size, rng)

        monkeypatch.setattr(sampling, "sample_noise_means", recording)
        stream = noise_mean_stream(noise, n, np.random.default_rng(32))
        for _ in range(600 if blocked else 40):
            next(stream)
        if blocked:
            assert sizes == [(8,), (16,), (32,), (64,), (128,), (MEAN_BLOCK_MAX,),
                             (MEAN_BLOCK_MAX,)]
        else:
            # A block of averaged means would hold n * d values per mean.
            assert sizes == [()] * 40

    def test_stream_leaves_rng_past_the_last_mean_taken(self):
        # Five means take one block of 8; 9 take blocks of 8 and 16; 300 take
        # 8, 16, ..., 256, which end at mean 504.
        noise = NoiseModel.rademacher(1.0, 3)
        for taken, drawn in ((5, 8), (9, 24), (300, 504)):
            rng, ahead = np.random.default_rng(33), np.random.default_rng(33)
            stream = noise_mean_stream(noise, 100, rng)
            for _ in range(taken):
                next(stream)
            sample_noise_means(noise, 100, (drawn,), ahead)
            assert rng.random() == ahead.random()


class TestChebyshev:
    def test_hand_value(self):
        # V_g = 4, n = 25, s = 1: 4 / 25 = 0.16.
        assert chebyshev_tail_bound(4.0, 25, 1.0) == 0.16

    def test_caps_at_one(self):
        assert chebyshev_tail_bound(100.0, 1, 0.5) == 1.0

    def test_nonpositive_s(self):
        with pytest.raises(NonpositiveS):
            chebyshev_tail_bound(1.0, 10, 0.0)

    @given(
        st.floats(0.0, 100.0),
        st.integers(1, 10**6),
        st.floats(1e-3, 10.0),
    )
    def test_in_unit_interval_and_monotone_in_n(self, V_g, n, s):
        b = chebyshev_tail_bound(V_g, n, s)
        assert 0.0 <= b <= 1.0
        assert chebyshev_tail_bound(V_g, n + 1, s) <= b


def consts_at(epsilon: float, **values) -> AnalysisConstants:
    """The d = 3 simplex's constants at epsilon, with the given ones replaced."""
    return dataclasses.replace(compute_constants(quad3(), unit_simplex(3), epsilon), **values)


def theorem_n(mode: str, params: dict, consts: AnalysisConstants, V_g: float = 1.0,
              d: int = 3) -> int:
    return theorem_sample_size(SamplePlan(mode, params=params), consts, V_g, d)


class TestPlanner:
    def test_exact_and_fixed(self):
        assert plan_sample_size(SamplePlan.exact()) == 0
        assert plan_sample_size(SamplePlan.fixed(17)) == 17

    def test_bounded_variance_standard_hand_value(self):
        # 16 * 1 * 1 / (0.1^2 * (1 - 0.9)) = 16000.
        n = theorem_n("bounded_variance_standard", {"p_g": 0.9}, consts_at(0.1, D=1.0))
        assert n == 16000

    def test_bounded_variance_standard_quadruples_when_epsilon_halves(self):
        n1 = theorem_n("bounded_variance_standard", {"p_g": 0.5}, consts_at(0.2, D=1.5), V_g=2.0)
        n2 = theorem_n("bounded_variance_standard", {"p_g": 0.5}, consts_at(0.1, D=1.5), V_g=2.0)
        assert n2 == 4 * n1

    def test_bounded_variance_away_hand_value(self):
        # 2 * 1 * (2*0.25*1 + 1)^2 * (4/1)^2 / (0.5 * 0.1) = 1440.
        consts = consts_at(0.1, D=1.0, eps_g=0.25, N=4, omega=1.0)
        assert theorem_n("bounded_variance_away", {"p_g": 0.5}, consts) == 1440

    def test_free_inputs_override_the_problem(self):
        # A given V_g and p_g replace the noise's and the theorem's.
        consts = consts_at(0.1, D=1.0, pg_standard=0.5)
        assert theorem_n("bounded_variance_standard", {}, consts, V_g=1.0) == 3200
        assert theorem_n("bounded_variance_standard", {"V_g": 2.0, "p_g": 0.9}, consts) == 32000

    def test_subgaussian_standard_hand_value(self):
        # front = 16/(1*0.01) = 1600; n = 1600*(2+2+log 4) + 1600*log(1/0.025).
        consts = consts_at(0.1, D=1.0, M=1.0, beta1=0.25)
        raw = 1600 * (4 + math.log(4.0)) + 1600 * math.log(40.0)
        assert theorem_n("subgaussian_standard", {"c": 1.0}, consts, d=2) == math.ceil(raw)

    def test_subgaussian_away_hand_value(self):
        # c1 = (1/1)^2 * 0.4 / (2 * (2*0*1 + 1)^2) = 0.2.
        consts = consts_at(0.1, mu=0.4, eps_g=0.0, N=1, omega=1.0, M=1.0, beta2=0.1)
        raw = (4 + math.log(6.0) - math.log(0.01)) / (0.5 * 0.2 * 0.1)
        assert theorem_n("subgaussian_away", {"c": 0.5}, consts) == math.ceil(raw)

    def test_monotone_in_epsilon(self):
        sizes = [
            theorem_n("bounded_variance_standard", {"p_g": 0.5}, consts_at(e, D=1.0))
            for e in (0.4, 0.2, 0.1, 0.05)
        ]
        assert sizes == sorted(sizes)

    def test_missing_param(self):
        with pytest.raises(MissingParam, match="needs a resolved n"):
            plan_sample_size(SamplePlan("bounded_variance_standard", params={"V_g": 1.0}))
        with pytest.raises(MissingParam):
            plan_sample_size(SamplePlan("fixed"))
        with pytest.raises(MissingParam):
            plan_sample_size(SamplePlan("no_such_mode"))
        with pytest.raises(MissingParam):
            theorem_n("fixed", {}, consts_at(0.1))

    def test_nonpositive_denominator(self):
        # 1 - p_g is the bounded-variance denominator: a theorem p_g of 1 is a
        # config error naming it (a given p_g < 1 is checked by plan_from_json).
        for mode, field in (("bounded_variance_standard", "pg_standard"),
                            ("bounded_variance_away", "pg_away")):
            with pytest.raises(ConfigError, match=f"{mode} needs p_g < 1, but p_g = 1.0"):
                theorem_n(mode, {}, consts_at(0.1, **{field: 1.0}))

    def test_at_least_one_sample(self):
        consts = consts_at(1.0, D=1.0)
        assert theorem_n("bounded_variance_standard", {"p_g": 0.1}, consts, V_g=1e-12) == 1


class TestCellSampleSize:
    @pytest.mark.parametrize("plan", [
        SamplePlan.exact(), SamplePlan.fixed(17),
        SamplePlan("bounded_variance_standard", params={"p_g": 0.5}),
        SamplePlan("bounded_variance_away", params={"p_g": 0.5}),
        SamplePlan("subgaussian_standard", params={"c": 0.5}),
        SamplePlan("subgaussian_away", params={"c": 0.5}),
    ], ids=lambda plan: plan.mode)
    def test_every_mode(self, plan):
        consts, noise = consts_at(0.1), NoiseModel.gaussian(2.0, 3)
        expected = {"exact": 0, "fixed": 17}.get(plan.mode)
        if expected is None:
            expected = theorem_sample_size(plan, consts, noise.V_g, noise.dim)
        assert cell_sample_size(plan, consts, noise) == expected

    @pytest.mark.parametrize("kind", ["gaussian", "student_t", "rademacher"])
    def test_exact_draws_nothing_under_every_noise(self, kind):
        noise = NoiseModel(kind=kind, dim=3, sigma=1.0, scale=1.0, dof=5)
        assert cell_sample_size(SamplePlan.exact(), consts_at(0.1), noise) == 0

    def test_theorem_n_above_the_rule_names_sampling_and_epsilon(self):
        plan = SamplePlan("bounded_variance_standard", params={"p_g": 0.5})
        noise = NoiseModel.student_t(5, 100.0, 3)
        with pytest.raises(ConfigError, match=r"^sampling: student_t noise at n = \d+ .* at "
                                              r"epsilon = 0\.1$"):
            cell_sample_size(plan, consts_at(0.1), noise)


class TestCheckDraws:
    def test_rademacher_n_up_to_the_binomial_range(self):
        noise = NoiseModel.rademacher(1.0, 4)
        assert check_draws(noise, BINOMIAL_MAX_N, 10**6, "n_grid") == BINOMIAL_MAX_N
        with pytest.raises(ConfigError, match="^n_grid: rademacher noise at n = "):
            check_draws(noise, BINOMIAL_MAX_N + 1, 1, "n_grid")

    def test_student_t_count_n_d_up_to_the_budget(self):
        # 4 means of n = 5e6 in d = 5 are exactly the budget of 1e8 values.
        noise = NoiseModel.student_t(5, 1.0, 5)
        assert check_draws(noise, STUDENT_T_MAX_DRAWS // 20, 4, "sampling.n") == 5 * 10**6
        with pytest.raises(ConfigError, match="100000020 values, above the budget"):
            check_draws(noise, STUDENT_T_MAX_DRAWS // 20 + 1, 4, "sampling.n")

    def test_gaussian_means_take_any_n(self):
        assert check_draws(NoiseModel.gaussian(1.0, 3), 10**30, 10**6, "sampling") == 10**30


def test_subgaussian_c1_hand_value():
    # (1/4)^2 * 2 / (2 * (2*0.25*1 + 1)^2) = 0.125 / 4.5.
    assert np.isclose(subgaussian_c1(2.0, 0.25, 1.0, 4, 1.0), 0.125 / 4.5)


def test_calibrated_c_bounds_observed_tails(rng):
    noise = NoiseModel.gaussian(1.0, 2)
    c = calibrate_subgaussian_c(noise, rng, n_grid=(5, 10, 20), s_grid=(0.5, 1.0), trials=5000)
    assert 0.0 < c < math.inf
    for n in (5, 10, 20):
        norms = np.linalg.norm(noise.draw(rng, 5000 * n).reshape(5000, n, 2).mean(axis=1), axis=1)
        for s in (0.5, 1.0):
            freq = (norms >= s).mean()
            # The fitted c makes 2d exp(-n c s^2) an upper bound up to
            # resampling noise.
            assert freq <= 2 * 2 * math.exp(-n * c * s * s) + 0.01

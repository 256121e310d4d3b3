"""Transform and band-scaling tests: the cosine transform against a naive
summation oracle, round-trip and energy preservation, pinned scaling-factor
values and the ramps' sign changes, the energy redistribution identity, and
weight-gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqzsl import cli, frequency, numkit, pipeline


def featurize(x, cfg):
    """x's trailing axis enhanced as training and evaluation do it: by the
    featurizer, from x's spectrum."""
    feat = pipeline.SkeletonFeaturizer(cfg, enhance_vectors=True)
    return feat.from_spectrum(frequency.dct_forward(x))


def naive_dct(x):
    """O(F^2) scalar-loop definition of the orthonormal type-II transform."""
    F = len(x)
    out = np.zeros(F)
    for i in range(F):
        scale = math.sqrt((1.0 if i == 0 else 2.0) / F)
        out[i] = scale * sum(x[f] * math.cos(math.pi / F * (f + 0.5) * i)
                             for f in range(F))
    return out


class TestTransform:
    def test_matches_naive_summation_oracle(self):
        rng = numkit.make_rng(0)
        for F in (1, 2, 3, 8, 17):
            x = rng.standard_normal(F)
            np.testing.assert_allclose(frequency.dct_forward(x), naive_dct(x),
                                       rtol=0, atol=1e-12)

    def test_constant_sequence_concentrates_in_mode_zero(self):
        coeffs = frequency.dct_forward(np.ones(4))
        np.testing.assert_allclose(coeffs, [2.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_round_trip(self):
        rng = numkit.make_rng(1)
        x = rng.standard_normal((5, 3, 64))
        back = frequency.idct(frequency.dct_forward(x))
        assert np.max(np.abs(back - x)) < 1e-9

    @pytest.mark.parametrize("shape", [(64,), (7, 64), (1, 1, 8), (64, 5, 3, 64),
                                       (2, 3, 4, 5, 16), (12, 1, 1, 8), (100, 1, 64)])
    def test_inverse_matches_the_stacked_product(self, shape):
        # idct folds the leading axes into rows. Where the trailing matrices
        # have several rows that gives exactly what one product per matrix
        # gives, so features and eval bytes of such data do not move; a stack
        # of one-row matrices went through matrix-vector products, which
        # round differently
        c = numkit.make_rng(3).standard_normal(shape)
        stacked = c @ frequency.dct_basis(shape[-1])
        if len(shape) > 2 and shape[0] > 1 and shape[-2] == 1:
            np.testing.assert_allclose(frequency.idct(c), stacked, rtol=0, atol=1e-14)
        else:
            assert frequency.idct(c).tobytes() == stacked.tobytes()

    def test_energy_preserved(self):
        rng = numkit.make_rng(2)
        x = rng.standard_normal((4, 64))
        coeffs = frequency.dct_forward(x)
        e_time = float(np.sum(x * x))
        e_freq = float(np.sum(coeffs * coeffs))
        assert abs(e_time - e_freq) / e_time < 1e-12

    def test_basis_is_orthonormal(self):
        for F in (1, 2, 7, 64):
            b = frequency.dct_basis(F)
            np.testing.assert_allclose(b @ b.T, np.eye(F), atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            frequency.dct_forward(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            frequency.dct_basis(0)

    def test_leading_axes_are_independent(self):
        rng = numkit.make_rng(3)
        x = rng.standard_normal((2, 3, 16))
        whole = frequency.dct_forward(x)
        np.testing.assert_allclose(whole[1, 2], frequency.dct_forward(x[1, 2]),
                                   atol=1e-14)


def profile_g(cfg):
    g, _, _ = frequency.scaling_profile(cfg)
    return g


class TestScalingFactor:
    def test_low_band_pinned_value(self):
        # first band, weight 0.5, ramp 30: 1 + 0.5 * (1 - 0/30) = 1.5
        cfg = frequency.EnhancementConfig.uniform_bands(64, 1, low_cutoff=35,
                                                        ramp=30.0, weight=0.5)
        assert profile_g(cfg)[0] == pytest.approx(1.5, abs=1e-15)

    def test_high_band_pinned_value(self):
        # band 1 with cutoff 0 lands high: 1 - 0.5 * (1 - (1-30)/30) = 1/60
        cfg = frequency.EnhancementConfig.uniform_bands(64, 1, low_cutoff=0,
                                                        ramp=30.0, weight=0.5)
        assert profile_g(cfg)[1] == pytest.approx(1.0 / 60.0, abs=1e-15)

    def test_zero_weight_is_identity_factor(self):
        cfg = frequency.EnhancementConfig.uniform_bands(64, 1, low_cutoff=35,
                                                        ramp=30.0, weight=0.0)
        np.testing.assert_allclose(profile_g(cfg), np.ones(64), rtol=0, atol=1e-15)

    def test_learnable_only_returns_weight_verbatim(self):
        cfg = frequency.EnhancementConfig.uniform_bands(
            8, 1, low_cutoff=4, ramp=30.0, weight=0.37, mode="learnable_only")
        assert profile_g(cfg).tolist() == [0.37] * 8

    def test_floor_clamps_negative_factors(self):
        # high band at k=0 with w=0.9: 1 - 0.9*(1 + 30/30) = -0.8 -> floor
        cfg = frequency.EnhancementConfig.uniform_bands(8, 1, low_cutoff=0,
                                                        ramp=30.0, weight=0.9)
        g, dgdw, _ = frequency.scaling_profile(cfg)
        assert g[0] == 0.0 and dgdw[0] == 0.0

    def test_monotone_within_bands_at_shared_weight(self):
        cfg = frequency.EnhancementConfig.uniform_bands(64, 1, low_cutoff=35,
                                                        ramp=30.0, weight=0.8)
        g = profile_g(cfg)
        low = [k for k in range(64) if cfg.split_points[k + 1] <= cfg.low_cutoff]
        high = [k for k in range(64) if cfg.split_points[k + 1] > cfg.low_cutoff]
        assert all(g[a] >= g[b] - 1e-12 for a, b in zip(low, low[1:]))
        assert all(g[a] <= g[b] + 1e-12 for a, b in zip(high, high[1:]))

    def test_ramps_change_sign_past_b_and_2b(self):
        # defaults b = 30, low_cutoff = 35, 64 frames: the low ramp turns to a
        # cut past coefficient 30, the high ramp to a boost past 60
        run = cli.RunConfig()
        cfg = frequency.EnhancementConfig.uniform_bands(
            run.synth_frames, 1, run.low_cutoff, run.ramp, weight=0.5)
        g = profile_g(cfg)
        assert np.flatnonzero(g == 1.0).tolist() == [30, 60]
        assert np.flatnonzero(g > 1.0).tolist() == [*range(30), 61, 62, 63]
        assert np.flatnonzero(g[:35] < 1.0).tolist() == [31, 32, 33, 34]

    def test_band_index_out_of_range(self):
        # every coefficient maps to a band in [0, n_bands), the short last one included
        cfg = frequency.EnhancementConfig.uniform_bands(10, 4, 2, 30.0)
        g, dgdw, band_index = frequency.scaling_profile(cfg)
        assert band_index.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        assert g.shape == dgdw.shape == (10,)

    def test_profile_agrees_with_scalar_factors(self):
        # bands of 3 with cutoff 9: [0, 3), [3, 6), [6, 9) are low, the rest
        # high; each coefficient gets its band's closed form at the band start
        cfg = frequency.EnhancementConfig.uniform_bands(
            20, band_size=3, low_cutoff=9, ramp=4.0, weight=0.6)
        g, _, band_index = frequency.scaling_profile(cfg)
        for coeff in range(20):
            start = cfg.split_points[band_index[coeff]]
            if start < 9:
                expect = 1.0 + 0.6 * (1.0 - start / 4.0)
            else:
                expect = max(1.0 - 0.6 * (1.0 - (start - 4.0) / 4.0), 0.0)
            assert g[coeff] == pytest.approx(expect, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(length=st.integers(1, 64), band_size=st.integers(1, 9),
       cutoff_frac=st.floats(0.0, 0.999), ramp=st.floats(1.0, 40.0),
       weight=st.floats(0.0, 1.0), floor=st.sampled_from([0.0, 0.3]))
def test_uniform_bands_sample_the_per_coefficient_profile(length, band_size, cutoff_frac,
                                                          ramp, weight, floor):
    cutoff = int(cutoff_frac * length)
    fine = frequency.EnhancementConfig.uniform_bands(length, 1, cutoff, ramp, weight,
                                                     floor=floor)
    assert fine.split_points == tuple(range(length + 1))  # band size 1: one per coefficient
    g_fine, dgdw_fine, _ = frequency.scaling_profile(fine)
    coarse = frequency.EnhancementConfig.uniform_bands(length, band_size, cutoff, ramp,
                                                       weight, floor=floor)
    g, dgdw, band_index = frequency.scaling_profile(coarse)
    for coeff in range(length):
        start = coarse.split_points[band_index[coeff]]
        end = coarse.split_points[band_index[coeff] + 1]
        if start < cutoff < end:
            continue  # a straddling band is high, its start coefficient is low
        assert g[coeff] == g_fine[start]
        assert dgdw[coeff] == dgdw_fine[start]


class TestConfigValidation:
    def test_split_points_must_start_at_zero(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig((1, 4), (0.5,), 2, 30.0)

    def test_split_points_must_increase(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig((0, 3, 3), (0.5, 0.5), 1, 30.0)

    def test_one_weight_per_band(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig((0, 2, 4), (0.5,), 1, 30.0)

    def test_weights_confined_to_unit_interval(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig((0, 4), (1.5,), 1, 30.0)

    def test_cutoff_inside_range(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig((0, 4), (0.5,), 4, 30.0)

    def test_ramp_positive(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig((0, 4), (0.5,), 1, 0.0)

    @pytest.mark.parametrize("floor", [float("nan"), 2.0, -1.0])
    def test_floor_confined_to_unit_interval(self, floor):
        with pytest.raises(ValueError, match=r"floor must lie in \[0, 1\]"):
            frequency.EnhancementConfig((0, 4), (0.5,), 1, 30.0, floor=floor)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig((0, 4), (0.5,), 1, 30.0, mode="spline")

    def test_band_size_positive(self):
        with pytest.raises(ValueError):
            frequency.EnhancementConfig.uniform_bands(8, 0, 2, 30.0)

    def test_enhance_rejects_length_mismatch(self):
        cfg = frequency.EnhancementConfig.uniform_bands(8, 1, 2, 30.0)
        with pytest.raises(ValueError, match="config partitions 8 coefficients, spectrum has 9"):
            frequency.enhance(np.zeros(9), profile_g(cfg))


class TestEnhance:
    def test_pinned_two_coefficient_example(self):
        # spectrum [0, sqrt(2)] with cutoff 0 (all high), w=0.5, ramp 30:
        # g = [0, 1/60], so only sqrt(2)/60 survives in mode 1
        cfg = frequency.EnhancementConfig.uniform_bands(2, 1, low_cutoff=0,
                                                        ramp=30.0, weight=0.5)
        out = frequency.enhance(np.array([0.0, math.sqrt(2.0)]), profile_g(cfg))
        np.testing.assert_allclose(out, [0.0, math.sqrt(2.0) / 60.0], atol=1e-15)

    def test_all_zero_weights_reproduce_input(self):
        rng = numkit.make_rng(4)
        x = rng.standard_normal((3, 64))
        cfg = frequency.EnhancementConfig.uniform_bands(64, 1, 35, 30.0, weight=0.0)
        out = featurize(x, cfg)
        assert np.max(np.abs(out - x)) < 1e-12

    def test_energy_redistribution_identity(self):
        rng = numkit.make_rng(5)
        x = rng.standard_normal(64)
        cfg = frequency.EnhancementConfig.uniform_bands(64, 1, 35, 30.0, weight=0.7)
        g, _, _ = frequency.scaling_profile(cfg)
        coeffs = frequency.dct_forward(x)
        predicted = float(np.sum(g * g * coeffs * coeffs))
        out = featurize(x[None], cfg)
        actual = float(np.sum(out * out))
        assert abs(actual - predicted) / max(predicted, 1e-30) < 1e-9

    def test_weight_gradients_match_finite_differences(self):
        rng = numkit.make_rng(6)
        x = rng.standard_normal((2, 12))
        target = rng.standard_normal((2, 12))
        base = frequency.EnhancementConfig.uniform_bands(
            12, band_size=4, low_cutoff=5, ramp=2.0, weight=0.5)

        def loss_for(weights):
            out = featurize(x, base.with_weights(weights))
            return float(np.sum((out - target) ** 2))

        cfg = base
        out = featurize(x, cfg)
        _, dgdw, band_index = frequency.scaling_profile(cfg)
        analytic = frequency.enhance_weight_grads(frequency.dct_forward(x),
                                                  2.0 * (out - target), dgdw, band_index)
        step = 1e-6
        w0 = np.asarray(cfg.weights)
        for k in range(cfg.n_bands):
            wp, wm = w0.copy(), w0.copy()
            wp[k] += step
            wm[k] -= step
            numeric = (loss_for(wp) - loss_for(wm)) / (2 * step)
            denom = max(abs(analytic[k]), abs(numeric), 1e-4)
            assert abs(analytic[k] - numeric) / denom < 1e-4

    def test_cached_forward_matches_plain_forward(self):
        rng = numkit.make_rng(7)
        x = rng.standard_normal((3, 16))
        cfg = frequency.EnhancementConfig.uniform_bands(16, 1, 6, 5.0, weight=0.4)
        feat = pipeline.SkeletonFeaturizer(enhancement=cfg, enhance_vectors=True)
        plain = feat.features([pipeline.FeatureRecord(f"v{i}", 0, "train-seen", vector=row)
                               for i, row in enumerate(x)])
        cached = feat.from_spectrum(frequency.dct_forward(x))
        np.testing.assert_array_equal(plain, cached)

    @pytest.mark.parametrize("bad, mode, weight", [
        *[(bad, mode, 0.5) for bad in (math.nan, math.inf, -math.inf)
          for mode in ("piecewise", "learnable_only")],
        (math.nan, "learnable_only", 0.0),  # g = 0: NaN * 0 stays NaN
    ])
    def test_non_finite_coefficient_is_refused(self, bad, mode, weight):
        # enhance leaves the check to idct, which sees the scaled product
        cfg = frequency.EnhancementConfig.uniform_bands(16, 1, 6, 5.0, weight=weight,
                                                        mode=mode)
        x = numkit.make_rng(8).standard_normal((3, 16))
        coeffs = frequency.dct_forward(x)
        coeffs[1, 4] = x[1, 4] = bad
        feat = pipeline.SkeletonFeaturizer(enhancement=cfg, enhance_vectors=True)
        with pytest.raises(ValueError, match="spectrum contains non-finite"):
            feat.from_spectrum(coeffs)
        with pytest.raises(ValueError, match="non-finite"):
            featurize(x, cfg)


def reference_weight_grads(coeffs, grad_out, cfg):
    """The band-weight gradient as transform, product, row sum and bincount."""
    _, dgdw, band_index = frequency.scaling_profile(cfg)
    grad_spec = frequency.dct_forward(grad_out.reshape(coeffs.shape))
    per_coeff = (grad_spec * coeffs).reshape(-1, coeffs.shape[-1]).sum(axis=0)
    return np.bincount(band_index, weights=per_coeff * dgdw, minlength=cfg.n_bands)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 40),
       band_frac=st.floats(0.0, 1.0), cutoff_frac=st.floats(0.0, 0.999),
       ramp=st.floats(0.5, 40.0), mode=st.sampled_from(frequency.MODES),
       floor=st.sampled_from([0.0, 0.5, 1.0]), batch=st.integers(1, 9),
       sequences=st.booleans())
@example(seed=0, frames=16, band_frac=0.0, cutoff_frac=0.4, ramp=4.0, mode="piecewise",
         floor=1.0, batch=3, sequences=True)  # bands 5-7 clamped: their dg/dw is 0
def test_one_product_weight_grads_match_the_transformed_sum(
        seed, frames, band_frac, cutoff_frac, ramp, mode, floor, batch, sequences):
    # a step passes the rows it enhanced, as (N, J, C, F) sequence rows or
    # (N, F) enhance_vectors rows, the (N, d) feature gradient, and dg/dw
    # and the band index from the run's config at the step's weights
    rng = numkit.make_rng(seed)
    band_size = 1 + int(band_frac * (frames - 1))
    cfg = frequency.EnhancementConfig.uniform_bands(
        frames, band_size, int(cutoff_frac * frames), ramp, mode=mode, floor=floor)
    w = rng.uniform(0.0, 1.0, cfg.n_bands)
    _, dgdw, band_index = frequency.scaling_profile(cfg, w)
    rows = rng.standard_normal((batch, 3, 2, frames) if sequences else (batch, frames))
    grad_out = rng.standard_normal((batch, rows[0].size))
    want = reference_weight_grads(rows, grad_out, cfg.with_weights(w))
    got = frequency.enhance_weight_grads(rows, grad_out, dgdw, band_index)
    assert got.shape == (cfg.n_bands,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 40),
       band_frac=st.floats(0.0, 1.0), cutoff_frac=st.floats(0.0, 0.999),
       ramp=st.floats(0.5, 40.0), mode=st.sampled_from(frequency.MODES),
       floor=st.sampled_from([0.0, 0.5, 1.0]))
def test_step_weights_give_the_profile_of_the_reweighted_config(
        seed, frames, band_frac, cutoff_frac, ramp, mode, floor):
    # a trainer's per-step gains are those of the featurizer it returns,
    # whose config holds the final weights
    band_size = 1 + int(band_frac * (frames - 1))
    cfg = frequency.EnhancementConfig.uniform_bands(
        frames, band_size, int(cutoff_frac * frames), ramp, mode=mode, floor=floor)
    w = frequency.weights_from_raw(4.0 * numkit.make_rng(seed).standard_normal(cfg.n_bands))
    got = frequency.scaling_profile(cfg, w)
    want = frequency.scaling_profile(cfg.with_weights(w))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWeightSquash:
    def test_round_trip(self):
        w = np.array([0.01, 0.25, 0.5, 0.75, 0.99])
        back = frequency.weights_from_raw(frequency.raw_from_weights(w))
        np.testing.assert_allclose(back, w, atol=1e-12)

    def test_squash_stays_in_unit_interval(self):
        # saturated inputs may round to exactly 0 or 1, still inside [0, 1]
        raw = np.array([-1e3, -1.0, 0.0, 1.0, 1e3])
        w = frequency.weights_from_raw(raw)
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert np.all((w[1:4] > 0.0) & (w[1:4] < 1.0))
        assert w[2] == 0.5

    def test_extreme_weights_clipped_before_logit(self):
        raw = frequency.raw_from_weights(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(raw))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 40))
def test_round_trip_property(seed, frames):
    x = numkit.make_rng(seed).standard_normal(frames)
    back = frequency.idct(frequency.dct_forward(x))
    assert np.max(np.abs(back - x)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(2, 32),
       weight=st.floats(0.0, 1.0), cutoff_frac=st.floats(0.0, 0.99))
def test_redistribution_property(seed, frames, weight, cutoff_frac):
    x = numkit.make_rng(seed).standard_normal(frames)
    cfg = frequency.EnhancementConfig.uniform_bands(
        frames, 1, int(cutoff_frac * frames), 30.0, weight=weight)
    g, _, _ = frequency.scaling_profile(cfg)
    coeffs = frequency.dct_forward(x)
    predicted = float(np.sum(g * g * coeffs * coeffs))
    out = featurize(x[None], cfg)
    actual = float(np.sum(out * out))
    assert abs(actual - predicted) <= 1e-9 * max(predicted, 1.0)

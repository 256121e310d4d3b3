"""Objective tests: pinned calibrated-loss values, the pair-sum identity and
its Monte Carlo balance consequence, non-constancy witnesses for the four
triplet baselines, the ELBO's KL term against sampling, ELBO arithmetic,
and central-difference gradient checks for every loss."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqzsl import losses, numkit
from freqzsl.cli import RunConfig
from gradcheck import grad_check

E = math.e


def symmetric_batch():
    """B=2, both items D+ = D- in both directions (every pair term is 1/2)."""
    f = np.array([[0.0, 0.0], [0.0, 3.0]])
    g = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return losses.AlignmentBatch(f, f.copy(), g, g.copy(),
                                 labels=np.array([0, 1]),
                                 negatives=np.array([1, 0]))


def unit_gap_batch():
    """B=2, both items D+ = 1 and D- = 2 in both directions."""
    f = np.array([[0.0, 0.0], [2.0, 1.0]])
    g = np.array([[1.0, 0.0], [1.0, 1.0]])
    return losses.AlignmentBatch(f, f.copy(), g, g.copy(),
                                 labels=np.array([0, 1]),
                                 negatives=np.array([1, 0]))


def exchanged_batch(a):
    """B=2 with exchanged roles: item 0 has (D+, D-) = (1, 1+a), item 1 the
    reverse, in both directions. Realizes the pair-sum f(a) + f(-a)."""
    y = 2.0 * math.sqrt(1.0 + a) / (2.0 + a)
    x = 2.0 * (1.0 + a) / (2.0 + a)
    f = np.array([[0.0, 0.0], [x, y]])
    g = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 + a)]])
    return losses.AlignmentBatch(f, f.copy(), g, g.copy(),
                                 labels=np.array([0, 1]),
                                 negatives=np.array([1, 0]))


def random_batch(seed, b=6, d=3, classes=3):
    rng = numkit.make_rng(seed)
    labels = np.arange(b) % classes
    batch = losses.AlignmentBatch(
        rng.standard_normal((b, d)), rng.standard_normal((b, d)),
        rng.standard_normal((b, d)), rng.standard_normal((b, d)),
        labels=labels, negatives=losses.sample_negatives(labels, rng))
    return batch


def align_copy(batch, cfg, grad_scale=1.0):
    """alignment_loss on a copy of the batch's reconstructions, which it
    overwrites with their gradients, so the batch can be scored again."""
    fresh = dataclasses.replace(batch, g_s_t=batch.g_s_t.copy(), g_t_s=batch.g_t_s.copy())
    return losses.alignment_loss(fresh, cfg, grad_scale)


def align(batch, name, **cfg):
    """alignment_loss under a RunConfig built from keyword overrides."""
    return align_copy(batch, RunConfig(align_loss=name, **cfg))


def elbo(x, recon, mu, log_var, kl_weight=1.0):
    """losses.elbo on a copy of recon, which it overwrites with its gradient."""
    return losses.elbo(x, recon.copy(), mu, log_var, kl_weight)


def kl(mu, log_var):
    """KL(N(mu, diag exp(log_var)) || N(0, I)) meaned over rows: the ELBO of a
    perfect reconstruction at kl_weight 1, whose squared error is exactly 0."""
    x = np.zeros((np.shape(mu)[0], 1))
    return losses.elbo(x, x.copy(), mu, log_var, 1.0).value


def check_batch_grads(loss_of_batch, batch, tol=1e-4):
    """Finite-difference check of a LossValue's grads over all four arrays."""
    keys = ("f_t", "f_s", "g_s_t", "g_t_s")

    def loss_fn(arrays):
        b = losses.AlignmentBatch(arrays[1], arrays[0], arrays[2], arrays[3],
                                  labels=batch.labels, negatives=batch.negatives)
        out = loss_of_batch(b)
        return out.value, [out.grads[k] for k in ("f_s", "f_t", "g_s_t", "g_t_s")]

    params = [batch.f_s.copy(), batch.f_t.copy(),
              batch.g_s_t.copy(), batch.g_t_s.copy()]
    report = grad_check(loss_fn, params)
    assert report.max_rel_error < tol, report


class TestBatchValidation:
    def test_shape_disagreement_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            losses.AlignmentBatch(np.zeros((2, 3)), np.zeros((2, 3)),
                                  np.zeros((2, 4)), np.zeros((2, 3)),
                                  np.array([0, 1]), np.array([1, 0]))

    def test_negative_index_out_of_range(self):
        with pytest.raises(ValueError, match="index out of range"):
            losses.AlignmentBatch(np.zeros((2, 3)), np.zeros((2, 3)),
                                  np.zeros((2, 3)), np.zeros((2, 3)),
                                  np.array([0, 1]), np.array([1, 2]))

    def test_label_sharing_negative_names_item(self):
        with pytest.raises(ValueError, match="item 1"):
            losses.AlignmentBatch(np.zeros((3, 2)), np.zeros((3, 2)),
                                  np.zeros((3, 2)), np.zeros((3, 2)),
                                  np.array([0, 1, 1]), np.array([1, 2, 0]))


class TestSampleNegatives:
    def test_two_item_batch_forced_mutual(self):
        rng = numkit.make_rng(0)
        neg = losses.sample_negatives(np.array([0, 1]), rng)
        np.testing.assert_array_equal(neg, [1, 0])

    def test_single_class_batch_raises(self):
        rng = numkit.make_rng(0)
        with pytest.raises(ValueError, match="single-class"):
            losses.sample_negatives(np.array([0, 0, 0]), rng)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), b=st.integers(2, 10))
    def test_negatives_always_cross_label(self, seed, b):
        rng = numkit.make_rng(seed)
        labels = rng.integers(0, 3, size=b)
        if np.unique(labels).size < 2:
            labels[0] = (labels[1] + 1) % 3
        neg = losses.sample_negatives(labels, rng)
        assert np.all(labels[neg] != labels)

    @staticmethod
    def per_item_reference(labels, rng):
        """One scalar draw per item, in item order, over its different-label indices."""
        out = np.empty(labels.shape[0], dtype=np.int64)
        for i in range(labels.shape[0]):
            cand = np.flatnonzero(labels != labels[i])
            out[i] = cand[rng.integers(cand.size)]
        return out

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 6), min_size=2, max_size=80)
           .filter(lambda ls: len(set(ls)) > 1),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_item_loop_draw_for_draw(self, labels, seed):
        labels = np.asarray(labels)
        rng_ref, rng_vec = numkit.make_rng(seed), numkit.make_rng(seed)
        want = self.per_item_reference(labels, rng_ref)
        got = losses.sample_negatives(labels, rng_vec)
        np.testing.assert_array_equal(got, want)
        assert rng_vec.bit_generator.state == rng_ref.bit_generator.state


class TestScatterRows:
    def test_matches_add_at_with_repeated_indices(self):
        rng = numkit.make_rng(3)
        index = np.array([4, 0, 4, 4, 2, 0, 7, 4])
        rows = rng.standard_normal((8, 960))
        want = np.zeros((9, 960))
        np.add.at(want, index, rows)
        got = losses._scatter_matrix(index, 9) @ rows
        assert got.shape == (9, 960)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.all(got[[1, 3, 5, 6, 8]] == 0.0)


class TestPairSigmoid:
    def test_zero_gap_is_half(self):
        assert losses.pair_sigmoid(np.array([0.0]), 100.0)[0] == 0.5

    def test_pair_sum_identity_exact(self):
        rng = numkit.make_rng(1)
        a = rng.standard_normal(10_000) * 50.0
        for temp in (1.0, 10.0, 100.0):
            s = losses.pair_sigmoid(a, temp) + losses.pair_sigmoid(-a, temp)
            assert np.max(np.abs(s - 1.0)) < 1e-12

    def test_overflow_safe_at_extreme_gaps(self):
        out = losses.pair_sigmoid(np.array([-1e6, 1e6]), 1.0)
        assert out[0] == 1.0 and out[1] == 0.0
        assert np.all(np.isfinite(out))


class TestCalibrated:
    def test_equal_distances_pin_loss_at_temperature(self):
        batch = symmetric_batch()
        for temp in (1.0, 10.0, 100.0):
            out = align(batch, "calibrated", temperature=temp)
            assert out.value == pytest.approx(temp, abs=1e-12)

    def test_unit_gap_frozen_value(self):
        # D+ = 1, D- = 2, T = 1, both directions: 2 * l(1) = 2 / (1 + e)
        out = align(unit_gap_batch(), "calibrated", temperature=1.0)
        assert out.value == pytest.approx(2.0 / (1.0 + E), abs=1e-12)
        assert out.value == pytest.approx(0.5378828427399902, abs=1e-12)

    def test_loss_increases_with_temperature(self):
        batch = unit_gap_batch()
        vals = [align(batch, "calibrated", temperature=t).value
                for t in (1.0, 10.0, 100.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_exchanged_batch_is_invariant_in_the_gap(self):
        # l(a) + l(-a) = 1 pins the value at T regardless of a
        v1 = align(exchanged_batch(1.0), "calibrated", temperature=1.0).value
        v2 = align(exchanged_batch(2.0), "calibrated", temperature=1.0).value
        assert v1 == pytest.approx(1.0, abs=1e-12)
        assert v2 == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_balance_at_half(self):
        # anchors and reconstructions drawn iid: mean pair term sits at 1/2
        rng = numkit.make_rng(2)
        n, d = 100_000, 4
        t = rng.standard_normal((n, d))
        xi = rng.standard_normal((n, d))
        xj = rng.standard_normal((n, d))
        a = np.sum((t - xj) ** 2, axis=1) - np.sum((t - xi) ** 2, axis=1)
        ell = losses.pair_sigmoid(a, 100.0)
        se = float(np.std(ell)) / math.sqrt(n)
        assert abs(float(np.mean(ell)) - 0.5) < 3.0 * se

    def test_gradients(self):
        for temp in (1.0, 100.0):
            check_batch_grads(
                lambda b, t=temp: align(b, "calibrated", temperature=t),
                random_batch(3))


class TestTripletBaselines:
    def test_t1_equal_distances_give_margin_per_direction(self):
        batch = symmetric_batch()
        assert align(batch, "t1", margin=1.0).value == pytest.approx(2.0, abs=1e-12)
        assert align(batch, "t1", margin=0.25).value == pytest.approx(0.5, abs=1e-12)

    def test_t1_inactive_when_gap_exceeds_margin(self):
        # D+ = 1, D- = 2, margin 0.5: slack = -0.5 on every item
        out = align(unit_gap_batch(), "t1", margin=0.5)
        assert out.value == 0.0
        assert all(np.all(g == 0.0) for g in out.grads.values())

    def test_pair_sums_are_not_constant(self):
        # the calibrated loss is flat across exchanged batches; none of the
        # four baselines is
        for name in ("t1", "t2", "t3", "t4"):
            v1 = align(exchanged_batch(1.0), name, temperature=1.0, margin=1.0).value
            v2 = align(exchanged_batch(2.0), name, temperature=1.0, margin=1.0).value
            assert abs(v1 - v2) > 1e-3

    def test_t2_frozen_value(self):
        # both items at gap 1, T=1, two directions: 2 * log l(1) = -2 log(1+e)
        out = align(unit_gap_batch(), "t2", temperature=1.0)
        assert out.value == pytest.approx(-2.0 * math.log(1.0 + E), abs=1e-12)

    def test_t2_finite_at_extreme_gaps(self):
        # large D- - D+ underflows l to 0; the log form must stay finite
        f = np.array([[0.0], [100.0]])
        g = np.array([[0.0], [100.0]])
        batch = losses.AlignmentBatch(f, f.copy(), g, g.copy(),
                                      np.array([0, 1]), np.array([1, 0]))
        out = align(batch, "t2", temperature=1.0)
        assert np.isfinite(out.value)

    def test_t3_uses_plain_distances(self):
        # symmetric batch: d+ = d- per item, ratio = 1/2, value = T*B*... = 2*(T/B)*sum(1/4)
        out = align(symmetric_batch(), "t3", temperature=1.0)
        assert out.value == pytest.approx(0.5, abs=1e-12)

    @staticmethod
    def t3_reference(batch, temperature):
        """t3 assembled on plain distances, as before the shared chain existed."""
        b = batch.size
        grads = {k: np.zeros_like(getattr(batch, k)) for k in ("f_t", "f_s", "g_s_t", "g_t_s")}
        total = 0.0
        for anchor_key, recon_key in (("f_t", "g_s_t"), ("f_s", "g_t_s")):
            anchor, recon = getattr(batch, anchor_key), getattr(batch, recon_key)
            u = anchor - recon
            v = anchor - recon[batch.negatives]
            # squared norms summed as the driver sums them, so values match bit for bit
            dp = np.sqrt(np.einsum("ij,ij->i", u, u))
            dn = np.sqrt(np.einsum("ij,ij->i", v, v))
            r = 1.0 - losses.pair_sigmoid(dp - dn, 1.0)
            total += temperature / b * float(np.sum(r * r))
            coef = 2.0 * temperature / b * r * r * (1.0 - r)
            with np.errstate(invalid="ignore", divide="ignore"):
                du = np.where(dp[:, None] > 0, u / np.where(dp == 0, 1, dp)[:, None], 0.0)
                dv = np.where(dn[:, None] > 0, v / np.where(dn == 0, 1, dn)[:, None], 0.0)
            grads[anchor_key] += coef[:, None] * du - coef[:, None] * dv
            grads[recon_key] -= coef[:, None] * du
            np.add.at(grads[recon_key], batch.negatives, coef[:, None] * dv)
        return total, grads

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(2, 12), d=st.integers(1, 6),
           temperature=st.sampled_from([1.0, 10.0, 100.0]),
           zero_pos=st.booleans(), zero_neg=st.booleans())
    def test_t3_matches_plain_distance_assembly(self, seed, b, d, temperature,
                                                zero_pos, zero_neg):
        rng = numkit.make_rng(seed)
        labels = np.arange(b) % 2
        f_t, f_s, g_s_t, g_t_s = (rng.standard_normal((b, d)) for _ in range(4))
        negatives = losses.sample_negatives(labels, rng)
        if zero_pos:  # item 0's anchor equals its positive: D+ = 0
            g_s_t[0] = f_t[0]
            g_t_s[0] = f_s[0]
        if zero_neg:  # item 1's anchor equals its negative: D- = 0
            g_s_t[negatives[1]] = f_t[1]
        batch = losses.AlignmentBatch(f_t, f_s, g_s_t, g_t_s, labels, negatives)
        want_value, want = self.t3_reference(batch, temperature)
        got = align(batch, "t3", temperature=temperature)
        assert got.value == want_value
        scale = max(float(np.max(np.abs(g))) for g in want.values())
        for key, g in want.items():
            assert np.max(np.abs(got.grads[key] - g)) <= 1e-12 * scale, key

    def test_t4_zero_when_ratio_hinge_inactive(self):
        # D- = 2, D+ = 1, margin 1.5: 1 - 2/2.5 = 0.2 active; margin 0.5: 1 - 2/1.5 < 0
        assert align(unit_gap_batch(), "t4", margin=1.5).value > 0.0
        assert align(unit_gap_batch(), "t4", margin=0.5).value == 0.0

    @pytest.mark.parametrize("name", ["t1", "t4"])
    def test_hinge_at_zero_slack_has_zero_gradient(self, name):
        # D+ = 0 and D- = 1 at margin 1 put both items of both directions on
        # the hinge's kink (t1: D+ - D- + m = 0; t4: 1 - D-/(D+ + m) = 0),
        # where the subgradient taken is the inactive side's, zero
        f = np.array([[0.0, 0.0], [1.0, 0.0]])
        batch = losses.AlignmentBatch(f, f.copy(), f.copy(), f.copy(),
                                      labels=np.array([0, 1]), negatives=np.array([1, 0]))
        out = align(batch, name, margin=1.0)
        assert out.value == 0.0
        assert set(out.grads) == {"f_t", "f_s", "g_s_t", "g_t_s"}
        for key, g in out.grads.items():
            assert not g.any(), key

    def test_gradients_t1(self):
        check_batch_grads(lambda b: align(b, "t1", margin=1.0), random_batch(5))

    def test_gradients_t2(self):
        for temp in (1.0, 100.0):
            check_batch_grads(lambda b, t=temp: align(b, "t2", temperature=t),
                              random_batch(6))

    def test_gradients_t3(self):
        check_batch_grads(lambda b: align(b, "t3", temperature=1.0), random_batch(7))

    def test_gradients_t4(self):
        check_batch_grads(lambda b: align(b, "t4", margin=1.0), random_batch(8))

    def test_dispatch_matches_direct_calls(self):
        # each name reaches its own formula and reads only its own cfg field
        batch = random_batch(9)
        t, m = 10.0, 1.0
        direct = dict.fromkeys(losses.ALIGN_LOSSES, 0.0)
        for anchor, recon in ((batch.f_t, batch.g_s_t), (batch.f_s, batch.g_t_s)):
            dp = np.sum((anchor - recon) ** 2, axis=1)
            dn = np.sum((anchor - recon[batch.negatives]) ** 2, axis=1)
            ell = 1.0 / (1.0 + np.exp((dn - dp) / t))
            r = 1.0 / (1.0 + np.exp(np.sqrt(dn) - np.sqrt(dp)))
            direct["calibrated"] += t * np.mean(ell)
            direct["t1"] += np.mean(np.maximum(dp - dn + m, 0.0))
            direct["t2"] += np.mean(np.log(ell))
            direct["t3"] += t * np.mean(r * r)
            direct["t4"] += np.mean(np.maximum(1.0 - dn / (dp + m), 0.0))
        for name, want in direct.items():
            cfg = RunConfig(temperature=t, margin=m, align_loss=name)
            assert align_copy(batch, cfg).value == pytest.approx(
                want, rel=1e-12, abs=1e-12), name

    @pytest.mark.parametrize("loss_of_batch", [
        lambda b, n=name: align(b, n, temperature=10.0) for name in losses.ALIGN_LOSSES
    ])
    @pytest.mark.parametrize("anchors", [(), ("f_s",), ("f_t",)])
    def test_fewer_anchor_grads_leave_the_rest_unchanged(self, loss_of_batch, anchors):
        batch = random_batch(11)
        full = loss_of_batch(batch)
        lean = loss_of_batch(dataclasses.replace(batch, anchor_grads=anchors))
        assert lean.value == full.value
        assert set(lean.grads) == {"g_s_t", "g_t_s", *anchors}
        for key in lean.grads:
            np.testing.assert_array_equal(lean.grads[key], full.grads[key])

    def test_reconstruction_gradients_are_written_over_the_batch(self):
        batch = random_batch(14)
        want = align_copy(batch, RunConfig(align_loss="calibrated"), 0.25)
        out = losses.alignment_loss(batch, RunConfig(align_loss="calibrated"), 0.25)
        assert out.grads["g_s_t"] is batch.g_s_t and out.grads["g_t_s"] is batch.g_t_s
        for key in ("f_t", "f_s", "g_s_t", "g_t_s"):
            np.testing.assert_array_equal(out.grads[key], want.grads[key])

    def test_grad_scale_scales_every_gradient_and_not_the_value(self):
        batch = random_batch(15)
        cfg = RunConfig(align_loss="t2", temperature=10.0)
        one, scaled = align_copy(batch, cfg), align_copy(batch, cfg, 0.5)
        assert scaled.value == one.value
        for key in one.grads:
            np.testing.assert_allclose(scaled.grads[key], 0.5 * one.grads[key],
                                       rtol=1e-15, atol=0)

    def test_t4_with_zero_margin_rejected(self):
        # D+ = D- = 0 would make t4's 1 - D- / (D+ + m) a 0/0
        with pytest.raises(ValueError, match="t4"):
            align(random_batch(12), "t4", margin=0.0)

    def test_unknown_loss_name_rejected(self):
        with pytest.raises(ValueError, match="align_loss must be one of"):
            align(random_batch(10), "t9")

    @pytest.mark.parametrize("entry", [1e200, math.nan], ids=["finite-overflow", "nan"])
    def test_distance_check_names_its_arrays_whichever_the_cause(self, entry):
        batch = random_batch(13)
        batch.f_s[0, 0] = entry  # a finite 1e200 leaves every entry finite; its square is inf
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="^a distance between f_s and g_t_s rows is non-finite or its "
                                  "square overflows$"):
            align(batch, "calibrated")


class TestLossConfig:
    """The objective's keys of RunConfig, which the losses read."""

    def test_defaults_carry_published_values(self):
        cfg = RunConfig()
        assert cfg.temperature == 100.0
        assert cfg.align_weight == 0.1

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(temperature=0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(kl_weight=-1.0)

    @pytest.mark.parametrize("key, value", [
        ("temperature", float("nan")), ("temperature", -1.0),
        ("align_weight", float("nan")), ("align_weight", -0.1),
        ("kl_weight", float("nan")), ("margin", float("nan")), ("margin", -1.0),
    ])
    def test_out_of_domain_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value})


class TestKl:
    """The ELBO's KL term, read where the reconstruction term is exactly 0."""

    def test_standard_normal_is_zero(self):
        assert kl(np.zeros((1, 3)), np.zeros((1, 3))) == 0.0

    def test_unit_mean_frozen_value(self):
        # mu=1, sigma^2=1: 0.5 * (1 + 1 - 1 - 0) = 0.5
        assert kl(np.array([[1.0]]), np.array([[0.0]])) == 0.5

    def test_wide_variance_frozen_value(self):
        # mu=0, log sigma^2 = 1: 0.5 * (e - 2)
        val = kl(np.array([[0.0]]), np.array([[1.0]]))
        assert val == pytest.approx(0.5 * (E - 2.0), abs=1e-15)
        assert val == pytest.approx(0.35914091422952255, abs=1e-15)

    def test_batch_rows_are_meaned(self):
        mu = np.array([[1.0], [0.0]])
        lv = np.array([[0.0], [1.0]])
        expected = 0.5 * (0.5 + 0.5 * (E - 2.0))
        assert kl(mu, lv) == pytest.approx(expected, abs=1e-15)

    def test_matches_monte_carlo(self):
        rng = numkit.make_rng(11)
        for _ in range(5):
            d = 3
            mu = rng.standard_normal(d)
            lv = rng.uniform(-1.5, 1.5, size=d)
            sigma = np.exp(0.5 * lv)
            n = 100_000
            eps = rng.standard_normal((n, d))
            z = mu + sigma * eps
            # log q - log p per draw
            per = 0.5 * np.sum(z * z - eps * eps - lv, axis=1)
            se = float(np.std(per)) / math.sqrt(n)
            closed = kl(mu[None, :], lv[None, :])
            assert abs(float(np.mean(per)) - closed) < 3.0 * se

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl(np.zeros((1, 2)), np.zeros((1, 3)))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), d=st.integers(1, 8))
    def test_nonnegative_always(self, seed, d):
        rng = numkit.make_rng(seed)
        val = kl(rng.standard_normal((1, d)) * 3, rng.uniform(-4, 4, size=(1, d)))
        assert val >= 0.0


class TestElbo:
    def test_perfect_reconstruction_leaves_kl_only(self):
        x = np.array([[0.3, -0.7]])
        out = elbo(x, x, np.array([[1.0]]), np.array([[0.0]]))
        assert out.value == pytest.approx(0.5, abs=1e-15)

    def test_reconstruction_term_is_mean_over_dims(self):
        x = np.zeros((1, 4))
        recon = np.ones((1, 4))
        out = elbo(x, recon, np.zeros((1, 2)), np.zeros((1, 2)), kl_weight=1.0)
        assert out.value == pytest.approx(1.0, abs=1e-15)

    def test_kl_weight_scales_only_the_kl_term(self):
        x = np.zeros((1, 4))
        recon = np.ones((1, 4))
        mu = np.array([[1.0]])
        lv = np.array([[0.0]])
        v1 = elbo(x, recon, mu, lv, kl_weight=1.0).value
        v2 = elbo(x, recon, mu, lv, kl_weight=3.0).value
        assert v2 - v1 == pytest.approx(2.0 * 0.5, abs=1e-15)

    def test_batch_items_are_meaned(self):
        x = np.zeros((2, 2))
        recon = np.array([[1.0, 1.0], [0.0, 0.0]])
        out = elbo(x, recon, np.zeros((2, 1)), np.zeros((2, 1)))
        assert out.value == pytest.approx(0.5, abs=1e-15)

    def test_recon_gradient_is_written_over_recon(self):
        rng = numkit.make_rng(12)
        x, recon = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        mu, lv = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        want = elbo(x, recon, mu, lv)
        out = losses.elbo(x, recon, mu, lv, 1.0)
        assert set(out.grads) == {"recon", "mu", "log_var"}
        assert out.grads["recon"] is recon
        assert out.value == want.value
        np.testing.assert_array_equal(recon, want.grads["recon"])

    def test_recon_gradient_is_the_scaled_residual_bit_for_bit(self):
        rng = numkit.make_rng(14)
        x, recon = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
        out = elbo(x, recon, rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
        np.testing.assert_array_equal(out.grads["recon"], 2.0 * (recon - x) / (7 * 5))

    def test_gradients(self):
        rng = numkit.make_rng(13)
        x = rng.standard_normal((3, 4))
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal((3, 2)),
                  rng.uniform(-1, 1, size=(3, 2))]

        def loss_fn(arrs):
            out = elbo(x, arrs[0], arrs[1], arrs[2], kl_weight=0.7)
            return out.value, [out.grads["recon"], out.grads["mu"],
                               out.grads["log_var"]]

        report = grad_check(loss_fn, arrays)
        assert report.max_rel_error < 1e-4

    def test_shape_disagreement_rejected(self):
        with pytest.raises(ValueError):
            elbo(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 1)), np.zeros((2, 1)))

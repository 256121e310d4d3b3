"""Twin-VAE tests: encoder/decoder wiring against the dense-kernel oracle,
reparameterization statistics (through sample_class_latents), cross
reconstructions from posterior means, the full stage-2 gradient under frozen noise,
training-curve descent through the stage-2 loop, and the VAE's round trip
through the checkpoint codec."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqzsl import cli, crossvae, losses, numkit, pipeline, semantics
from freqzsl.cli import RunConfig
from gradcheck import grad_check


def zero_mlp(sizes):
    """All-zero affine stack: every input maps to a zero output."""
    ws = [np.zeros((nout, nin)) for nin, nout in zip(sizes[:-1], sizes[1:])]
    return numkit.MlpParams(ws, [np.zeros(nout) for nout in sizes[1:]])


def tiny_params(seed=0, skel_dim=4, text_dim=3, latent_dim=2, hidden=(5,)):
    rng = numkit.make_rng(seed)
    return crossvae.init_vae_params(skel_dim, text_dim, latent_dim, rng, hidden)


def stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t, cfg, feature_grads=True):
    """stage2_loss writing into views of one fresh flat vector, as the trainer
    passes them, every entry to be overwritten: (breakdown, parameter gradients
    in param_arrays() order, skeleton-feature gradient)."""
    flat, views = numkit.flatten(params.param_arrays())
    grads = params.with_arrays(views)
    flat[:] = np.nan
    breakdown, d_f_s = crossvae.stage2_loss(params, f_s, f_t, labels, negatives,
                                            eps_s, eps_t, cfg, grads, feature_grads)
    return breakdown, views, d_f_s


class TestInit:
    @pytest.mark.parametrize("hidden", [(3,), (5, 7)])
    def test_networks_take_the_given_hidden_widths(self, hidden):
        params = tiny_params(hidden=hidden)
        nets = {"skel_encoder": (4, *hidden, 4), "text_encoder": (3, *hidden, 4),
                "skel_decoder": (2, *hidden, 4), "text_decoder": (2, *hidden, 3)}
        for name, sizes in nets.items():
            net = getattr(params, name)
            assert [w.shape for w in net.weights] == list(zip(sizes[1:], sizes[:-1])), name
            assert [b.shape for b in net.biases] == [(n,) for n in sizes[1:]], name


class TestPosterior:
    def test_zero_encoder_gives_standard_posterior(self):
        params = tiny_params()
        zero = zero_mlp((4, 5, 4))
        params.skel_encoder = zero
        mu, log_var = crossvae.posterior(params, "skel_encoder", np.ones((1, 4)))
        np.testing.assert_array_equal(mu, np.zeros((1, 2)))
        np.testing.assert_array_equal(log_var, np.zeros((1, 2)))

    def test_matches_forward_oracle(self):
        params = tiny_params(1)
        x = numkit.make_rng(2).standard_normal((1, 3))
        mu, log_var = crossvae.posterior(params, "text_encoder", x)
        out, _ = numkit.mlp_forward(params.text_encoder, x)
        np.testing.assert_array_equal(mu, out[:, :2])
        np.testing.assert_array_equal(log_var, out[:, 2:])

    def test_refused_input_names_the_encoder(self):
        with pytest.raises(ValueError, match="^text_encoder input dim"):
            crossvae.posterior(tiny_params(), "text_encoder", np.ones((1, 4)))

    def test_batched_posterior_matches_rows(self):
        params = tiny_params(3)
        xs = numkit.make_rng(4).standard_normal((5, 4))
        mu, _ = crossvae.posterior(params, "skel_encoder", xs)
        for i in range(5):
            one, _ = crossvae.posterior(params, "skel_encoder", xs[i:i + 1])
            np.testing.assert_allclose(mu[i], one[0], atol=1e-14)


def fixed_posterior_params(mu, log_var, text_dim=3):
    """VAE whose text posterior is N(mu, exp(log_var)) for any input: the text
    encoder is one linear layer with zero weights and bias [mu, log_var]."""
    mu = np.asarray(mu, dtype=np.float64)
    params = tiny_params(latent_dim=mu.size, text_dim=text_dim)
    params.text_encoder = numkit.MlpParams(
        [np.zeros((2 * mu.size, text_dim))], [np.concatenate([mu, log_var])])
    return params


class TestReparameterize:
    """z = mu + exp(log_var / 2) * eps, as sample_class_latents draws it."""

    def test_vanishing_variance_returns_mean(self):
        params = fixed_posterior_params([1.0, -2.0], [-100.0, -100.0])
        z = crossvae.sample_class_latents(params, np.ones(3), 4, numkit.make_rng(0))
        np.testing.assert_allclose(z, np.tile([1.0, -2.0], (4, 1)), atol=1e-20)

    def test_seeded_draw_reproducible(self):
        params = fixed_posterior_params(np.zeros(3), np.zeros(3))
        a = crossvae.sample_class_latents(params, np.ones(3), 5, numkit.make_rng(5))
        b = crossvae.sample_class_latents(params, np.ones(3), 5, numkit.make_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_noise_is_the_generators_next_normal_draws(self):
        params = fixed_posterior_params([1.0], [math.log(4.0)])
        eps = numkit.make_rng(7).standard_normal((3, 1))
        z = crossvae.sample_class_latents(params, np.ones(3), 3, numkit.make_rng(7))
        np.testing.assert_allclose(z, 1.0 + 2.0 * eps, rtol=0, atol=1e-15)

    def test_sample_mean_approaches_mu(self):
        mu = np.array([0.7, -1.1])
        lv = np.array([0.2, -0.4])
        params = fixed_posterior_params(mu, lv)
        z = crossvae.sample_class_latents(params, np.ones(3), 100_000, numkit.make_rng(6))
        se = np.exp(0.5 * lv) / math.sqrt(100_000)
        assert np.all(np.abs(z.mean(axis=0) - mu) < 3.0 * se)


def align_with_hand_decoded_means(params, f_s, f_t, labels, negatives, cfg):
    """Alignment loss over cross reconstructions decoded from posterior means."""
    mu_s, _ = crossvae.posterior(params, "skel_encoder", f_s)
    mu_t, _ = crossvae.posterior(params, "text_encoder", f_t)
    g_s_t, _ = numkit.mlp_forward(params.text_decoder, mu_s)
    g_t_s, _ = numkit.mlp_forward(params.skel_decoder, mu_t)
    # alignment_loss overwrites the reconstructions, so it gets copies
    batch = losses.AlignmentBatch(f_t, f_s, g_s_t.copy(), g_t_s.copy(), labels, negatives)
    return losses.alignment_loss(batch, cfg, 1.0).value, g_s_t, g_t_s


class TestCrossReconstruct:
    """stage2_loss aligns text decoded from skeleton means, and back."""

    def align_terms(self, params, seed):
        f_s, f_t, labels, negatives, rng = make_batch(seed, text_dim=params.text_encoder.in_dim)
        eps_s = rng.standard_normal((4, params.latent_dim))
        eps_t = rng.standard_normal((4, params.latent_dim))
        cfg = RunConfig(temperature=5.0)
        breakdown, _, _ = stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t, cfg)
        want = align_with_hand_decoded_means(params, f_s, f_t, labels, negatives, cfg)
        return breakdown["align"], want

    def test_zero_decoders_give_zero_features(self):
        params = tiny_params()
        params.text_decoder = zero_mlp((2, 5, 3))
        params.skel_decoder = zero_mlp((2, 5, 4))
        align, (want, g_s_t, g_t_s) = self.align_terms(params, 20)
        assert np.all(g_s_t == 0.0) and np.all(g_t_s == 0.0)
        assert align == pytest.approx(want, rel=1e-12)

    def test_identity_linear_decoder_passes_latent_through(self):
        params = tiny_params(text_dim=2)
        params.text_decoder = numkit.MlpParams([np.eye(2)], [np.zeros(2)])
        align, (want, g_s_t, _) = self.align_terms(params, 21)
        f_s = make_batch(21, text_dim=2)[0]
        np.testing.assert_array_equal(g_s_t, crossvae.posterior(params, "skel_encoder", f_s)[0])
        assert align == pytest.approx(want, rel=1e-12)

    def test_matches_forward_oracle(self):
        align, (want, _, _) = self.align_terms(tiny_params(7), 8)
        assert align == pytest.approx(want, rel=1e-12)


def make_batch(seed, b=4, skel_dim=4, text_dim=3, classes=2):
    rng = numkit.make_rng(seed)
    f_s = rng.standard_normal((b, skel_dim))
    f_t = rng.standard_normal((b, text_dim))
    labels = np.arange(b) % classes
    negatives = losses.sample_negatives(labels, rng)
    return f_s, f_t, labels, negatives, rng


class TestStage2Loss:
    def test_breakdown_terms_compose_the_total(self):
        params = tiny_params(9)
        f_s, f_t, labels, negatives, rng = make_batch(10)
        eps_s = rng.standard_normal((4, 2))
        eps_t = rng.standard_normal((4, 2))
        cfg = RunConfig(temperature=10.0, align_weight=0.3)
        breakdown, _, _ = stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t, cfg)
        assert breakdown["vae"] == pytest.approx(
            breakdown["vae_skel"] + breakdown["vae_text"], abs=1e-12)
        assert breakdown["total"] == pytest.approx(
            breakdown["vae"] + 0.3 * breakdown["align"], abs=1e-12)

    def test_zero_align_weight_leaves_the_vae_terms_alone(self):
        params = tiny_params(9)
        f_s, f_t, labels, negatives, rng = make_batch(10)
        eps_s = rng.standard_normal((4, 2))
        eps_t = rng.standard_normal((4, 2))
        cfg = RunConfig(temperature=10.0, align_weight=0.0)
        breakdown, _, _ = stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t, cfg)
        assert breakdown["align"] > 0.0
        assert breakdown["total"] == breakdown["vae"]

    def test_zero_align_weight_decouples_alignment(self):
        params = tiny_params(11)
        f_s, f_t, labels, negatives, rng = make_batch(12)
        eps_s = rng.standard_normal((4, 2))
        eps_t = rng.standard_normal((4, 2))
        on = RunConfig(align_weight=0.5)
        off = RunConfig(align_weight=0.0)
        _, g_on, _ = stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t, on)
        _, g_off, _ = stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t, off)
        # gradients differ when alignment is on, and the off case must equal
        # a pure twin-VAE step: recompute with alignment fully removed
        assert any(not np.array_equal(a, b) for a, b in zip(g_on, g_off))
        _, g_off2, _ = stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t,
                              dataclasses.replace(off, align_loss="t1"))
        for a, b in zip(g_off, g_off2):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("align_loss", losses.ALIGN_LOSSES)
    def test_full_gradient_with_frozen_noise(self, align_loss):
        params = tiny_params(13, skel_dim=4, text_dim=3, latent_dim=2, hidden=(4,))
        f_s, f_t, labels, negatives, rng = make_batch(14)
        eps_s = rng.standard_normal((4, 2))
        eps_t = rng.standard_normal((4, 2))
        cfg = RunConfig(temperature=5.0, align_weight=0.4, margin=1.0, align_loss=align_loss)

        def loss_fn(arrays):
            p = params.with_arrays(arrays)
            breakdown, grads, _ = stage2(p, f_s, f_t, labels, negatives, eps_s, eps_t, cfg)
            return breakdown["total"], grads

        report = grad_check(loss_fn, params.param_arrays())
        assert report.max_rel_error < 1e-4, (align_loss, report.max_rel_error)

    @pytest.mark.parametrize("align_loss", losses.ALIGN_LOSSES)
    def test_gradients_written_into_views_without_feature_grads_are_identical(
            self, align_loss):
        params = tiny_params(17, hidden=(4, 3))
        f_s, f_t, labels, negatives, rng = make_batch(18, b=6, classes=3)
        eps_s = rng.standard_normal((6, 2))
        eps_t = rng.standard_normal((6, 2))
        cfg = RunConfig(temperature=5.0, align_weight=0.4, margin=1.0, align_loss=align_loss)
        ref_breakdown, ref, _ = stage2(params, f_s, f_t, labels, negatives,
                                       eps_s, eps_t, cfg)
        breakdown, got, d_f_s = stage2(params, f_s, f_t, labels, negatives,
                                       eps_s, eps_t, cfg, feature_grads=False)
        assert d_f_s is None
        assert breakdown == ref_breakdown
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("feature_grads, anchors", [(True, ("f_s",)), (False, ())])
    def test_alignment_is_asked_only_for_the_anchor_gradient_it_chains(
            self, monkeypatch, feature_grads, anchors):
        # d_f_s reads the skeleton anchor's gradient; the text anchor's is never read
        asked, real = [], losses.alignment_loss

        def recording(batch, *args):
            asked.append(batch.anchor_grads)
            out = real(batch, *args)
            assert set(out.grads) == {"g_s_t", "g_t_s", *anchors}
            return out

        monkeypatch.setattr(losses, "alignment_loss", recording)
        params = tiny_params(19)
        f_s, f_t, labels, negatives, rng = make_batch(20)
        stage2(params, f_s, f_t, labels, negatives, rng.standard_normal((4, 2)),
               rng.standard_normal((4, 2)), RunConfig(temperature=5.0), feature_grads)
        assert asked == [anchors]

    def test_feature_gradients_with_frozen_noise(self):
        params = tiny_params(15, hidden=(4,))
        f_s, f_t, labels, negatives, rng = make_batch(16)
        eps_s = rng.standard_normal((4, 2))
        eps_t = rng.standard_normal((4, 2))
        cfg = RunConfig(temperature=5.0, align_weight=0.4)

        def loss_fn(arrays):
            breakdown, _, d_f_s = stage2(params, arrays[0], f_t, labels, negatives,
                                         eps_s, eps_t, cfg)
            return breakdown["total"], [d_f_s]

        report = grad_check(loss_fn, [f_s.copy()])
        assert report.max_rel_error < 1e-4


def unfused_stage2_loss(params, f_s, f_t, labels, negatives, eps_s, eps_t, cfg):
    """The stage-2 objective assembled block by block: separate ELBO,
    alignment and decoder gradient blocks, align_weight applied afterwards.
    The per-item rules are the library's; the chain around them is spelled
    out here. Returns (breakdown, param_grads, grad_f_s)."""
    b, ld = f_s.shape[0], params.latent_dim

    def backward(net, cache, grad_out):
        grads = net.with_arrays([np.zeros_like(a) for a in net.param_arrays()])
        d_in = numkit.mlp_backward(net, cache, grad_out, grads, True)
        return grads.param_arrays(), d_in

    def elbo(x, recon, mu, lv):
        d = x.shape[1]
        resid = recon - x
        rec = float(np.mean(np.sum(resid * resid, axis=1) / d))
        kl = float(np.mean(0.5 * np.sum(mu * mu + np.exp(lv) - 1.0 - lv, axis=1)))
        g_recon = 2.0 * resid / (d * b)
        return (rec + cfg.kl_weight * kl, g_recon, -g_recon, cfg.kl_weight * mu / b,
                cfg.kl_weight * 0.5 * (np.exp(lv) - 1.0) / b)

    def scatter(rows):
        onehot = (np.arange(b)[:, None] == negatives[None, :]).astype(np.float64)
        return onehot @ rows

    def align(anchor, recon):
        u = anchor - recon
        v = anchor - recon[negatives]
        value, cp, cn = losses._RULES[cfg.align_loss](np.sum(u * u, axis=1),
                                                      np.sum(v * v, axis=1), b, cfg)
        g_anchor = 2.0 * (cp[:, None] * u + cn[:, None] * v)
        g_recon = -2.0 * cp[:, None] * u - scatter(2.0 * cn[:, None] * v)
        return value, g_anchor, g_recon

    out_s, cache_enc_s = numkit.mlp_forward(params.skel_encoder, f_s)
    out_t, cache_enc_t = numkit.mlp_forward(params.text_encoder, f_t)
    mu_s, lv_s = out_s[:, :ld], out_s[:, ld:]
    mu_t, lv_t = out_t[:, :ld], out_t[:, ld:]
    z_s = mu_s + np.exp(0.5 * lv_s) * eps_s
    z_t = mu_t + np.exp(0.5 * lv_t) * eps_t
    dec_s, cache_dec_s = numkit.mlp_forward(params.skel_decoder, np.concatenate([z_s, mu_t]))
    dec_t, cache_dec_t = numkit.mlp_forward(params.text_decoder, np.concatenate([z_t, mu_s]))
    vs, rs, xs, ms, ls = elbo(f_s, dec_s[:b], mu_s, lv_s)
    vt, rt, _, mt, lt = elbo(f_t, dec_t[:b], mu_t, lv_t)
    a_t, _, g_g_s_t = align(f_t, dec_t[b:])
    a_s, g_f_s, g_g_t_s = align(f_s, dec_s[b:])
    a = cfg.align_weight
    g_dec_s, d_dec_s = backward(params.skel_decoder, cache_dec_s,
                                np.concatenate([rs, a * g_g_t_s]))
    g_dec_t, d_dec_t = backward(params.text_decoder, cache_dec_t,
                                np.concatenate([rt, a * g_g_s_t]))
    d_mu_s = ms + d_dec_s[:b] + d_dec_t[b:]
    d_lv_s = ls + d_dec_s[:b] * 0.5 * np.exp(0.5 * lv_s) * eps_s
    d_mu_t = mt + d_dec_t[:b] + d_dec_s[b:]
    d_lv_t = lt + d_dec_t[:b] * 0.5 * np.exp(0.5 * lv_t) * eps_t
    g_enc_s, d_in_s = backward(params.skel_encoder, cache_enc_s,
                               np.concatenate([d_mu_s, d_lv_s], axis=1))
    g_enc_t, _ = backward(params.text_encoder, cache_enc_t,
                          np.concatenate([d_mu_t, d_lv_t], axis=1))
    breakdown = {"total": vs + vt + a * (a_t + a_s), "vae": vs + vt, "vae_skel": vs,
                 "vae_text": vt, "align": a_t + a_s}
    return breakdown, [*g_enc_s, *g_enc_t, *g_dec_s, *g_dec_t], xs + a * g_f_s + d_in_s


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(2, 9),
       dims=st.tuples(st.integers(1, 7), st.integers(1, 5), st.integers(1, 3)),
       hidden=st.sampled_from([(), (4,), (5, 3)]),
       align_loss=st.sampled_from(losses.ALIGN_LOSSES), feature_grads=st.booleans(),
       temperature=st.sampled_from([0.5, 5.0, 100.0]),
       align_weight=st.sampled_from([0.0, 0.3, 1.0]),
       kl_weight=st.sampled_from([0.0, 0.02, 1.0]),
       margin=st.sampled_from([0.5, 1.0, 3.0]))
def test_stage2_loss_matches_the_unfused_assembly(seed, b, dims, hidden, align_loss,
                                                  feature_grads, temperature,
                                                  align_weight, kl_weight, margin):
    skel_dim, text_dim, latent_dim = dims
    params = tiny_params(seed, skel_dim, text_dim, latent_dim, hidden)
    f_s, f_t, labels, negatives, rng = make_batch(seed, b, skel_dim, text_dim,
                                                  classes=min(b, 3))
    eps_s = rng.standard_normal((b, latent_dim))
    eps_t = rng.standard_normal((b, latent_dim))
    cfg = RunConfig(temperature=temperature, align_weight=align_weight,
                    kl_weight=kl_weight, margin=margin, align_loss=align_loss)
    want = unfused_stage2_loss(params, f_s, f_t, labels, negatives, eps_s, eps_t, cfg)
    got = stage2(params, f_s, f_t, labels, negatives, eps_s, eps_t, cfg, feature_grads)

    def close(x, y):
        assert np.max(np.abs(np.asarray(x) - y)) <= 1e-12 * np.max(np.abs(y))

    assert got[0].keys() == want[0].keys()
    for key in want[0]:
        close(got[0][key], want[0][key])
    for g, w in zip(got[1], want[1], strict=True):
        close(g, w)
    if feature_grads:
        close(got[2], want[2])
    else:
        assert got[2] is None


class TestNonFiniteStep:
    """A non-finite value anywhere in a stage-2 step stops training with a
    ValueError before Adam moves a single parameter."""

    @staticmethod
    def train_and_poison(monkeypatch, poison):
        """Train 4 single-batch epochs; on the third step, poison(net, out)
        may write into the output of each forward pass. Returns the raised
        error, the Adam calls made and the parameters they left behind."""
        rng = numkit.make_rng(31)
        labels = np.array([0, 1] * 4)
        data = tiny_stage2_data(rng.standard_normal((8, 4)), labels)
        adam_calls = []
        real_adam, real_forward = numkit.adam_step, numkit.mlp_forward

        def adam(state, p, g):
            real_adam(state, p, g)
            adam_calls.append(p.copy())

        def forward(net, x):
            out, cache = real_forward(net, x)
            if len(adam_calls) == 2:
                poison(net, out)
            return out, cache

        monkeypatch.setattr(numkit, "adam_step", adam)
        monkeypatch.setattr(numkit, "mlp_forward", forward)
        with pytest.raises(ValueError) as info:
            train_tiny(data, RunConfig(), epochs=4, lr=1e-3, hidden=(6,), seed=31)
        return info.value, adam_calls

    @pytest.mark.parametrize("rows", ["self", "cross"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("decoder", ["skel", "text"])
    def test_poisoned_decoder_output_raises_before_adam(self, monkeypatch, rows, value,
                                                        decoder):
        def poison(net, out):
            # decoders read the 2-dim latents; only the skeleton one emits 4 dims
            if net.in_dim == 2 and (net.out_dim == 4) == (decoder == "skel"):
                out[1 if rows == "self" else -1, 0] = value

        err, calls = self.train_and_poison(monkeypatch, poison)
        assert "non-finite" in str(err) or "not finite" in str(err)
        assert len(calls) == 2

    @pytest.mark.parametrize("which", ["skeleton", "text"])
    def test_non_finite_features_raise_before_adam(self, which):
        params = tiny_params(21, hidden=(4,))
        f_s, f_t, labels, negatives, rng = make_batch(22)
        (f_s if which == "skeleton" else f_t)[2, 1] = np.nan
        eps_s = rng.standard_normal((4, 2))
        eps_t = rng.standard_normal((4, 2))
        flat, views = numkit.flatten(params.param_arrays())
        params = params.with_arrays(views)
        before = flat.copy()
        grad, grad_views = numkit.flatten(views)
        with pytest.raises(ValueError, match="non-finite"):
            crossvae.stage2_loss(params, f_s, f_t, labels, negatives, eps_s, eps_t,
                                 RunConfig(), params.with_arrays(grad_views), True)
            numkit.adam_step(numkit.AdamState(), flat, grad)
        np.testing.assert_array_equal(flat, before)


def tiny_stage2_data(f_s, labels):
    """Train-seen vector records with text embeddings per class, plus one
    unseen class so the split is valid."""
    recs = [pipeline.FeatureRecord(f"s{i}", int(c), "train-seen", vector=f)
            for i, (f, c) in enumerate(zip(f_s, labels))]
    recs.append(pipeline.FeatureRecord("u", 2, "test-unseen", vector=np.zeros(f_s.shape[1])))
    text = {0: [0.0, 2.0, 0.0], 1: [0.0, -2.0, 0.0], 2: [2.0, 0.0, 0.0]}
    table = {c: {"AL": np.asarray(v), "LD": np.ones(1), "GD": np.ones(1)}
             for c, v in text.items()}
    return pipeline.FeatureDataset(recs), table, pipeline.SplitSpec((0, 1), (2,))


def train_tiny(data, cfg, *, epochs, lr, hidden, seed):
    dataset, table, split = data
    (width,) = hidden
    cfg = dataclasses.replace(cfg, stage2_epochs=epochs, stage2_lr=lr,
                              batch_size=len(dataset.records), latent_dim=2,
                              hidden_dim=width, hidden_layers=1)
    return pipeline.run_stage2(dataset, table, split, pipeline.SkeletonFeaturizer(), cfg,
                               numkit.make_rng(seed))


class TestTrainStep:
    """Stage-2 training steps, taken through pipeline.run_stage2 with one
    full batch per epoch."""

    def test_loss_decreases_on_separable_data(self):
        rng = numkit.make_rng(17)
        labels = np.array([0, 1] * 8)
        centers = np.array([[2.0, 0, 0, 0], [-2.0, 0, 0, 0]])
        data = tiny_stage2_data(centers[labels] + 0.05 * rng.standard_normal((16, 4)),
                                labels)
        cfg = RunConfig(temperature=1.0, align_weight=0.1, kl_weight=0.1)
        _, _, log = train_tiny(data, cfg, epochs=200, lr=1e-2, hidden=(16,), seed=17)
        curve = [row["total"] for row in log]
        head = float(np.mean(curve[:20]))
        tail = float(np.mean(curve[-20:]))
        assert tail < head

    def test_identical_seeds_identical_trajectories(self):
        rng = numkit.make_rng(18)
        data = tiny_stage2_data(rng.standard_normal((8, 4)), np.array([0, 1] * 4))

        def run():
            params, _, log = train_tiny(data, RunConfig(), epochs=10, lr=1e-3,
                                        hidden=(8,), seed=18)
            return [row["total"] for row in log], params.param_arrays()

        (curve_a, arrays_a), (curve_b, arrays_b) = run(), run()
        assert curve_a == curve_b
        for a, b in zip(arrays_a, arrays_b):
            np.testing.assert_array_equal(a, b)

    def test_kl_breakdown_nonnegative_along_training(self):
        rng = numkit.make_rng(19)
        f_s = rng.standard_normal((6, 3))
        data = tiny_stage2_data(f_s, np.array([0, 1] * 3))
        f_t = np.stack([semantics.fuse(data[1], c) for c in (0, 1)] * 3)
        cfg = RunConfig(kl_weight=1.0, align_weight=0.0)
        # a run of k epochs is the first k steps of a longer run with the same seed
        for epochs in (1, 5, 10, 20):
            params, _, _ = train_tiny(data, cfg, epochs=epochs, lr=1e-3, hidden=(6,),
                                      seed=19)
            for net, feats in (("skel_encoder", f_s), ("text_encoder", f_t)):
                mu, log_var = crossvae.posterior(params, net, feats)
                # the ELBO of a perfect reconstruction at kl_weight 1 is the KL alone
                x = np.zeros((len(feats), 1))
                assert losses.elbo(x, x.copy(), mu, log_var, 1.0).value >= 0.0


class TestSampleClassLatents:
    def test_samples_are_the_posterior_mean_plus_scaled_noise(self):
        params = tiny_params(20)
        fused = numkit.make_rng(21).standard_normal(3)
        z = crossvae.sample_class_latents(params, fused, 5, numkit.make_rng(3))
        mu, log_var = crossvae.posterior(params, "text_encoder", fused[None, :])
        eps = numkit.make_rng(3).standard_normal((5, 2))
        np.testing.assert_allclose(z, mu + np.exp(0.5 * log_var) * eps,
                                   rtol=0, atol=1e-15)

    def test_overflowing_sample_raises(self):
        # exp(0.5 * 2000) overflows; the warning is off, the check still fires
        params = fixed_posterior_params(np.zeros(2), np.full(2, 2000.0))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="sampled latents"):
            crossvae.sample_class_latents(params, np.ones(3), 4, numkit.make_rng(24))

    def test_sample_covariance_tracks_posterior(self):
        params = tiny_params(22)
        fused = numkit.make_rng(23).standard_normal(3)
        _, log_var = crossvae.posterior(params, "text_encoder", fused[None, :])
        z = crossvae.sample_class_latents(params, fused, 100_000,
                                          numkit.make_rng(24))
        var = np.var(z, axis=0)
        np.testing.assert_allclose(var, np.exp(log_var[0]), rtol=0.05)


class TestCodec:
    """VaeParams through the checkpoint codec, which works from its fields."""

    def test_round_trip_preserves_every_array(self):
        import json

        params = tiny_params(25)
        text = "".join(cli._compact_json_pieces(params))
        parsed = json.loads(text, object_hook=semantics.float_arrays)
        back = semantics.decode(crossvae.VaeParams, parsed, "vae", ValueError)
        assert back.latent_dim == params.latent_dim
        for a, b in zip(params.param_arrays(), back.param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_survives_json(self):
        import json

        params = tiny_params(26)
        # plain lists, as a reader without the object hook sees them
        blob = "".join(cli._compact_json_pieces(params))
        back = semantics.decode(crossvae.VaeParams, json.loads(blob), "vae", ValueError)
        for a, b in zip(params.param_arrays(), back.param_arrays()):
            np.testing.assert_array_equal(a, b)

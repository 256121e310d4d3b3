"""Release gate: the thirteen acceptance criteria, one test per criterion,
in order, each printing a single PASS or FAIL line (visible under -s / -rA).

Criteria 1-9 are deterministic numeric checks and finish in seconds.
Criteria 10-12 train full pipelines on the synthetic benchmark with the
tuned recipe and dominate the runtime (several minutes, single core).
Criterion 13 runs the training command twice end to end."""

import contextlib
import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from freqzsl import cli, crossvae, frequency, losses, numkit, pipeline, synthbench

TUNED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synth-tuned.cfg"


@contextlib.contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {summary}")
        raise
    print(f"PASS criterion {number:2d}: {summary}")


def exchanged_batch(a):
    """B=2 with exchanged roles: item 0 has (D+, D-) = (1, 1+a), item 1 the
    reverse, in both directions; realizes the per-pair sum f(a) + f(-a)."""
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
    return losses.AlignmentBatch(
        rng.standard_normal((b, d)), rng.standard_normal((b, d)),
        rng.standard_normal((b, d)), rng.standard_normal((b, d)),
        labels=labels, negatives=losses.sample_negatives(labels, rng))


def check_batch_grads(loss_of_batch, batch, tol=1e-4):
    def loss_fn(arrays):
        b = losses.AlignmentBatch(arrays[1], arrays[0], arrays[2], arrays[3],
                                  labels=batch.labels, negatives=batch.negatives)
        out = loss_of_batch(b)
        return out.value, [out.grads[k] for k in ("f_s", "f_t", "g_s_t", "g_t_s")]

    params = [batch.f_s.copy(), batch.f_t.copy(),
              batch.g_s_t.copy(), batch.g_t_s.copy()]
    report = numkit.grad_check(loss_fn, params)
    assert report.max_rel_error < tol, report


def run_zsl(cfg, dataset, table, split):
    model = cli.train_full(cfg, dataset, table, split)
    return pipeline.evaluate_zsl(model.vae, model.featurizer, model.unseen_clf,
                                 dataset.by_partition("test-unseen"))


def test_criterion_01_dct_round_trip():
    with criterion(1, "DCT round trip on 100 random (25, 3, 64) sequences: "
                      "max abs error < 1e-9 in under 5 s"):
        rng = numkit.make_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal((25, 3, 64))
            back = frequency.idct(frequency.dct_forward(x))
            worst = max(worst, float(np.max(np.abs(back - x))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, worst
        assert elapsed < 5.0, elapsed


def test_criterion_02_parseval():
    with criterion(2, "energy preserved across the transform, rel error < "
                      "1e-12 on the same inputs"):
        rng = numkit.make_rng(101)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal((25, 3, 64))
            e_time = frequency.signal_energy(x)
            e_freq = float(np.sum(frequency.dct_forward(x) ** 2))
            worst = max(worst, abs(e_time - e_freq) / e_time)
        assert worst < 1e-12, worst


def test_criterion_03_energy_redistribution():
    with criterion(3, "enhanced energy equals the predicted spectral sum, "
                      "rel error < 1e-9 over 50 random configs"):
        rng = numkit.make_rng(103)
        worst = 0.0
        for _ in range(50):
            f = int(rng.integers(4, 96))
            mode = "piecewise" if rng.random() < 0.5 else "learnable_only"
            cfg = frequency.EnhancementConfig.per_coefficient(
                f, int(rng.integers(0, f)), float(rng.uniform(1.0, 40.0)),
                0.0, mode)
            cfg = cfg.with_weights(rng.uniform(0.0, 1.0, size=f))
            x = rng.standard_normal((6, f))
            g, _, _ = frequency.scaling_profile(cfg)
            predicted = float(np.sum((g * frequency.dct_forward(x)) ** 2))
            actual = frequency.signal_energy(frequency.enhance_sequence(x, cfg))
            worst = max(worst, abs(actual - predicted) / max(predicted, 1e-300))
        assert worst < 1e-9, worst


def test_criterion_04_identity_enhancement():
    with criterion(4, "all-zero band weights reproduce the input, "
                      "max abs error < 1e-12"):
        rng = numkit.make_rng(104)
        x = rng.standard_normal((75, 64))
        cfg = frequency.EnhancementConfig.per_coefficient(64, 35, 30.0, 0.0)
        err = float(np.max(np.abs(frequency.enhance_sequence(x, cfg) - x)))
        assert err < 1e-12, err


def test_criterion_05_pair_sum_and_triplet_witnesses():
    with criterion(5, "pair-sum identity < 1e-12 for 1e4 gaps at three "
                      "temperatures; every triplet baseline breaks it"):
        rng = numkit.make_rng(105)
        a = np.concatenate([rng.uniform(-80.0, 80.0, 9000),
                            rng.uniform(-1e5, 1e5, 1000)])
        for lam in (1.0, 10.0, 100.0):
            s = losses.pair_sigmoid(a, lam) + losses.pair_sigmoid(-a, lam)
            assert float(np.max(np.abs(s - 1.0))) < 1e-12, lam
        # on role-exchanged batches the calibrated loss is flat (counter-
        # balancing) while each triplet baseline moves: a concrete witness
        # that their per-pair function violates the sum identity
        cfg = losses.LossConfig(temperature=1.0, align_weight=1.0, margin=1.0)
        cal = [losses.alignment_loss(exchanged_batch(g), "calibrated", cfg).value
               for g in (1.0, 2.0)]
        assert abs(cal[0] - cal[1]) < 1e-9
        for name in ("t1", "t2", "t3", "t4"):
            v = [losses.alignment_loss(exchanged_batch(g), name, cfg).value
                 for g in (1.0, 2.0)]
            assert abs(v[0] - v[1]) > 1e-3, name


def test_criterion_06_exchangeability_balance():
    with criterion(6, "pointwise pair-sum exact to a few ulp; mean over 1e5 "
                      "iid same-distribution pairs within 3 SE of 0.5"):
        rng = numkit.make_rng(106)
        a = rng.uniform(-40.0, 40.0, 10_000)
        s = losses.pair_sigmoid(a, 3.0) + losses.pair_sigmoid(-a, 3.0)
        assert float(np.max(np.abs(s - 1.0))) <= 4 * np.finfo(np.float64).eps
        d_pos = np.sum(rng.standard_normal((100_000, 3)) ** 2, axis=1)
        d_neg = np.sum(rng.standard_normal((100_000, 3)) ** 2, axis=1)
        vals = losses.pair_sigmoid(d_pos - d_neg, 1.0)
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - 0.5) <= 3 * se


def test_criterion_07_gradient_checks():
    with criterion(7, "central differences < 1e-4 rel: calibrated loss, all "
                      "four triplets, ELBO, full stage-2 objective"):
        cfg = losses.LossConfig(temperature=4.0, align_weight=0.7, margin=1.0)
        batch = random_batch(107)
        for name in losses.ALIGN_LOSSES:
            check_batch_grads(
                lambda b, n=name: losses.alignment_loss(b, n, cfg), batch)

        rng = numkit.make_rng(108)
        arrays = [rng.standard_normal((5, 4)) for _ in range(4)]

        def elbo_fn(arrs):
            x, recon, mu, lv = arrs
            out = losses.elbo(x, recon, mu, lv, kl_weight=0.7)
            return out.value, [out.grads[k]
                               for k in ("x", "recon", "mu", "log_var")]

        report = numkit.grad_check(elbo_fn, arrays)
        assert report.max_rel_error < 1e-4, report

        params = crossvae.init_vae_params(4, 3, 2, numkit.make_rng(109), (4,))
        f_s = rng.standard_normal((4, 4))
        f_t = rng.standard_normal((4, 3))
        labels = np.arange(4) % 2
        negatives = losses.sample_negatives(labels, rng)
        eps_s = rng.standard_normal((4, 2))
        eps_t = rng.standard_normal((4, 2))
        stage_cfg = losses.LossConfig(temperature=5.0, align_weight=0.4)

        def stage2_fn(arrs):
            p = params.with_arrays(arrs)
            breakdown, grads, _, _ = crossvae.stage2_loss(
                p, f_s, f_t, labels, negatives, eps_s, eps_t, stage_cfg)
            return breakdown["total"], grads

        report = numkit.grad_check(stage2_fn, params.param_arrays())
        assert report.max_rel_error < 1e-4, report


def test_criterion_08_kl_closed_form():
    with criterion(8, "KL >= 0 and within 3 SE of a 1e6-sample Monte Carlo "
                      "estimate on 20 random posteriors"):
        rng = numkit.make_rng(110)
        for _ in range(20):
            mu = float(rng.uniform(-2.0, 2.0))
            lv = float(rng.uniform(-2.0, 1.0))
            closed = losses.kl_diag_gaussian(np.array([mu]), np.array([lv]))
            assert closed >= 0.0
            eps = rng.standard_normal(1_000_000)
            z = mu + math.exp(0.5 * lv) * eps
            per = 0.5 * (z * z - eps * eps - lv)
            se = float(np.std(per, ddof=1)) / math.sqrt(per.size)
            assert abs(float(np.mean(per)) - closed) <= 3 * se, (mu, lv)


def test_criterion_09_harmonic_mean():
    with criterion(9, "H(77.0, 74.5) = 75.7 within 0.05; H(x, x) = x and "
                      "H(s, 0) = 0 exactly"):
        assert abs(pipeline.harmonic_mean(77.0, 74.5) - 75.7) < 0.05
        for x in (0.3, 0.62, 88.0):
            assert pipeline.harmonic_mean(x, x) == x
        for s in (0.0, 0.4, 91.0):
            assert pipeline.harmonic_mean(s, 0.0) == 0.0


def test_criterion_10_clean_zsl():
    with criterion(10, "clean synthetic benchmark (12 classes, 10/2 split, "
                       "no jitter): unseen accuracy >= 0.9 in under 3 min"):
        start = time.perf_counter()
        cfg = cli.parse_config(TUNED_CONFIG)
        gen = synthbench.generate(cli.make_synth_config(cfg))
        acc = run_zsl(cfg, gen.dataset, gen.table, gen.split)
        elapsed = time.perf_counter() - start
        assert acc >= 0.9, acc
        assert elapsed < 180.0, elapsed


def test_criterion_11_label_noise_robustness():
    with criterion(11, "20% label noise: calibrated unseen accuracy >= T2 "
                       "in at least 4 of 5 seeds"):
        wins = 0
        for seed in range(5):
            cfg = dataclasses.replace(cli.parse_config(TUNED_CONFIG), seed=seed)
            gen = synthbench.generate(cli.make_synth_config(cfg))
            noisy = synthbench.inject_label_noise(
                gen.dataset, 0.2, numkit.make_rng(seed, 17))
            cal = run_zsl(dataclasses.replace(cfg, align_loss="calibrated"),
                          noisy, gen.table, gen.split)
            t2 = run_zsl(dataclasses.replace(cfg, align_loss="t2"),
                         noisy, gen.table, gen.split)
            wins += cal >= t2
        assert wins >= 4, wins


def test_criterion_12_enhancement_ablation():
    with criterion(12, "jitter at 50% of signal scale: piecewise mode >= "
                       "learnable-only in at least 4 of 5 seeds"):
        wins = 0
        for seed in range(5):
            cfg = dataclasses.replace(cli.parse_config(TUNED_CONFIG), seed=seed)
            jitter = cli.make_synth_config(cfg).jitter_std_for_ratio(0.5)
            cfg = dataclasses.replace(cfg, synth_jitter_std=jitter)
            gen = synthbench.generate(cli.make_synth_config(cfg))
            piece = run_zsl(dataclasses.replace(cfg, enhance_mode="piecewise"),
                            gen.dataset, gen.table, gen.split)
            learn = run_zsl(
                dataclasses.replace(cfg, enhance_mode="learnable_only"),
                gen.dataset, gen.table, gen.split)
            wins += piece >= learn
        assert wins >= 4, wins


def test_criterion_13_checkpoint_determinism(tmp_path):
    with criterion(13, "two train command runs with identical config and "
                       "seed produce bit-identical checkpoints"):
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text("\n".join([
            "synth_classes = 5", "synth_unseen = 2", "synth_joints = 2",
            "synth_coords = 2", "synth_frames = 16",
            "synth_samples_per_class = 6", "synth_low_band_stop = 5",
            "synth_proto_rank = 3", "synth_jitter_start = 8",
            "synth_embed_dim = 8", "low_cutoff = 8", "temperature = 1.0",
            "stage2_epochs = 30", "latent_dim = 4", "hidden_dim = 8",
            "hidden_layers = 1", "unseen_samples = 20", "unseen_epochs = 30",
            "unseen_lr = 0.01", "seen_epochs = 30", "seen_lr = 0.01",
        ]) + "\n", encoding="utf-8")
        data = tmp_path / "data"
        assert cli.main(["synth", "--config", str(cfg_path),
                         "--out", str(data)]) == 0
        blobs = []
        for name in ("run-a", "run-b"):
            out = tmp_path / name
            assert cli.main(["train", "--config", str(cfg_path),
                             "--data", str(data), "--out", str(out)]) == 0
            blobs.append((out / "checkpoint.json").read_bytes())
        assert blobs[0] == blobs[1]

"""Stage and evaluation tests: record/split file round trips and hygiene,
featurizer behavior, softmax classifier separability, stage-3 synthesis,
max-probability GZSL routing, harmonic-mean identities, and the latent
export format."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqzsl import cli, crossvae, frequency, losses, numkit, pipeline, semantics, synthbench
from freqzsl.cli import RunConfig
from gradcheck import directional_check, unit_directions

TUNED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synth-tuned.cfg"


def zero_mlp(sizes):
    """All-zero affine stack: every input maps to a zero output."""
    ws = [np.zeros((nout, nin)) for nin, nout in zip(sizes[:-1], sizes[1:])]
    return numkit.MlpParams(ws, [np.zeros(nout) for nout in sizes[1:]])


def stage2_config(**kw):
    """RunConfig for run_stage2 on the tiny problems: 2 latent dims, 4 hidden units."""
    return RunConfig(**{"latent_dim": 2, "hidden_dim": 4, "hidden_layers": 1, **kw})


def identity_encoder(d, latent_dim):
    """Affine layer emitting mu = x[:latent_dim], log_var = 0."""
    w = np.zeros((2 * latent_dim, d))
    w[:latent_dim, :latent_dim] = np.eye(latent_dim)
    return numkit.MlpParams([w], [np.zeros(2 * latent_dim)])


def identity_vae(skel_dim=2, text_dim=2, latent_dim=2):
    return crossvae.VaeParams(
        skel_encoder=identity_encoder(skel_dim, latent_dim),
        text_encoder=identity_encoder(text_dim, latent_dim),
        skel_decoder=zero_mlp((latent_dim, skel_dim)),
        text_decoder=zero_mlp((latent_dim, text_dim)),
        latent_dim=latent_dim)


def cosine_oracle(x, cfg):
    """x enhanced along its trailing axis, built from frequency's docstring
    formula rather than dct_basis: a scalar-loop cosine matrix C, the
    coefficients x C^T scaled by scaling_profile's g, and back through C."""
    frames = x.shape[-1]
    c = np.array([[math.sqrt((2 - (i == 0)) / frames) * math.cos(math.pi * (f + 0.5) * i / frames)
                   for f in range(frames)] for i in range(frames)])
    return (x @ c.T) * frequency.scaling_profile(cfg)[0] @ c


def vector_record(sid, cid, partition, vec):
    return pipeline.FeatureRecord(sid, cid, partition,
                                  vector=np.asarray(vec, dtype=np.float64))


def make_semantic_table(class_vectors):
    """Table with AL carrying the class direction and tiny LD/GD fillers."""
    return {cid: {"AL": np.asarray(v, dtype=np.float64),
                  "LD": np.array([1.0]), "GD": np.array([1.0])}
            for cid, v in class_vectors.items()}


class TestRecordsAndFiles:
    def test_record_requires_exactly_one_payload(self):
        with pytest.raises(pipeline.FeatureFormatError, match="exactly one"):
            pipeline.FeatureRecord("a", 0, "train-seen")
        with pytest.raises(pipeline.FeatureFormatError, match="exactly one"):
            pipeline.FeatureRecord("a", 0, "train-seen", vector=np.ones(2),
                                   sequence=np.ones((1, 1, 2)))

    def test_record_partition_validated(self):
        with pytest.raises(pipeline.FeatureFormatError, match="partition"):
            vector_record("a", 0, "validation", [1.0])

    def test_sequence_rank_enforced(self):
        with pytest.raises(pipeline.FeatureFormatError, match="joints"):
            pipeline.FeatureRecord("a", 0, "train-seen", sequence=np.ones((2, 4)))

    def test_dataset_rejects_duplicates_and_mixes(self):
        recs = [vector_record("a", 0, "train-seen", [1.0]),
                vector_record("a", 1, "train-seen", [2.0])]
        with pytest.raises(pipeline.FeatureFormatError, match="duplicate"):
            pipeline.FeatureDataset(recs)
        mixed = [vector_record("a", 0, "train-seen", [1.0]),
                 pipeline.FeatureRecord("b", 0, "train-seen",
                                        sequence=np.ones((1, 1, 2)))]
        with pytest.raises(pipeline.FeatureFormatError, match="mixes"):
            pipeline.FeatureDataset(mixed)

    def test_vector_file_round_trip(self, tmp_path):
        rng = numkit.make_rng(0)
        recs = [vector_record(f"s{i}", i % 2, "train-seen", rng.standard_normal(3))
                for i in range(4)]
        path = tmp_path / "features.jsonl"
        assert semantics.write_lines(path, pipeline.FeatureDataset(recs).records) == 4
        back = pipeline.load_feature_file(path)
        assert [r.sample_id for r in back.records] == [f"s{i}" for i in range(4)]
        for a, b in zip(recs, back.records):
            np.testing.assert_allclose(a.vector, b.vector, atol=1e-15)

    def test_sequence_file_round_trip(self, tmp_path):
        rng = numkit.make_rng(1)
        recs = [pipeline.FeatureRecord(f"s{i}", 0, "test-unseen",
                                       sequence=rng.standard_normal((2, 3, 4)))
                for i in range(2)]
        path = tmp_path / "features.jsonl"
        semantics.write_lines(path, pipeline.FeatureDataset(recs).records)
        back = pipeline.load_feature_file(path)
        assert back.kind == "sequence"
        np.testing.assert_allclose(back.records[1].sequence, recs[1].sequence,
                                   atol=1e-15)

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text('{"sample_id": "a"}\n', encoding="utf-8")
        with pytest.raises(pipeline.FeatureFormatError, match="line 1"):
            pipeline.load_feature_file(path)

    def test_split_file_round_trip(self, tmp_path):
        split = pipeline.SplitSpec((3, 1, 2), (5, 4))
        path = tmp_path / "split.json"
        pipeline.write_split_file(path, split, config_hash="abc")
        back = pipeline.load_split_file(path)
        assert set(back.seen) == {1, 2, 3} and set(back.unseen) == {4, 5}
        assert json.loads(path.read_text())["config_hash"] == "abc"

    def test_split_overlap_rejected(self):
        with pytest.raises(ValueError, match="both groups"):
            pipeline.SplitSpec((0, 1), (1, 2))

    def test_split_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            pipeline.SplitSpec((0, 1), ())

    def test_validate_split_catches_partition_leaks(self):
        ds = pipeline.FeatureDataset([vector_record("a", 5, "train-seen", [1.0])])
        with pytest.raises(ValueError, match="not a seen class"):
            pipeline.validate_split(ds, pipeline.SplitSpec((0,), (5,)))
        ds2 = pipeline.FeatureDataset([vector_record("a", 0, "test-unseen", [1.0])])
        with pytest.raises(ValueError, match="not an unseen class"):
            pipeline.validate_split(ds2, pipeline.SplitSpec((0,), (5,)))

    def test_validate_split_rejects_uncovered_class(self):
        ds = pipeline.FeatureDataset([vector_record("a", 0, "train-seen", [1.0]),
                                      vector_record("b", 9, "test-seen", [1.0])])
        with pytest.raises(ValueError):
            pipeline.validate_split(ds, pipeline.SplitSpec((0,), (1,)))


class TestFeaturizer:
    def test_vectors_pass_through_untouched(self):
        recs = [vector_record("a", 0, "train-seen", [1.0, 2.0]),
                vector_record("b", 1, "train-seen", [3.0, 4.0])]
        block = pipeline.SkeletonFeaturizer().features(recs)
        np.testing.assert_array_equal(block, [[1.0, 2.0], [3.0, 4.0]])

    def test_sequences_flatten_after_enhancement(self):
        rng = numkit.make_rng(2)
        seq = rng.standard_normal((2, 3, 8))
        rec = pipeline.FeatureRecord("a", 0, "train-seen", sequence=seq)
        cfg = frequency.EnhancementConfig.uniform_bands(8, 1, 3, 4.0, weight=0.5)
        block = pipeline.SkeletonFeaturizer(enhancement=cfg).features([rec])
        expected = cosine_oracle(seq, cfg).reshape(-1)
        np.testing.assert_allclose(block[0], expected, atol=1e-14)

    def test_zero_weight_enhancement_is_identity(self):
        rng = numkit.make_rng(3)
        seq = rng.standard_normal((2, 3, 8))
        rec = pipeline.FeatureRecord("a", 0, "train-seen", sequence=seq)
        cfg = frequency.EnhancementConfig.uniform_bands(8, 1, 3, 4.0, weight=0.0)
        block = pipeline.SkeletonFeaturizer(enhancement=cfg).features([rec])
        np.testing.assert_allclose(block[0], seq.reshape(-1), atol=1e-12)

    def test_vector_enhancement_is_opt_in(self):
        vec = numkit.make_rng(4).standard_normal(8)
        rec = vector_record("a", 0, "train-seen", vec)
        cfg = frequency.EnhancementConfig.uniform_bands(8, 1, 3, 4.0, weight=0.5)
        plain = pipeline.SkeletonFeaturizer(enhancement=cfg).features([rec])
        np.testing.assert_array_equal(plain[0], vec)
        enhanced = pipeline.SkeletonFeaturizer(enhancement=cfg,
                                               enhance_vectors=True).features([rec])
        np.testing.assert_allclose(enhanced[0], cosine_oracle(vec, cfg), atol=1e-14)

    def test_with_weights_requires_enhancement(self):
        with pytest.raises(ValueError, match="no enhancement"):
            pipeline.SkeletonFeaturizer().with_weights([0.5])

    def sequence_records(self, seed, n=7):
        rng = numkit.make_rng(seed)
        return [pipeline.FeatureRecord(f"s{i}", i % 3, "train-seen",
                                       sequence=rng.standard_normal((2, 3, 16)))
                for i in range(n)]

    def test_from_spectrum_of_spectrum_matches_direct_enhancement(self):
        recs = self.sequence_records(30)
        cfg = frequency.EnhancementConfig.uniform_bands(16, 1, 9, 6.0, weight=0.7)
        cfg = cfg.with_weights(numkit.make_rng(31).uniform(0.0, 1.0, 16))
        feat = pipeline.SkeletonFeaturizer(enhancement=cfg)
        block, coeffs = feat.features_with_cache(recs)
        stacked = np.stack([r.sequence for r in recs])
        direct = cosine_oracle(stacked, cfg).reshape(len(recs), -1)
        assert np.max(np.abs(block - direct)) <= 1e-12 * np.max(np.abs(direct))
        np.testing.assert_array_equal(coeffs, frequency.dct_forward(stacked))

    def test_band_weight_grad_from_cached_rows_matches_batch_transform(self):
        # a trainer takes the spectrum once and differentiates through its rows
        recs = self.sequence_records(32, n=10)
        cfg = frequency.EnhancementConfig.uniform_bands(16, 3, 9, 6.0, weight=0.4)
        feat = pipeline.SkeletonFeaturizer(enhancement=cfg)
        trained = feat.with_weights(numkit.make_rng(34).uniform(0.0, 1.0, cfg.n_bands))
        idx = np.array([7, 2, 2, 9, 0])
        grad_out = numkit.make_rng(33).standard_normal((5, 2, 3, 16))
        rows = feat.spectrum(recs)[idx]
        batch = frequency.dct_forward(np.stack([recs[i].sequence for i in idx]))
        _, dgdw, band_index = frequency.scaling_profile(trained.enhancement)
        np.testing.assert_allclose(
            frequency.enhance_weight_grads(rows, grad_out, dgdw, band_index),
            frequency.enhance_weight_grads(batch, grad_out, dgdw, band_index),
            rtol=0, atol=1e-12)

    def test_reweighted_featurizer_maps_the_same_spectrum(self):
        recs = self.sequence_records(34, n=3)
        cfg = frequency.EnhancementConfig.uniform_bands(16, 1, 9, 6.0, weight=0.0)
        feat = pipeline.SkeletonFeaturizer(enhancement=cfg)
        other = feat.with_weights(np.full(16, 0.8))
        block = other.from_spectrum(feat.spectrum(recs))
        np.testing.assert_array_equal(
            block, pipeline.SkeletonFeaturizer(cfg.with_weights(np.full(16, 0.8))).features(recs))
        assert not np.array_equal(block, feat.features(recs))

    def test_encoding_goes_through_the_traced_featurize_method(self, monkeypatch):
        # the benchmark's tracer wraps features_with_cache by name
        assert "features_with_cache" in vars(pipeline.SkeletonFeaturizer)
        calls = []
        real = pipeline.SkeletonFeaturizer.features_with_cache

        def spy(self, records):
            calls.append(len(records))
            return real(self, records)

        monkeypatch.setattr(pipeline.SkeletonFeaturizer, "features_with_cache", spy)
        recs = [vector_record("a", 0, "test-unseen", [2.0, 0.0]),
                vector_record("b", 1, "test-unseen", [0.0, 2.0])]
        latents = pipeline.encode_latent_means(identity_vae(), pipeline.SkeletonFeaturizer(),
                                               recs)
        np.testing.assert_array_equal(latents, [[2.0, 0.0], [0.0, 2.0]])
        assert calls == [2]


def row_major_softmax_head(latents, y, k, epochs, lr):
    """The head as it was first written, on (n, K) logits with the softmax
    along each row: the reference for the class-major trainer."""
    n, d = latents.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    flat, (w, b) = numkit.flatten([np.zeros((k, d)), np.zeros(k)])
    opt = numkit.AdamState(lr=lr)
    for _ in range(epochs):
        z = latents @ w.T + b
        z -= z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        diff = (e / e.sum(axis=-1, keepdims=True) - onehot) / n
        numkit.adam_step(opt, flat, np.concatenate([(diff.T @ latents).ravel(),
                                                    diff.sum(axis=0)]))
    return w, b


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 40),
       band_frac=st.floats(0.0, 1.0), cutoff_frac=st.floats(0.0, 0.999),
       ramp=st.floats(1.0, 40.0), mode=st.sampled_from(frequency.MODES),
       floor=st.sampled_from([0.0, 0.5, 1.0]), n=st.integers(1, 6), sequences=st.booleans())
def test_features_match_the_cosine_formula_oracle(seed, frames, band_frac, cutoff_frac, ramp,
                                                  mode, floor, n, sequences):
    # sequence records, or vector records with enhance_vectors, at random band weights
    rng = numkit.make_rng(seed)
    band_size = 1 + int(band_frac * (frames - 1))
    cfg = frequency.EnhancementConfig.uniform_bands(
        frames, band_size, int(cutoff_frac * frames), ramp, mode=mode, floor=floor)
    cfg = cfg.with_weights(rng.uniform(0.0, 1.0, cfg.n_bands))
    block = rng.standard_normal((n, 3, 2, frames) if sequences else (n, frames))
    recs = [pipeline.FeatureRecord(f"s{i}", 0, "train-seen",
                                   **{"sequence" if sequences else "vector": row})
            for i, row in enumerate(block)]
    feat = pipeline.SkeletonFeaturizer(cfg, enhance_vectors=not sequences)
    got = feat.features(recs)
    want = cosine_oracle(block, cfg).reshape(n, -1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSoftmaxClassifier:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_class_major_training_matches_the_row_major_reference(self, k):
        # n is no multiple of K, so no class's first bias gradient is 0 in exact
        # arithmetic: Adam would scale each side's rounding noise of a 0 by 1/eps
        rng = numkit.make_rng(40 + k)
        y = np.concatenate([np.arange(k), rng.integers(0, k, 5 * k + 1)])
        latents = rng.standard_normal((6 * k + 1, 5)) + rng.standard_normal((k, 5))[y]
        ids = tuple(range(100, 100 + k))
        clf = pipeline.train_softmax_classifier(latents, np.asarray(ids)[y], ids,
                                                epochs=50, lr=0.05)
        w, b = row_major_softmax_head(latents, y, k, epochs=50, lr=0.05)
        for got, want in ((clf.weights, w), (clf.bias, b)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        z = latents @ w.T + b
        p = np.exp(z - z.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(clf.predict_proba(latents),
                                   p / p.sum(axis=-1, keepdims=True), rtol=1e-12, atol=0)

    def test_separable_latents_reach_high_train_accuracy(self):
        rng = numkit.make_rng(5)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        labels = np.repeat([10, 20, 30], 30)
        latents = centers[np.repeat(np.arange(3), 30)] + 0.1 * rng.standard_normal((90, 2))
        clf = pipeline.train_softmax_classifier(latents, labels, (10, 20, 30),
                                                epochs=300, lr=0.1)
        assert float(np.mean(clf.predict(latents) == labels)) >= 0.99

    def test_single_class_predicts_constantly_without_a_warning(self):
        # refusing a one-class head is evaluate_gzsl's call, made once, there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clf = pipeline.train_softmax_classifier(np.zeros((4, 2)),
                                                    np.array([7, 7, 7, 7]), (7,),
                                                    epochs=5, lr=0.1)
        assert np.all(clf.predict(numkit.make_rng(6).standard_normal((5, 2))) == 7)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="missing from class_ids"):
            pipeline.train_softmax_classifier(np.zeros((2, 2)), np.array([0, 9]),
                                              (0, 1), epochs=1, lr=0.1)

    @pytest.mark.parametrize("scale", [1e160, np.inf])
    def test_gradient_whose_square_overflows_raises_before_adam(self, monkeypatch, scale):
        # Adam refuses the first epoch's gradient before it moves anything
        adam_calls, real_adam = [], numkit.adam_step

        def adam(state, p, g):
            adam_calls.append((state, p, p.copy()))
            real_adam(state, p, g)

        monkeypatch.setattr(numkit, "adam_step", adam)
        latents = np.array([[scale, 0.0], [-scale, 0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="classifier gradient is non-finite or its square overflows"):
            pipeline.train_softmax_classifier(latents, np.array([0, 1]), (0, 1),
                                              epochs=3, lr=0.1)
        [(state, p, before)] = adam_calls
        assert state.step_count == 0 and state.m is None
        assert np.array_equal(p, before)

    def test_weight_left_non_finite_by_the_last_step_raises(self, monkeypatch):
        real_adam = numkit.adam_step

        def overflowing_adam(state, p, g):
            real_adam(state, p, g)
            if state.step_count == 3:
                p[-1] = np.inf  # W then b in one flat vector: the last bias

        monkeypatch.setattr(numkit, "adam_step", overflowing_adam)
        with pytest.raises(ValueError, match="classifier weights contains non-finite"):
            pipeline.train_softmax_classifier(np.eye(2), np.array([0, 1]), (0, 1),
                                              epochs=3, lr=0.1)

    @pytest.mark.parametrize("class_ids, weights, bias, match", [
        ((0, 0), np.zeros((2, 3)), np.zeros(2), "distinct"),
        ((0, 1), np.zeros(2), np.zeros(2), r"weights \(2,\) and bias \(2,\)"),
        ((0, 1), np.zeros((3, 3)), np.zeros(2), r"weights \(3, 3\) and bias \(2,\)"),
        ((0, 1), np.zeros((2, 3)), np.zeros(1), r"weights \(2, 3\) and bias \(1,\)"),
        ((0, 1), np.zeros((2, 3)), np.zeros((2, 1)), r"weights \(2, 3\) and bias \(2, 1\)"),
    ])
    def test_labels_rows_and_bias_must_agree(self, class_ids, weights, bias, match):
        with pytest.raises(ValueError, match=match):
            pipeline.SoftmaxClassifier(class_ids, weights, bias)

    def test_probabilities_normalize(self):
        clf = pipeline.SoftmaxClassifier((0, 1, 2),
                                         numkit.make_rng(7).standard_normal((3, 4)),
                                         np.zeros(3))
        p = clf.predict_proba(numkit.make_rng(8).standard_normal((6, 4)))
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(6), atol=1e-12)
        assert np.all(p >= 0)


class TestStage2:
    def small_problem(self):
        rng = numkit.make_rng(11)
        protos = {0: np.array([2.0, 0.0]), 1: np.array([-2.0, 0.0]),
                  2: np.array([0.0, 2.0])}
        recs = []
        for cid in (0, 1):
            for s in range(8):
                vec = protos[cid] + 0.1 * rng.standard_normal(2)
                recs.append(vector_record(f"c{cid}s{s}", cid, "train-seen", vec))
        recs.append(vector_record("u0", 2, "test-unseen", protos[2]))
        dataset = pipeline.FeatureDataset(recs)
        table = make_semantic_table({0: [3.0, 0.0], 1: [0.0, 3.0], 2: [2.0, 2.0]})
        split = pipeline.SplitSpec((0, 1), (2,))
        return dataset, table, split

    def test_zero_epochs_returns_untrained_init(self):
        dataset, table, split = self.small_problem()
        feat = pipeline.SkeletonFeaturizer()
        cfg = stage2_config(temperature=1.0, stage2_epochs=0, stage2_lr=1e-3, batch_size=8)
        p0, _, log0 = pipeline.run_stage2(dataset, table, split, feat, cfg,
                                          numkit.make_rng(12))
        p1, _, _ = pipeline.run_stage2(dataset, table, split, feat, cfg,
                                       numkit.make_rng(12))
        assert log0 == []
        for a, b in zip(p0.param_arrays(), p1.param_arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seen_classes, batch_size", [((0, 1), 1), ((0,), 8)])
    def test_no_step_taken_is_an_error(self, seen_classes, batch_size):
        dataset, table, split = self.small_problem()
        if seen_classes == (0,):
            dataset = pipeline.FeatureDataset(
                [r for r in dataset.records if r.class_id != 1])
            split = pipeline.SplitSpec((0,), (2,))
        with pytest.raises(ValueError, match="no step.*single class"):
            pipeline.run_stage2(dataset, table, split, pipeline.SkeletonFeaturizer(),
                                stage2_config(stage2_epochs=3, stage2_lr=1e-3,
                                              batch_size=batch_size),
                                numkit.make_rng(12))

    def test_trained_arrays_are_views_of_one_vector(self):
        dataset, table, split = self.small_problem()
        params, _, _ = pipeline.run_stage2(dataset, table, split,
                                           pipeline.SkeletonFeaturizer(),
                                           stage2_config(stage2_epochs=2, stage2_lr=1e-3,
                                                         batch_size=16),
                                           numkit.make_rng(12))
        # one owning buffer (it may carry alignment padding) whose span they
        # tile in order from a 64-byte line
        arrays = params.param_arrays()
        base = arrays[0].base
        assert base is not None and all(a.base is base for a in arrays)
        assert arrays[0].ctypes.data % 64 == 0
        for a, b in zip(arrays, arrays[1:]):
            assert b.ctypes.data == a.ctypes.data + a.nbytes

    def test_inert_enhancement_is_not_trained(self):
        # vector records with enhance_vectors off never pass through the bands
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.uniform_bands(2, 1, 1, 4.0, weight=0.5)
        _, trained_feat, log = pipeline.run_stage2(
            dataset, table, split, pipeline.SkeletonFeaturizer(enhancement=enh),
            stage2_config(temperature=1.0, stage2_epochs=2, stage2_lr=1e-2, batch_size=16),
            numkit.make_rng(17))
        assert len(log) == 2
        assert trained_feat.enhancement.weights == (0.5, 0.5)

    def test_loss_decreases_over_training(self):
        dataset, table, split = self.small_problem()
        cfg = stage2_config(temperature=1.0, align_weight=0.1, kl_weight=0.1,
                            stage2_epochs=120, stage2_lr=1e-2, batch_size=16, hidden_dim=8)
        _, _, log = pipeline.run_stage2(dataset, table, split,
                                        pipeline.SkeletonFeaturizer(), cfg,
                                        numkit.make_rng(13))
        assert len(log) == 120
        assert log[-1]["total"] < log[0]["total"]

    def test_missing_semantics_named(self):
        dataset, _, split = self.small_problem()
        table = make_semantic_table({0: [3.0, 0.0], 2: [2.0, 2.0]})
        with pytest.raises(ValueError, match=r"^no semantic embeddings for seen classes \[1\]$"):
            pipeline.run_stage2(dataset, table, split,
                                pipeline.SkeletonFeaturizer(),
                                stage2_config(stage2_epochs=1, stage2_lr=1e-3, batch_size=8),
                                numkit.make_rng(14))

    def test_trained_band_weights_move(self):
        rng = numkit.make_rng(15)
        recs = []
        for cid in (0, 1):
            base = np.zeros((1, 1, 8))
            base[0, 0, cid] = 2.0
            for s in range(6):
                seq = frequency.idct(base + 0.05 * rng.standard_normal((1, 1, 8)))
                recs.append(pipeline.FeatureRecord(f"c{cid}s{s}", cid,
                                                   "train-seen", sequence=seq))
        recs.append(pipeline.FeatureRecord("u", 2, "test-unseen",
                                           sequence=np.zeros((1, 1, 8))))
        dataset = pipeline.FeatureDataset(recs)
        table = make_semantic_table({0: [3.0, 0.0], 1: [0.0, 3.0], 2: [2.0, 2.0]})
        split = pipeline.SplitSpec((0, 1), (2,))
        enh = frequency.EnhancementConfig.uniform_bands(8, 1, 3, 4.0, weight=0.5)
        feat = pipeline.SkeletonFeaturizer(enhancement=enh)
        _, trained_feat, _ = pipeline.run_stage2(
            dataset, table, split, feat,
            stage2_config(temperature=1.0, stage2_epochs=20, stage2_lr=1e-2, batch_size=12),
            numkit.make_rng(16))
        assert not np.allclose(trained_feat.enhancement.weights, 0.5)

    def test_floor_clamp_freezes_bands_with_negative_ramp_factors(self):
        # with floor 1 a band whose ramp factor is negative has g = 1 + w * factor
        # clamped to 1 at every weight in (0, 1), so dg/dw = 0 and Adam leaves
        # its raw weight exactly where it started
        rng = numkit.make_rng(41)
        recs = []
        for cid in (0, 1, 2):
            base = rng.standard_normal((2, 1, 16))
            for s in range(6):
                seq = base + 0.3 * rng.standard_normal((2, 1, 16))
                recs.append(pipeline.FeatureRecord(f"c{cid}s{s}", cid, "train-seen",
                                                   sequence=seq))
        recs.append(pipeline.FeatureRecord("u", 3, "test-unseen",
                                           sequence=np.zeros((2, 1, 16))))
        table = make_semantic_table({0: [3.0, 0.0], 1: [0.0, 3.0], 2: [-3.0, 0.0],
                                     3: [2.0, 2.0]})
        enh = frequency.EnhancementConfig.uniform_bands(16, 1, 6, 4.0, weight=0.5, floor=1.0)
        _, trained_feat, _ = pipeline.run_stage2(
            pipeline.FeatureDataset(recs), table, pipeline.SplitSpec((0, 1, 2), (3,)),
            pipeline.SkeletonFeaturizer(enhancement=enh),
            stage2_config(temperature=1.0, stage2_epochs=10, stage2_lr=1e-2, batch_size=8),
            numkit.make_rng(42))
        # at weight 0 nothing clamps, so dg/dw is each band's ramp factor
        _, factor, _ = frequency.scaling_profile(
            dataclasses.replace(enh, floor=0.0).with_weights(np.zeros(16)))
        start = frequency.weights_from_raw(frequency.raw_from_weights(np.full(16, 0.5)))
        trained = np.asarray(trained_feat.enhancement.weights)
        assert (factor < 0).sum() == 3 and (factor > 0).sum() == 11
        np.testing.assert_array_equal(trained[factor < 0], start[factor < 0])
        assert np.any(trained[factor > 0] != start[factor > 0])

    def test_enhanced_vectors_train_their_band_weights_deterministically(self):
        # with enhance_vectors the band path runs over (N, F) rows of vectors
        rng = numkit.make_rng(43)
        recs = []
        for cid in (0, 1):
            base = np.zeros(8)
            base[cid] = 2.0
            for s in range(6):
                vec = frequency.idct(base + 0.05 * rng.standard_normal(8))
                recs.append(vector_record(f"c{cid}s{s}", cid, "train-seen", vec))
        recs.append(vector_record("u", 2, "test-unseen", np.zeros(8)))
        table = make_semantic_table({0: [3.0, 0.0], 1: [0.0, 3.0], 2: [2.0, 2.0]})
        enh = frequency.EnhancementConfig.uniform_bands(8, 1, 3, 4.0, weight=0.5)
        cfg = stage2_config(temperature=1.0, stage2_epochs=20, stage2_lr=1e-2, batch_size=12,
                            train_weights=True)

        def flat_after_training():
            params, feat, _ = pipeline.run_stage2(
                pipeline.FeatureDataset(recs), table, pipeline.SplitSpec((0, 1), (2,)),
                pipeline.SkeletonFeaturizer(enhancement=enh, enhance_vectors=True), cfg,
                numkit.make_rng(44))
            weights = np.asarray(feat.enhancement.weights)
            return np.concatenate([a.ravel() for a in params.param_arrays()] + [weights]), weights

        (flat_a, weights), (flat_b, _) = flat_after_training(), flat_after_training()
        assert not np.allclose(weights, 0.5)
        assert flat_a.tobytes() == flat_b.tobytes()

    @pytest.mark.parametrize("where, part", [
        ("kl_weight", "skel_encoder"), ("first array", "skel_encoder"),
        ("last array", "text_decoder"), ("band weights", "band weights")])
    def test_gradient_whose_square_overflows_raises_before_adam(self, monkeypatch, where,
                                                                part):
        # each gradient entry stays finite; only its square overflows. Adam
        # refuses the first step's gradient before it moves anything
        adam_calls, real_adam = [], numkit.adam_step

        def adam(state, p, g):
            adam_calls.append((state, p, p.copy()))
            real_adam(state, p, g)

        monkeypatch.setattr(numkit, "adam_step", adam)
        real_loss, real_band = crossvae.stage2_loss, frequency.enhance_weight_grads

        def loss(*args, **kwargs):
            out = real_loss(*args, **kwargs)
            grads = args[8].param_arrays()
            if where.endswith("array"):
                grads[0 if where == "first array" else -1][...] = 1e200
            return out

        monkeypatch.setattr(crossvae, "stage2_loss", loss)
        if where == "band weights":
            monkeypatch.setattr(frequency, "enhance_weight_grads",
                                lambda *a: np.full_like(real_band(*a), 1e200))
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.uniform_bands(2, 1, 1, 4.0, weight=0.5)
        kl = 1e300 if where == "kl_weight" else 1.0
        with pytest.raises(ValueError, match=rf"^stage 2 epoch 0 step 0: {part} gradient "
                                             "is non-finite or its square overflows$"):
            pipeline.run_stage2(
                dataset, table, split,
                pipeline.SkeletonFeaturizer(enhancement=enh, enhance_vectors=True),
                stage2_config(temperature=1.0, kl_weight=kl, stage2_epochs=2,
                              stage2_lr=1e-2, batch_size=16),
                numkit.make_rng(17))
        [(state, p, before)] = adam_calls
        assert state.step_count == 0 and state.m is None
        assert np.array_equal(p, before)

    @pytest.mark.parametrize("lr", [1e3, 1e6])
    def test_diverging_step_raises_naming_the_network_before_adam(self, monkeypatch, lr):
        # numpy's overflow warnings are off in a step (here they would be
        # errors); each value they would have flagged must still stop the run
        grads_seen, real_adam = [], numkit.adam_step

        def adam(state, p, g):
            grads_seen.append(np.isfinite(g).all())
            real_adam(state, p, g)

        monkeypatch.setattr(numkit, "adam_step", adam)
        dataset, table, split = self.small_problem()
        with pytest.raises(ValueError, match=r"^stage 2 epoch \d+ step \d+: (skel|text)_"
                                             r"(en|de)coder (input|gradient) "):
            pipeline.run_stage2(dataset, table, split, pipeline.SkeletonFeaturizer(),
                                stage2_config(stage2_epochs=50, stage2_lr=lr, batch_size=16),
                                numkit.make_rng(12))
        assert grads_seen and all(grads_seen)

    def test_parameter_left_non_finite_by_the_last_step_raises(self, monkeypatch):
        real_adam = numkit.adam_step

        def overflowing_adam(state, p, g):
            real_adam(state, p, g)
            p[-1] = np.inf  # the last array is the text decoder's bias

        monkeypatch.setattr(numkit, "adam_step", overflowing_adam)
        dataset, table, split = self.small_problem()
        with pytest.raises(ValueError, match="^stage 2 left non-finite text_decoder parameters"):
            pipeline.run_stage2(dataset, table, split, pipeline.SkeletonFeaturizer(),
                                stage2_config(stage2_epochs=1, batch_size=16),
                                numkit.make_rng(12))

    def test_frozen_weights_stay_put(self):
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.uniform_bands(2, 1, 1, 4.0, weight=0.5)
        feat = pipeline.SkeletonFeaturizer(enhancement=enh, enhance_vectors=True)
        _, trained_feat, _ = pipeline.run_stage2(
            dataset, table, split, feat,
            stage2_config(temperature=1.0, stage2_epochs=5, stage2_lr=1e-2, batch_size=16,
                          train_weights=False),
            numkit.make_rng(17))
        assert trained_feat.enhancement.weights == (0.5, 0.5)

    def test_frozen_band_weights_are_featurized_once(self, monkeypatch):
        # with train_weights off the features never change, so the step loop
        # calls neither idct nor scaling_profile: their counts do not grow with epochs
        calls = {"idct": 0, "scaling_profile": 0}

        def spy(name):
            real = getattr(frequency, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(frequency, name, spy(name))
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.uniform_bands(2, 1, 1, 4.0, weight=0.5)
        feat = pipeline.SkeletonFeaturizer(enhancement=enh, enhance_vectors=True)
        counts = []
        for epochs in (2, 6):
            before = dict(calls)
            _, returned, log = pipeline.run_stage2(
                dataset, table, split, feat,
                stage2_config(temperature=1.0, stage2_epochs=epochs, stage2_lr=1e-2,
                              batch_size=8, train_weights=False),
                numkit.make_rng(17))
            assert len(log) == epochs and returned is feat
            counts.append({name: calls[name] - before[name] for name in calls})
        assert counts == [{"idct": 1, "scaling_profile": 1}] * 2

    @pytest.mark.parametrize("train_weights", [True, False])
    def test_adam_reads_the_gradient_stage2_gradient_writes(self, monkeypatch, train_weights):
        # the gradient TestStage2Gradient checks is the one every step hands to Adam
        written, read = [], []
        real_gradient, real_adam = pipeline.stage2_gradient, numkit.adam_step

        def gradient(*args):
            breakdown = real_gradient(*args)
            grads, grad_raw = args[-2:]
            written.append(np.concatenate([g.ravel() for g in grads.param_arrays()]
                                          + ([] if grad_raw is None else [grad_raw])))
            return breakdown

        def adam(state, p, g):
            read.append(g.copy())
            real_adam(state, p, g)

        monkeypatch.setattr(pipeline, "stage2_gradient", gradient)
        monkeypatch.setattr(numkit, "adam_step", adam)
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.uniform_bands(2, 1, 1, 4.0, weight=0.5)
        params, _, _ = pipeline.run_stage2(
            dataset, table, split,
            pipeline.SkeletonFeaturizer(enhancement=enh, enhance_vectors=True),
            stage2_config(temperature=1.0, stage2_epochs=3, stage2_lr=1e-2, batch_size=8,
                          train_weights=train_weights),
            numkit.make_rng(17))
        assert len(written) == len(read) == 6
        n_params = sum(a.size for a in params.param_arrays())
        for w, g in zip(written, read):
            assert w.size == n_params + 2 * train_weights
            np.testing.assert_array_equal(w, g)


class TestStage2Gradient:
    """pipeline.stage2_gradient, the flat gradient Adam reads, against
    central differences along random unit directions at the benchmark's
    sizes: the tuned recipe on data seed 2, batch 64, hidden 64, latent 16,
    and band weights spread over (0.05, 0.95). Ten directions span the whole
    vector and ten the band weights alone, whose slice is under 1% of its
    ~150k entries, too little for the first ten to see."""

    @pytest.fixture(scope="class")
    def tuned(self):
        cfg = dataclasses.replace(cli.parse_config(TUNED_CONFIG), seed=2)
        return cfg, synthbench.generate(cfg)

    @pytest.mark.parametrize("keys, vectors", [
        ({}, False),
        ({"enhance_mode": "learnable_only"}, False),
        ({"enhance_vectors": True}, True),
        ({"weight_floor": 0.9}, False),
    ], ids=["piecewise", "learnable-only", "enhance-vectors", "weight-floor"])
    def test_matches_central_differences_along_random_directions(self, tuned, keys, vectors):
        cfg, gen = tuned
        cfg = dataclasses.replace(cfg, **keys)
        dataset = gen.dataset
        if vectors:
            dataset = pipeline.FeatureDataset([
                pipeline.FeatureRecord(r.sample_id, r.class_id, r.partition,
                                       vector=r.sequence.ravel())
                for r in dataset.records])
        featurizer = cli.make_featurizer(cfg, dataset)
        records = dataset.by_partition("train-seen")
        rng = numkit.make_rng(5)
        batch = [records[i] for i in rng.permutation(len(records))[:cfg.batch_size]]
        rows = featurizer.spectrum(batch)
        labels = np.asarray([r.class_id for r in batch])
        fused = semantics.fuse_all(gen.table)
        text = np.stack([fused[c] for c in labels.tolist()])
        negatives = losses.sample_negatives(labels, rng)
        eps_s = rng.standard_normal((len(batch), cfg.latent_dim))
        eps_t = rng.standard_normal((len(batch), cfg.latent_dim))
        params = crossvae.init_vae_params(rows[0].size, text.shape[1], cfg.latent_dim, rng,
                                          (cfg.hidden_dim,) * cfg.hidden_layers)
        arrays = params.param_arrays()
        n_net = len(arrays)
        n_bands = featurizer.enhancement.n_bands
        weights = rng.uniform(0.05, 0.95, n_bands)
        arrays.append(frequency.raw_from_weights(weights))
        flat, views = numkit.flatten(arrays)
        params, raw = params.with_arrays(views[:n_net]), views[n_net]
        grad, grad_views = numkit.flatten(views)
        grads, grad_raw = params.with_arrays(grad_views[:n_net]), grad_views[n_net]
        assert (len(batch), n_bands, flat.size) == (
            64, 960 if vectors else 64, 154_096 if vectors else 153_200)
        clamped = frequency.scaling_profile(featurizer.enhancement, weights)[0] == cfg.weight_floor
        assert clamped.any() == (cfg.weight_floor > 0) and not clamped.all()

        def loss_fn(x):
            flat[:] = x
            breakdown = pipeline.stage2_gradient(params, raw, featurizer, rows, text, labels,
                                                 negatives, eps_s, eps_t, cfg, grads,
                                                 grad_raw)
            return breakdown["total"], grad.copy()

        directions = (unit_directions(rng, flat.size, 10)
                      + unit_directions(rng, flat.size, 10, slice(flat.size - n_bands, None)))
        report = directional_check(loss_fn, flat, directions)
        assert report.max_rel_error < 1e-4, report


class TestUnseenSynthesis:
    def separated_text_vae(self):
        # text encoder: mu = 20 * fused[:2], log_var = -4 (tight posteriors)
        text_dim, ld = 4, 2
        w = np.zeros((2 * ld, text_dim))
        w[0, 0] = w[1, 1] = 20.0
        b = np.array([0.0, 0.0, -4.0, -4.0])
        return crossvae.VaeParams(
            skel_encoder=identity_encoder(2, ld),
            text_encoder=numkit.MlpParams([w], [b]),
            skel_decoder=zero_mlp((ld, 2)),
            text_decoder=zero_mlp((ld, text_dim)),
            latent_dim=ld)

    def test_far_apart_posteriors_classify_cleanly(self):
        params = self.separated_text_vae()
        table = make_semantic_table({5: [4.0, 0.0], 6: [0.0, 4.0]})
        clf = pipeline.synthesize_unseen_classifier(
            params, table, (5, 6),
            RunConfig(unseen_samples=100, unseen_epochs=200, unseen_lr=0.1),
            numkit.make_rng(18))
        fresh = numkit.make_rng(19)
        for cid in (5, 6):
            fused = semantics.fuse(table, cid)
            z = crossvae.sample_class_latents(params, fused, 200, fresh)
            assert float(np.mean(clf.predict(z) == cid)) >= 0.99

    @pytest.mark.parametrize("n_samples", [1, 7])
    def test_reads_its_sample_count_and_schedule_from_the_config(self, monkeypatch, n_samples):
        fits = []
        monkeypatch.setattr(pipeline, "train_softmax_classifier",
                            lambda latents, labels, class_ids, **kw: fits.append(
                                (latents.shape, labels.tolist(), class_ids, kw)))
        pipeline.synthesize_unseen_classifier(
            self.separated_text_vae(), make_semantic_table({5: [4.0, 0.0], 6: [0.0, 4.0]}),
            (5, 6), RunConfig(unseen_samples=n_samples, unseen_epochs=3, unseen_lr=0.25),
            numkit.make_rng(0))
        assert fits == [((2 * n_samples, 2), [5] * n_samples + [6] * n_samples, (5, 6),
                         {"epochs": 3, "lr": 0.25})]

    def test_empty_unseen_set_rejected(self):
        with pytest.raises(ValueError, match="no unseen"):
            pipeline.synthesize_unseen_classifier(
                self.separated_text_vae(), make_semantic_table({5: [1.0, 0.0]}),
                (), RunConfig(), numkit.make_rng(0))


def overflowing_vae(half):
    """identity_vae(2, 4, 2) with 1e308 for every weight and bias of one half
    (mu or log_var) of both encoders: that half overflows on positive inputs."""
    params = identity_vae(2, 4, 2)
    rows = slice(0, 2) if half == "mu" else slice(2, 4)
    for name in ("skel_encoder", "text_encoder"):
        net = getattr(params, name)
        w, b = net.weights[0].copy(), net.biases[0].copy()
        w[rows] = b[rows] = 1e308
        setattr(params, name, numkit.MlpParams([w], [b]))
    return params


class TestOverflowingPosterior:
    """An encoder output that overflows stops evaluation and stage 3 with the
    name of the posterior half it broke."""

    @pytest.mark.parametrize("half", ["mu", "log_var"])
    def test_evaluation_names_the_half(self, half):
        recs = [vector_record("a", 0, "test-unseen", [1.0, 1.0]),
                vector_record("b", 1, "test-unseen", [2.0, 1.0])]
        clf = pipeline.SoftmaxClassifier((0, 1), np.eye(2), np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=f"^{half} contains non-finite entries$"):
            pipeline.evaluate_zsl(overflowing_vae(half), pipeline.SkeletonFeaturizer(),
                                  clf, recs)

    @pytest.mark.parametrize("half", ["mu", "log_var"])
    def test_stage_3_names_the_half(self, half):
        table = make_semantic_table({5: [1.0, 1.0], 6: [1.0, 2.0]})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=f"^{half} contains non-finite entries$"):
            pipeline.synthesize_unseen_classifier(
                overflowing_vae(half), table, (5, 6),
                RunConfig(unseen_samples=3, unseen_epochs=1), numkit.make_rng(0))


class TestSeenClassifier:
    def test_fits_the_records_latent_means_with_the_config_schedule(self, monkeypatch):
        fits = []
        monkeypatch.setattr(pipeline, "train_softmax_classifier",
                            lambda latents, labels, class_ids, **kw: fits.append(
                                (latents.tolist(), labels.tolist(), class_ids, kw)))
        records = [vector_record("a", 0, "train-seen", [1.0, 2.0]),
                   vector_record("b", 1, "train-seen", [3.0, 4.0])]
        pipeline.train_seen_classifier(identity_vae(), pipeline.SkeletonFeaturizer(), records,
                                       (0, 1), RunConfig(seen_epochs=4, seen_lr=0.5))
        assert fits == [([[1.0, 2.0], [3.0, 4.0]], [0, 1], (0, 1), {"epochs": 4, "lr": 0.5})]

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no training records"):
            pipeline.train_seen_classifier(identity_vae(), pipeline.SkeletonFeaturizer(), [],
                                           (0, 1), RunConfig())


class TestEvaluation:
    def test_harmonic_mean_published_value(self):
        assert pipeline.harmonic_mean(77.0, 74.5) == pytest.approx(75.7, abs=0.05)
        assert pipeline.harmonic_mean(77.0, 74.5) == pytest.approx(
            75.72937293729373, abs=1e-12)

    def test_harmonic_mean_identities(self):
        for x in (0.0, 0.3, 1.0, 88.8):
            assert pipeline.harmonic_mean(x, x) == x
        assert pipeline.harmonic_mean(0.9, 0.0) == 0.0
        assert pipeline.harmonic_mean(0.0, 0.0) == 0.0

    def test_harmonic_mean_rejects_negative(self):
        with pytest.raises(ValueError):
            pipeline.harmonic_mean(-0.1, 0.5)

    def test_zsl_perfect_classifier_scores_one(self):
        params = identity_vae()
        recs = [vector_record("a", 0, "test-unseen", [2.0, 0.0]),
                vector_record("b", 1, "test-unseen", [0.0, 2.0])]
        clf = pipeline.SoftmaxClassifier((0, 1), np.eye(2), np.zeros(2))
        acc = pipeline.evaluate_zsl(params, pipeline.SkeletonFeaturizer(), clf, recs)
        assert acc == 1.0

    def test_zsl_uncorrelated_classifier_near_chance(self):
        rng = numkit.make_rng(20)
        params = identity_vae(4, 4, 4)
        k, n = 4, 2000
        recs = [vector_record(f"s{i}", int(rng.integers(0, k)), "test-unseen",
                              rng.standard_normal(4)) for i in range(n)]
        clf = pipeline.SoftmaxClassifier(tuple(range(k)),
                                         rng.standard_normal((k, 4)), np.zeros(k))
        acc = pipeline.evaluate_zsl(params, pipeline.SkeletonFeaturizer(), clf, recs)
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / n)
        assert abs(acc - 1 / k) < 3 * sigma

    def test_zsl_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pipeline.evaluate_zsl(identity_vae(), pipeline.SkeletonFeaturizer(),
                                  None, [])

    @staticmethod
    def gzsl_fixture(seen_weights=8.0 * np.eye(2, 4)):
        """Latents are the records' 4 features. The seen head (classes 0, 1)
        reads dims 0-1 and the unseen head (classes 2, 3) dims 2-3, so each
        record is confident under its own head and at chance under the other."""
        seen_clf = pipeline.SoftmaxClassifier((0, 1), seen_weights, np.zeros(2))
        unseen_clf = pipeline.SoftmaxClassifier((2, 3), 8.0 * np.eye(2, 4, k=2), np.zeros(2))
        test_seen = [vector_record("s0", 0, "test-seen", [1.5, 0, 0, 0]),
                     vector_record("s1", 1, "test-seen", [0, 1.5, 0, 0])]
        test_unseen = [vector_record("u0", 2, "test-unseen", [0, 0, 1.5, 0]),
                       vector_record("u1", 3, "test-unseen", [0, 0, 0, 1.5])]
        return seen_clf, unseen_clf, test_seen, test_unseen

    @staticmethod
    def gzsl(seen_clf, unseen_clf, test_seen, test_unseen):
        return pipeline.evaluate_gzsl(identity_vae(4, 4, 4), pipeline.SkeletonFeaturizer(),
                                      None, seen_clf, unseen_clf, test_seen, test_unseen)

    def test_gzsl_perfect_components_score_one(self):
        # each record is routed to its more confident head, which names it
        report = self.gzsl(*self.gzsl_fixture())
        assert (report.seen_accuracy, report.unseen_accuracy, report.harmonic) == (1.0, 1.0, 1.0)
        assert report.per_class == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}

    def test_gzsl_tie_goes_to_seen(self):
        seen_clf, unseen_clf, _, _ = self.gzsl_fixture()
        # at the origin both heads give exactly 0.5 to their first class
        origin = [0.0] * 4
        report = self.gzsl(seen_clf, unseen_clf, [vector_record("s", 0, "test-seen", origin)],
                           [vector_record("u", 2, "test-unseen", origin)])
        assert (report.seen_accuracy, report.unseen_accuracy) == (1.0, 0.0)
        assert report.zsl_accuracy == 1.0

    def test_gzsl_all_seen_routing_zeroes_unseen(self):
        # the seen head also reads dims 2-3, five times as strongly as the unseen head
        fixture = self.gzsl_fixture(8.0 * np.eye(2, 4) + 40.0 * np.eye(2, 4, k=2))
        report = self.gzsl(*fixture)
        assert (report.seen_accuracy, report.unseen_accuracy, report.harmonic) == (1.0, 0.0, 0.0)
        # the unseen head alone still names every unseen record
        _, unseen_clf, _, test_unseen = fixture
        assert report.zsl_accuracy == 1.0 == pipeline.evaluate_zsl(
            identity_vae(4, 4, 4), pipeline.SkeletonFeaturizer(), unseen_clf, test_unseen)

    @pytest.mark.parametrize("side", ["seen", "unseen"])
    def test_gzsl_refuses_a_one_class_head(self, side):
        seen_clf, unseen_clf, test_seen, test_unseen = self.gzsl_fixture()
        one = pipeline.SoftmaxClassifier((9,), np.zeros((1, 4)), np.zeros(1))
        heads = (one, unseen_clf) if side == "seen" else (seen_clf, one)
        with pytest.raises(ValueError, match=f"one-class {side} head has top-1 probability 1"):
            self.gzsl(*heads, test_seen, test_unseen)

    def test_gzsl_empty_partition_rejected(self):
        seen_clf, unseen_clf, test_seen, _ = self.gzsl_fixture()
        with pytest.raises(ValueError, match="non-empty"):
            self.gzsl(seen_clf, unseen_clf, test_seen, [])

    def test_gzsl_empty_seen_partition_rejected(self):
        seen_clf, unseen_clf, _, test_unseen = self.gzsl_fixture()
        with pytest.raises(ValueError, match="non-empty"):
            self.gzsl(seen_clf, unseen_clf, [], test_unseen)

    @pytest.mark.parametrize("seed", range(4))
    def test_gzsl_matches_a_per_record_reference(self, seed):
        """Random heads over 3 seen and 3 unseen classes, scored one record at
        a time: the seen head names a record when its top-1 probability is at
        least the unseen head's, and the unseen head names it otherwise."""
        rng = numkit.make_rng(seed)
        seen_clf = pipeline.SoftmaxClassifier((0, 1, 2), 2.0 * rng.standard_normal((3, 4)),
                                              rng.standard_normal(3))
        unseen_clf = pipeline.SoftmaxClassifier((3, 4, 5), 2.0 * rng.standard_normal((3, 4)),
                                                rng.standard_normal(3))
        test_seen = [vector_record(f"s{i}", int(rng.integers(0, 3)), "test-seen",
                                   rng.standard_normal(4)) for i in range(30)]
        test_unseen = [vector_record(f"u{i}", int(rng.integers(3, 6)), "test-unseen",
                                     rng.standard_normal(4)) for i in range(30)]

        def named(record):
            p_seen = seen_clf.predict_proba(record.vector[None])[0]
            p_unseen = unseen_clf.predict_proba(record.vector[None])[0]
            if p_seen.max() >= p_unseen.max():
                return seen_clf.class_ids[int(np.argmax(p_seen))], True
            return unseen_clf.class_ids[int(np.argmax(p_unseen))], False

        routes = [named(r)[1] for r in test_seen + test_unseen]
        assert any(routes) and not all(routes)  # both heads take records
        hits = {r.sample_id: named(r)[0] == r.class_id for r in test_seen + test_unseen}
        report = self.gzsl(seen_clf, unseen_clf, test_seen, test_unseen)
        assert report.seen_accuracy == np.mean([hits[r.sample_id] for r in test_seen])
        assert report.unseen_accuracy == np.mean([hits[r.sample_id] for r in test_unseen])
        for cid, acc in report.per_class.items():
            assert acc == np.mean([hits[r.sample_id] for r in test_seen + test_unseen
                                   if r.class_id == cid])

    @pytest.mark.parametrize("gate", [object(), 0.5, "gate"])
    def test_gzsl_does_not_read_the_gate_argument(self, gate):
        seen_clf, unseen_clf, test_seen, test_unseen = self.gzsl_fixture()
        report = pipeline.evaluate_gzsl(identity_vae(4, 4, 4), pipeline.SkeletonFeaturizer(),
                                        gate, seen_clf, unseen_clf, test_seen, test_unseen)
        assert report == self.gzsl(seen_clf, unseen_clf, test_seen, test_unseen)


class TestArtifacts:
    def test_report_file_shape(self, tmp_path):
        report = pipeline.EvalReport(0.8, 0.6, pipeline.harmonic_mean(0.8, 0.6),
                                     None, {0: 1.0, 3: 0.5})
        path = tmp_path / "report.json"
        pipeline.write_report(path, report, "deadbeef", "gzsl")
        obj = json.loads(path.read_text())
        assert obj["mode"] == "gzsl"
        assert obj["config_hash"] == "deadbeef"
        assert obj["per_class"] == {"0": 1.0, "3": 0.5}
        assert obj["harmonic"] == pytest.approx(2 * 0.8 * 0.6 / 1.4, abs=1e-12)

    def test_export_latents_round_trip(self, tmp_path):
        params = identity_vae()
        recs = [vector_record("a", 0, "test-unseen", [0.25, -1.5]),
                vector_record("b", 1, "test-unseen", [3.0, 0.125])]
        path = tmp_path / "latents.csv"
        n = pipeline.export_latents(params, pipeline.SkeletonFeaturizer(), recs, path)
        assert n == 2
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sample_id,class_id,z0,z1"
        cells = lines[1].split(",")
        assert cells[0] == "a" and cells[1] == "0"
        assert float(cells[2]) == 0.25 and float(cells[3]) == -1.5

    def test_export_latents_empty_writes_header_only(self, tmp_path):
        path = tmp_path / "latents.csv"
        n = pipeline.export_latents(identity_vae(), pipeline.SkeletonFeaturizer(),
                                    [], path)
        assert n == 0
        assert path.read_text() == "sample_id,class_id,z0,z1\n"

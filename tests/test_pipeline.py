"""Stage and evaluation tests: record/split file round trips and hygiene,
featurizer behavior, softmax classifier separability, gate training on
separable versus indistinguishable confidence distributions, routing logic,
harmonic-mean identities, and the latent export format."""

import json
import math

import numpy as np
import pytest

from freqzsl import crossvae, frequency, losses, numkit, pipeline, semantics


def zero_mlp(sizes):
    """All-zero affine stack: every input maps to a zero output."""
    ws = [np.zeros((nout, nin)) for nin, nout in zip(sizes[:-1], sizes[1:])]
    return numkit.MlpParams(ws, [np.zeros(nout) for nout in sizes[1:]])


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


def vector_record(sid, cid, partition, vec):
    return pipeline.FeatureRecord(sid, cid, partition,
                                  vector=np.asarray(vec, dtype=np.float64))


def make_semantic_table(class_vectors):
    """Table with AL carrying the class direction and tiny LD/GD fillers."""
    vectors = {cid: {"AL": np.asarray(v, dtype=np.float64),
                     "LD": np.array([1.0]), "GD": np.array([1.0])}
               for cid, v in class_vectors.items()}
    return semantics.SemanticTable(vectors)


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
        assert pipeline.write_feature_file(path, pipeline.FeatureDataset(recs)) == 4
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
        pipeline.write_feature_file(path, pipeline.FeatureDataset(recs))
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
        cfg = frequency.EnhancementConfig.per_coefficient(8, 3, 4.0, weight=0.5)
        block = pipeline.SkeletonFeaturizer(enhancement=cfg).features([rec])
        expected = frequency.enhance_sequence(seq, cfg).reshape(-1)
        np.testing.assert_allclose(block[0], expected, atol=1e-14)

    def test_zero_weight_enhancement_is_identity(self):
        rng = numkit.make_rng(3)
        seq = rng.standard_normal((2, 3, 8))
        rec = pipeline.FeatureRecord("a", 0, "train-seen", sequence=seq)
        cfg = frequency.EnhancementConfig.per_coefficient(8, 3, 4.0, weight=0.0)
        block = pipeline.SkeletonFeaturizer(enhancement=cfg).features([rec])
        np.testing.assert_allclose(block[0], seq.reshape(-1), atol=1e-12)

    def test_vector_enhancement_is_opt_in(self):
        vec = numkit.make_rng(4).standard_normal(8)
        rec = vector_record("a", 0, "train-seen", vec)
        cfg = frequency.EnhancementConfig.per_coefficient(8, 3, 4.0, weight=0.5)
        plain = pipeline.SkeletonFeaturizer(enhancement=cfg).features([rec])
        np.testing.assert_array_equal(plain[0], vec)
        enhanced = pipeline.SkeletonFeaturizer(enhancement=cfg,
                                               enhance_vectors=True).features([rec])
        np.testing.assert_allclose(enhanced[0],
                                   frequency.enhance_sequence(vec, cfg), atol=1e-14)

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
        cfg = frequency.EnhancementConfig.per_coefficient(16, 9, 6.0, weight=0.7)
        cfg = cfg.with_weights(numkit.make_rng(31).uniform(0.0, 1.0, 16))
        feat = pipeline.SkeletonFeaturizer(enhancement=cfg)
        block, coeffs = feat.features_with_cache(recs)
        stacked = np.stack([r.sequence for r in recs])
        direct = frequency.enhance_sequence(stacked, cfg)
        np.testing.assert_array_equal(block, direct.reshape(len(recs), -1))
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
        np.testing.assert_allclose(
            frequency.enhance_weight_grads(rows, grad_out, trained.enhancement),
            frequency.enhance_weight_grads(batch, grad_out, trained.enhancement),
            rtol=0, atol=1e-12)

    def test_reweighted_featurizer_maps_the_same_spectrum(self):
        recs = self.sequence_records(34, n=3)
        cfg = frequency.EnhancementConfig.per_coefficient(16, 9, 6.0, weight=0.0)
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


class TestSoftmaxClassifier:
    def test_separable_latents_reach_high_train_accuracy(self):
        rng = numkit.make_rng(5)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        labels = np.repeat([10, 20, 30], 30)
        latents = centers[np.repeat(np.arange(3), 30)] + 0.1 * rng.standard_normal((90, 2))
        clf = pipeline.train_softmax_classifier(latents, labels, (10, 20, 30),
                                                epochs=300, lr=0.1)
        assert float(np.mean(clf.predict(latents) == labels)) >= 0.99

    def test_single_class_warns_and_predicts_constantly(self):
        with pytest.warns(UserWarning, match="single class"):
            clf = pipeline.train_softmax_classifier(np.zeros((4, 2)),
                                                    np.array([7, 7, 7, 7]), (7,),
                                                    epochs=5, lr=0.1)
        assert np.all(clf.predict(numkit.make_rng(6).standard_normal((5, 2))) == 7)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="missing from class_ids"):
            pipeline.train_softmax_classifier(np.zeros((2, 2)), np.array([0, 9]),
                                              (0, 1), epochs=1, lr=0.1)

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


class TestGate:
    def seen_clf(self):
        return pipeline.SoftmaxClassifier((0, 1), 8.0 * np.eye(2), np.zeros(2))

    def test_separable_groups_reach_perfect_training_accuracy(self):
        rng = numkit.make_rng(9)
        clf = self.seen_clf()
        seen_latents = np.eye(2)[rng.integers(0, 2, 40)] * 1.5
        unseen_latents = 0.02 * rng.standard_normal((40, 2))
        gate = pipeline.train_gate(clf, unseen_latents, seen_latents, c=1.0)
        p_seen = gate.predict_proba_seen(pipeline.gate_features(clf, seen_latents))
        p_unseen = gate.predict_proba_seen(pipeline.gate_features(clf, unseen_latents))
        assert np.all(p_seen >= 0.5) and np.all(p_unseen < 0.5)

    def test_identical_groups_stay_near_chance(self):
        rng = numkit.make_rng(10)
        clf = self.seen_clf()
        train_a = rng.standard_normal((500, 2))
        train_b = rng.standard_normal((500, 2))
        gate = pipeline.train_gate(clf, train_b, train_a, c=1.0)
        held_a = rng.standard_normal((2000, 2))
        held_b = rng.standard_normal((2000, 2))
        route_a = gate.predict_proba_seen(pipeline.gate_features(clf, held_a)) >= 0.5
        route_b = gate.predict_proba_seen(pipeline.gate_features(clf, held_b)) >= 0.5
        acc = 0.5 * (float(np.mean(route_a)) + float(np.mean(~route_b)))
        assert abs(acc - 0.5) < 0.05

    def overlapping_fit(self, c=1.0):
        """Gate fitted on overlapping groups, with its (N, 2) features and +-1 labels."""
        rng = numkit.make_rng(21)
        clf = self.seen_clf()
        seen_latents = np.eye(2)[rng.integers(0, 2, 60)] * rng.uniform(0.0, 0.6, (60, 1))
        unseen_latents = 0.3 * rng.standard_normal((50, 2))
        gate = pipeline.train_gate(clf, unseen_latents, seen_latents, c=c)
        x = np.concatenate([pipeline.gate_features(clf, seen_latents),
                            pipeline.gate_features(clf, unseen_latents)])
        return gate, x, np.concatenate([np.ones(60), -np.ones(50)])

    @staticmethod
    def objective(theta, x, y, c):
        """0.5 ||w||^2 + c * sum softplus(-y z) and its gradient (w, then b)."""
        m = -y * (x @ theta[:-1] + theta[-1])
        dz = -c * y * 0.5 * (1.0 + np.tanh(0.5 * m))  # d(c softplus(m)) / dz
        value = 0.5 * theta[:-1] @ theta[:-1] + c * np.logaddexp(0.0, m).sum()
        return value, np.append(theta[:-1] + x.T @ dz, dz.sum())

    @pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
    def test_fit_is_stationary(self, c):
        gate, x, y = self.overlapping_fit(c)
        _, grad = self.objective(np.append(gate.weights, gate.bias), x, y, c)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_matches_lbfgsb_fit(self):
        optimize = pytest.importorskip("scipy.optimize")
        gate, x, y = self.overlapping_fit()
        ref = optimize.minimize(self.objective, np.zeros(3), args=(x, y, 1.0), jac=True,
                                method="L-BFGS-B")
        np.testing.assert_allclose(np.append(gate.weights, gate.bias), ref.x, atol=1e-4)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(pipeline, "GATE_MAX_STEPS", 1)
        with pytest.raises(ValueError, match="did not converge in 1 Newton step"):
            pipeline.train_gate(self.seen_clf(), 0.3 * np.ones((4, 2)),
                                np.array([[0.5, 0.0], [0.0, 0.2], [0.1, 0.1]]))

    def test_gate_features_are_top1_and_entropy(self):
        clf = self.seen_clf()
        feats = pipeline.gate_features(clf, np.zeros((1, 2)))
        # logits are equal at the origin: top1 = 0.5, entropy = ln 2
        assert feats[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert feats[0, 1] == pytest.approx(math.log(2.0), abs=1e-12)


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
        cfg = losses.LossConfig(temperature=1.0)
        p0, _, log0 = pipeline.run_stage2(dataset, table, split, feat, cfg,
                                          epochs=0, lr=1e-3, batch_size=8,
                                          latent_dim=2, rng=numkit.make_rng(12),
                                          hidden=(4,))
        p1, _, _ = pipeline.run_stage2(dataset, table, split, feat, cfg,
                                       epochs=0, lr=1e-3, batch_size=8,
                                       latent_dim=2, rng=numkit.make_rng(12),
                                       hidden=(4,))
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
                                losses.LossConfig(), epochs=3, lr=1e-3,
                                batch_size=batch_size, latent_dim=2,
                                rng=numkit.make_rng(12), hidden=(4,))

    def test_trained_arrays_are_views_of_one_vector(self):
        dataset, table, split = self.small_problem()
        params, _, _ = pipeline.run_stage2(dataset, table, split,
                                           pipeline.SkeletonFeaturizer(),
                                           losses.LossConfig(), epochs=2, lr=1e-3,
                                           batch_size=16, latent_dim=2,
                                           rng=numkit.make_rng(12), hidden=(4,))
        arrays = params.param_arrays()
        base = arrays[0].base
        assert base is not None and base.size == sum(a.size for a in arrays)
        assert all(a.base is base for a in arrays)

    def test_inert_enhancement_is_not_trained(self):
        # vector records with enhance_vectors off never pass through the bands
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.per_coefficient(2, 1, 4.0, weight=0.5)
        _, trained_feat, log = pipeline.run_stage2(
            dataset, table, split, pipeline.SkeletonFeaturizer(enhancement=enh),
            losses.LossConfig(temperature=1.0), epochs=2, lr=1e-2, batch_size=16,
            latent_dim=2, rng=numkit.make_rng(17), hidden=(4,))
        assert len(log) == 2
        assert trained_feat.enhancement.weights == (0.5, 0.5)

    def test_loss_decreases_over_training(self):
        dataset, table, split = self.small_problem()
        cfg = losses.LossConfig(temperature=1.0, align_weight=0.1, kl_weight=0.1)
        _, _, log = pipeline.run_stage2(dataset, table, split,
                                        pipeline.SkeletonFeaturizer(), cfg,
                                        epochs=120, lr=1e-2, batch_size=16,
                                        latent_dim=2, rng=numkit.make_rng(13),
                                        hidden=(8,))
        assert len(log) == 120
        assert log[-1]["total"] < log[0]["total"]

    def test_missing_semantics_named(self):
        dataset, _, split = self.small_problem()
        table = make_semantic_table({0: [3.0, 0.0], 2: [2.0, 2.0]})
        with pytest.raises(KeyError, match=r"\[1\]"):
            pipeline.run_stage2(dataset, table, split,
                                pipeline.SkeletonFeaturizer(),
                                losses.LossConfig(), epochs=1, lr=1e-3,
                                batch_size=8, latent_dim=2,
                                rng=numkit.make_rng(14), hidden=(4,))

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
        enh = frequency.EnhancementConfig.per_coefficient(8, 3, 4.0, weight=0.5)
        feat = pipeline.SkeletonFeaturizer(enhancement=enh)
        _, trained_feat, _ = pipeline.run_stage2(
            dataset, table, split, feat, losses.LossConfig(temperature=1.0),
            epochs=20, lr=1e-2, batch_size=12, latent_dim=2,
            rng=numkit.make_rng(16), hidden=(4,))
        assert not np.allclose(trained_feat.enhancement.weights, 0.5)

    @pytest.mark.parametrize("where, part", [
        ("kl_weight", "skel_encoder"), ("first array", "skel_encoder"),
        ("last array", "text_decoder"), ("band weights", "band weights")])
    def test_gradient_whose_square_overflows_raises_before_adam(self, monkeypatch, where,
                                                                part):
        # each gradient entry stays finite; only its square overflows
        adam_calls = []
        monkeypatch.setattr(numkit, "adam_step", lambda *a: adam_calls.append(a))
        real_loss, real_band = crossvae.stage2_loss, frequency.enhance_weight_grads

        def loss(*args, **kwargs):
            out = real_loss(*args, **kwargs)
            grads = args[9]
            if where.endswith("array"):
                grads[0 if where == "first array" else -1][...] = 1e200
            return out

        monkeypatch.setattr(crossvae, "stage2_loss", loss)
        if where == "band weights":
            monkeypatch.setattr(frequency, "enhance_weight_grads",
                                lambda *a: np.full_like(real_band(*a), 1e200))
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.per_coefficient(2, 1, 4.0, weight=0.5)
        kl = 1e300 if where == "kl_weight" else 1.0
        with pytest.raises(ValueError, match=rf"^stage 2 epoch 0 step 0: {part} gradient "
                                             "is non-finite or its square overflows$"):
            pipeline.run_stage2(
                dataset, table, split,
                pipeline.SkeletonFeaturizer(enhancement=enh, enhance_vectors=True),
                losses.LossConfig(temperature=1.0, kl_weight=kl), epochs=2, lr=1e-2,
                batch_size=16, latent_dim=2, rng=numkit.make_rng(17), hidden=(4,))
        assert adam_calls == []

    def test_frozen_weights_stay_put(self):
        dataset, table, split = self.small_problem()
        enh = frequency.EnhancementConfig.per_coefficient(2, 1, 4.0, weight=0.5)
        feat = pipeline.SkeletonFeaturizer(enhancement=enh, enhance_vectors=True)
        _, trained_feat, _ = pipeline.run_stage2(
            dataset, table, split, feat, losses.LossConfig(temperature=1.0),
            epochs=5, lr=1e-2, batch_size=16, latent_dim=2,
            rng=numkit.make_rng(17), hidden=(4,), train_weights=False)
        assert trained_feat.enhancement.weights == (0.5, 0.5)


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
            params, table, (5, 6), n_samples=100, epochs=200, lr=0.1,
            rng=numkit.make_rng(18))
        fresh = numkit.make_rng(19)
        for cid in (5, 6):
            fused = semantics.fuse(table, cid)
            z = crossvae.sample_class_latents(params, fused, 200, fresh)
            assert float(np.mean(clf.predict(z) == cid)) >= 0.99

    def test_empty_unseen_set_rejected(self):
        with pytest.raises(ValueError, match="no unseen"):
            pipeline.synthesize_unseen_classifier(
                self.separated_text_vae(), make_semantic_table({5: [1.0, 0.0]}),
                (), rng=numkit.make_rng(0))


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

    def gzsl_fixture(self):
        params = identity_vae()
        seen_clf = pipeline.SoftmaxClassifier((0, 1), 8.0 * np.eye(2), np.zeros(2))
        unseen_clf = pipeline.SoftmaxClassifier((2,), np.zeros((1, 2)), np.zeros(1))
        test_seen = [vector_record("s0", 0, "test-seen", [1.5, 0.0]),
                     vector_record("s1", 1, "test-seen", [0.0, 1.5])]
        test_unseen = [vector_record("u0", 2, "test-unseen", [0.0, 0.0]),
                       vector_record("u1", 2, "test-unseen", [0.05, 0.05])]
        return params, seen_clf, unseen_clf, test_seen, test_unseen

    def test_gzsl_perfect_components_score_one(self):
        params, seen_clf, unseen_clf, test_seen, test_unseen = self.gzsl_fixture()
        # route seen iff top-1 probability clears 0.9
        gate = pipeline.GateModel(np.array([40.0, 0.0]), -36.0, 1.0)
        report = pipeline.evaluate_gzsl(params, pipeline.SkeletonFeaturizer(),
                                        gate, seen_clf, unseen_clf,
                                        test_seen, test_unseen)
        assert report.seen_accuracy == 1.0
        assert report.unseen_accuracy == 1.0
        assert report.harmonic == 1.0
        assert report.per_class == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_gzsl_all_seen_routing_zeroes_unseen(self):
        params, seen_clf, unseen_clf, test_seen, test_unseen = self.gzsl_fixture()
        gate = pipeline.GateModel(np.zeros(2), 5.0, 1.0)  # p_seen always > 0.5
        report = pipeline.evaluate_gzsl(params, pipeline.SkeletonFeaturizer(),
                                        gate, seen_clf, unseen_clf,
                                        test_seen, test_unseen)
        assert report.unseen_accuracy == 0.0
        assert report.harmonic == 0.0
        # the unseen head alone still names every unseen record
        assert report.zsl_accuracy == 1.0 == pipeline.evaluate_zsl(
            params, pipeline.SkeletonFeaturizer(), unseen_clf, test_unseen)

    @pytest.mark.parametrize("weights", [np.zeros(1), np.zeros(3), np.zeros((1, 2))])
    def test_gate_weights_must_be_a_pair(self, weights):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            pipeline.GateModel(weights, 0.0, 1.0)

    def test_gzsl_empty_partition_rejected(self):
        params, seen_clf, unseen_clf, test_seen, _ = self.gzsl_fixture()
        gate = pipeline.GateModel(np.zeros(2), 0.0, 1.0)
        with pytest.raises(ValueError, match="non-empty"):
            pipeline.evaluate_gzsl(params, pipeline.SkeletonFeaturizer(), gate,
                                   seen_clf, unseen_clf, test_seen, [])


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

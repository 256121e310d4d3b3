"""Benchmark generator tests: determinism, partition bookkeeping, spectral
placement of signal and jitter energy, the nearest-prototype oracle, exact
label-noise counts, and the on-disk bundle round trip."""

from types import SimpleNamespace

import numpy as np
import pytest

from freqzsl import frequency, numkit, pipeline, semantics, synthbench


def small_config(**kw):
    base = dict(n_classes=6, n_unseen=2, joints=2, coords=2, frames=32,
                samples_per_class=6, low_band=tuple(range(1, 5)), proto_rank=3,
                jitter_start=16, embed_dim=8, seed=0)
    base.update(kw)
    return synthbench.SynthConfig(**base)


class TestConfig:
    def test_defaults_shape_the_published_benchmark(self):
        cfg = synthbench.SynthConfig()
        assert cfg.n_classes == 12 and cfg.n_unseen == 2
        assert cfg.frames == 64

    def test_unseen_count_bounds(self):
        with pytest.raises(ValueError):
            small_config(n_unseen=0)
        with pytest.raises(ValueError):
            small_config(n_unseen=6)

    def test_band_indices_must_fit_frames(self):
        with pytest.raises(ValueError, match="low_band"):
            small_config(low_band=(1, 40))

    def test_proto_rank_bounds(self):
        with pytest.raises(ValueError, match="proto_rank"):
            small_config(proto_rank=0)
        with pytest.raises(ValueError, match="proto_rank"):
            small_config(proto_rank=17)  # 2 * 2 * 4 = 16 available dims

    def test_noise_rate_bounds(self):
        with pytest.raises(ValueError):
            small_config(label_noise_rate=1.5)

    def test_jitter_ratio_uses_per_coefficient_scale(self):
        cfg = small_config()
        n_signal = cfg.joints * cfg.coords * len(cfg.low_band)
        assert cfg.jitter_std_for_ratio(1.0) == pytest.approx(
            1.0 / np.sqrt(n_signal), abs=1e-15)
        assert cfg.jitter_std_for_ratio(0.0) == 0.0


class TestGenerate:
    def test_same_seed_byte_identical(self):
        a = synthbench.generate(small_config())
        b = synthbench.generate(small_config())
        assert len(a.dataset.records) == len(b.dataset.records)
        for ra, rb in zip(a.dataset.records, b.dataset.records):
            assert ra.sample_id == rb.sample_id and ra.class_id == rb.class_id
            np.testing.assert_array_equal(ra.sequence, rb.sequence)
        for cid in a.prototypes:
            np.testing.assert_array_equal(a.prototypes[cid], b.prototypes[cid])
        assert a.split == b.split

    def test_different_seeds_differ(self):
        a = synthbench.generate(small_config(seed=0))
        b = synthbench.generate(small_config(seed=1))
        assert not np.array_equal(a.dataset.records[0].sequence,
                                  b.dataset.records[0].sequence)

    def test_partition_counts(self):
        cfg = small_config()
        gen = synthbench.generate(cfg)
        n_test = max(1, min(round(cfg.test_fraction * cfg.samples_per_class),
                            cfg.samples_per_class - 1))
        n_seen = cfg.n_classes - cfg.n_unseen
        assert len(gen.dataset.by_partition("train-seen")) == n_seen * (
            cfg.samples_per_class - n_test)
        assert len(gen.dataset.by_partition("test-seen")) == n_seen * n_test
        assert len(gen.dataset.by_partition("test-unseen")) == (
            cfg.n_unseen * cfg.samples_per_class)

    def test_split_hygiene_holds(self):
        gen = synthbench.generate(small_config())
        pipeline.validate_split(gen.dataset, gen.split)
        assert len(gen.split.seen) == 4 and len(gen.split.unseen) == 2

    def test_prototypes_unit_norm_and_distinct(self):
        gen = synthbench.generate(small_config())
        protos = list(gen.prototypes.values())
        for p in protos:
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
        for i in range(len(protos)):
            for j in range(i + 1, len(protos)):
                assert not np.allclose(protos[i], protos[j])

    def test_prototypes_span_limited_rank(self):
        cfg = small_config(proto_rank=3)
        gen = synthbench.generate(cfg)
        mat = np.stack([p.reshape(-1) for p in gen.prototypes.values()])
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 3

    def test_clean_samples_concentrate_energy_in_band(self):
        cfg = small_config(jitter_std=0.0)
        gen = synthbench.generate(cfg)
        band = np.asarray(cfg.low_band)
        for rec in gen.dataset.records:
            spec = frequency.dct_forward(rec.sequence)
            total = float(np.sum(spec * spec))
            inside = float(np.sum(spec[..., band] ** 2))
            assert inside / total >= 0.99

    def test_jitter_lands_mostly_outside_band(self):
        cfg = small_config(jitter_std=0.0)
        noisy_cfg = small_config(jitter_std=0.3, jitter_start=16)
        clean = synthbench.generate(cfg)
        noisy = synthbench.generate(noisy_cfg)
        band = np.asarray(cfg.low_band)
        # same sample streams, so the jitter is the spectral difference
        added_in, added_total = 0.0, 0.0
        for rc, rn in zip(clean.dataset.records, noisy.dataset.records):
            diff = frequency.dct_forward(rn.sequence) - frequency.dct_forward(rc.sequence)
            added_total += float(np.sum(diff * diff))
            added_in += float(np.sum(diff[..., band] ** 2))
        assert added_total > 0
        assert added_in / added_total < 0.05

    def test_semantic_embeddings_cover_all_classes_and_kinds(self):
        gen = synthbench.generate(small_config())
        assert gen.table.classes() == tuple(range(6))
        for cid in range(6):
            for kind in semantics.KINDS:
                assert gen.table.get(cid, kind).shape == (8,)

    def test_semantic_embeddings_track_prototypes(self):
        # noiseless embeddings are linear in the prototype, so two very
        # different prototypes give different embeddings
        gen = synthbench.generate(small_config(semantic_noise_std=0.0))
        e0 = gen.table.get(0, "AL")
        e1 = gen.table.get(1, "AL")
        assert not np.allclose(e0, e1)


class TestLabelNoise:
    def test_zero_rate_is_identity(self):
        gen = synthbench.generate(small_config())
        out = synthbench.inject_label_noise(gen.dataset, 0.0, numkit.make_rng(0))
        for a, b in zip(gen.dataset.records, out.records):
            assert a.class_id == b.class_id

    def test_exact_count_and_train_only(self):
        gen = synthbench.generate(small_config())
        rate = 0.25
        out = synthbench.inject_label_noise(gen.dataset, rate, numkit.make_rng(1))
        n_train = len(gen.dataset.by_partition("train-seen"))
        flips = 0
        for a, b in zip(gen.dataset.records, out.records):
            if a.class_id != b.class_id:
                flips += 1
                assert a.partition == "train-seen"
        assert flips == int(rate * n_train)

    def test_full_rate_two_class_pool_flips_everything(self):
        cfg = small_config(n_classes=3, n_unseen=1, proto_rank=2)
        gen = synthbench.generate(cfg)
        out = synthbench.inject_label_noise(gen.dataset, 1.0, numkit.make_rng(2))
        train_pool = {r.class_id for r in gen.dataset.by_partition("train-seen")}
        assert len(train_pool) == 2
        for a, b in zip(gen.dataset.records, out.records):
            if a.partition == "train-seen":
                assert b.class_id != a.class_id
                assert b.class_id in train_pool
            else:
                assert b.class_id == a.class_id

    def test_new_labels_stay_in_training_pool(self):
        gen = synthbench.generate(small_config())
        out = synthbench.inject_label_noise(gen.dataset, 0.5, numkit.make_rng(3))
        pool = {r.class_id for r in gen.dataset.by_partition("train-seen")}
        for rec in out.by_partition("train-seen"):
            assert rec.class_id in pool

    def test_input_dataset_untouched(self):
        gen = synthbench.generate(small_config())
        before = [r.class_id for r in gen.dataset.records]
        synthbench.inject_label_noise(gen.dataset, 0.5, numkit.make_rng(4))
        assert [r.class_id for r in gen.dataset.records] == before

    def test_bad_rate_rejected(self):
        gen = synthbench.generate(small_config())
        with pytest.raises(ValueError):
            synthbench.inject_label_noise(gen.dataset, -0.1, numkit.make_rng(0))


def oracle_nearest_prototype(gen):
    """Nearest-prototype accuracies (overall, test-seen, test-unseen): each
    test sample goes to the class whose exact prototype is nearest its
    jitter-free low-band coefficients, a construction-aware upper bound."""
    band = np.asarray(gen.config.low_band, dtype=np.intp)
    class_ids = sorted(gen.prototypes)
    proto_mat = np.stack([gen.prototypes[k].reshape(-1) for k in class_ids])
    hits = {"test-seen": [], "test-unseen": []}
    for rec in gen.dataset.records:
        if rec.partition == "train-seen":
            continue
        coeffs = frequency.dct_forward(rec.sequence)[..., band].reshape(-1)
        pred = class_ids[int(np.argmin(np.sum((proto_mat - coeffs) ** 2, axis=1)))]
        hits[rec.partition].append(pred == rec.class_id)
    seen_h, unseen_h = hits["test-seen"], hits["test-unseen"]
    assert seen_h or unseen_h, "dataset has no test records"
    return SimpleNamespace(
        overall=float(np.mean(seen_h + unseen_h)),
        test_seen=float(np.mean(seen_h)) if seen_h else None,
        test_unseen=float(np.mean(unseen_h)) if unseen_h else None)


class TestOracle:
    def test_clean_benchmark_is_perfectly_separable(self):
        report = oracle_nearest_prototype(
            synthbench.generate(small_config()))
        assert report.overall == 1.0
        assert report.test_seen == 1.0 and report.test_unseen == 1.0

    def test_extreme_jitter_drives_oracle_to_chance(self):
        cfg = small_config(n_classes=4, n_unseen=1, proto_rank=2,
                           samples_per_class=40, jitter_std=6.0,
                           jitter_start=0, jitter_low_leak=1.0)
        report = oracle_nearest_prototype(synthbench.generate(cfg))
        n_test = 4 * 40 - len(synthbench.generate(cfg).dataset.by_partition("train-seen"))
        sigma = np.sqrt(0.25 * 0.75 / n_test)
        assert abs(report.overall - 0.25) < 5 * sigma

    def test_oracle_degrades_monotonically_with_jitter(self):
        clean = oracle_nearest_prototype(
            synthbench.generate(small_config())).overall
        noisy = oracle_nearest_prototype(
            synthbench.generate(small_config(jitter_std=4.0, jitter_start=0,
                                             jitter_low_leak=1.0))).overall
        assert noisy < clean


class TestWriteBenchmark:
    def test_bundle_round_trip(self, tmp_path):
        gen = synthbench.generate(small_config())
        fpath, epath, spath = synthbench.write_benchmark(gen, tmp_path, "hash123")
        dataset = pipeline.load_feature_file(fpath)
        table = semantics.load_embeddings(epath)
        split = pipeline.load_split_file(spath)
        assert len(dataset.records) == len(gen.dataset.records)
        assert split == gen.split
        assert table.classes() == gen.table.classes()
        np.testing.assert_allclose(dataset.records[0].sequence,
                                   gen.dataset.records[0].sequence, atol=1e-15)
        pipeline.validate_split(dataset, split)

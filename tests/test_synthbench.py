"""Benchmark generator tests: determinism, partition bookkeeping, spectral
placement of signal and jitter energy, the nearest-prototype oracle, exact
label-noise counts, and the on-disk bundle round trip."""

from types import SimpleNamespace

import numpy as np
import pytest

from freqzsl import frequency, numkit, pipeline, semantics, synthbench
from freqzsl.cli import RunConfig


def small_config(**kw):
    base = dict(synth_classes=6, synth_unseen=2, synth_joints=2, synth_coords=2,
                synth_frames=32, synth_samples_per_class=6, synth_low_band_start=1,
                synth_low_band_stop=5, synth_proto_rank=3, synth_jitter_start=16,
                synth_embed_dim=8, seed=0)
    base.update(kw)
    return RunConfig(**base)


def low_band(cfg):
    return np.arange(cfg.synth_low_band_start, cfg.synth_low_band_stop)


class TestConfig:
    """RunConfig refuses a synth_* key outside its domain; generate refuses
    keys that do not fit together."""

    def test_defaults_shape_the_published_benchmark(self):
        cfg = RunConfig()
        assert cfg.synth_classes == 12 and cfg.synth_unseen == 2
        assert cfg.synth_frames == 64

    def test_unseen_count_bounds(self):
        with pytest.raises(ValueError):
            synthbench.generate(small_config(synth_unseen=0))
        with pytest.raises(ValueError):
            synthbench.generate(small_config(synth_unseen=6))

    def test_band_indices_must_fit_frames(self):
        with pytest.raises(ValueError, match="low_band"):
            synthbench.generate(small_config(synth_low_band_stop=40))

    def test_proto_rank_bounds(self):
        with pytest.raises(ValueError, match="proto_rank"):
            synthbench.generate(small_config(synth_proto_rank=0))
        with pytest.raises(ValueError, match="proto_rank"):
            # 2 * 2 * 4 = 16 available dims
            synthbench.generate(small_config(synth_proto_rank=17))

    def test_noise_rate_bounds(self):
        with pytest.raises(ValueError):
            synthbench.generate(small_config(synth_label_noise=1.5))

    @pytest.mark.parametrize("key, value", [
        ("synth_unseen", 6), ("synth_low_band_stop", 33), ("synth_low_band_stop", 1),
        ("synth_proto_rank", 17), ("synth_jitter_start", 33)])
    def test_broken_relation_is_a_config_error_naming_its_key(self, key, value):
        with pytest.raises(synthbench.ConfigError, match=key):
            synthbench.generate(small_config(**{key: value}))

    def test_label_noise_needs_two_seen_classes(self):
        with pytest.raises(synthbench.ConfigError, match="^synth_label_noise > 0 needs at "
                                                         "least 2 seen classes"):
            synthbench.generate(small_config(synth_unseen=5, synth_label_noise=0.5))
        # one seen class is fine without noise, and two can swap labels
        synthbench.generate(small_config(synth_unseen=5))
        gen = synthbench.generate(small_config(synth_unseen=4, synth_label_noise=0.5))
        assert len(gen.split.seen) == 2

    def test_relations_at_their_limits_are_accepted(self):
        gen = synthbench.generate(small_config(
            synth_unseen=5, synth_low_band_start=0, synth_low_band_stop=32,
            synth_proto_rank=2 * 2 * 32, synth_jitter_start=32, synth_jitter_std=0.1))
        assert len(gen.split.unseen) == 5


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
        per_class = cfg.synth_samples_per_class
        n_test = max(1, min(round(cfg.synth_test_fraction * per_class), per_class - 1))
        n_seen = cfg.synth_classes - cfg.synth_unseen
        assert len(gen.dataset.by_partition("train-seen")) == n_seen * (
            per_class - n_test)
        assert len(gen.dataset.by_partition("test-seen")) == n_seen * n_test
        assert len(gen.dataset.by_partition("test-unseen")) == (
            cfg.synth_unseen * per_class)

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
        cfg = small_config(synth_proto_rank=3)
        gen = synthbench.generate(cfg)
        mat = np.stack([p.reshape(-1) for p in gen.prototypes.values()])
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 3

    def test_clean_samples_concentrate_energy_in_band(self):
        cfg = small_config(synth_jitter_std=0.0)
        gen = synthbench.generate(cfg)
        band = low_band(cfg)
        for rec in gen.dataset.records:
            spec = frequency.dct_forward(rec.sequence)
            total = float(np.sum(spec * spec))
            inside = float(np.sum(spec[..., band] ** 2))
            assert inside / total >= 0.99

    def test_jitter_lands_mostly_outside_band(self):
        cfg = small_config(synth_jitter_std=0.0)
        noisy_cfg = small_config(synth_jitter_std=0.3, synth_jitter_start=16)
        clean = synthbench.generate(cfg)
        noisy = synthbench.generate(noisy_cfg)
        band = low_band(cfg)
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
        assert sorted(gen.table) == list(range(6))
        for cid in range(6):
            for kind in semantics.KINDS:
                assert gen.table[cid][kind].shape == (8,)

    def test_semantic_embeddings_track_prototypes(self):
        # noiseless embeddings are linear in the prototype, so two very
        # different prototypes give different embeddings
        gen = synthbench.generate(small_config(synth_semantic_noise_std=0.0))
        e0 = gen.table[0]["AL"]
        e1 = gen.table[1]["AL"]
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
        cfg = small_config(synth_classes=3, synth_unseen=1, synth_proto_rank=2)
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


def oracle_nearest_prototype(cfg):
    """Nearest-prototype accuracies (overall, test-seen, test-unseen) on the
    benchmark cfg generates: each test sample goes to the class whose exact
    prototype is nearest its jitter-free low-band coefficients, a
    construction-aware upper bound."""
    gen = synthbench.generate(cfg)
    band = low_band(cfg)
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
        report = oracle_nearest_prototype(small_config())
        assert report.overall == 1.0
        assert report.test_seen == 1.0 and report.test_unseen == 1.0

    def test_extreme_jitter_drives_oracle_to_chance(self):
        cfg = small_config(synth_classes=4, synth_unseen=1, synth_proto_rank=2,
                           synth_samples_per_class=40, synth_jitter_std=6.0,
                           synth_jitter_start=0, synth_jitter_low_leak=1.0)
        report = oracle_nearest_prototype(cfg)
        n_test = 4 * 40 - len(synthbench.generate(cfg).dataset.by_partition("train-seen"))
        sigma = np.sqrt(0.25 * 0.75 / n_test)
        assert abs(report.overall - 0.25) < 5 * sigma

    def test_oracle_degrades_monotonically_with_jitter(self):
        clean = oracle_nearest_prototype(small_config()).overall
        noisy = oracle_nearest_prototype(small_config(
            synth_jitter_std=4.0, synth_jitter_start=0, synth_jitter_low_leak=1.0)).overall
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
        assert sorted(table) == sorted(gen.table)
        np.testing.assert_allclose(dataset.records[0].sequence,
                                   gen.dataset.records[0].sequence, atol=1e-15)
        pipeline.validate_split(dataset, split)

"""Seeded synthetic benchmark: skeleton-like sequences with class structure
in a low frequency band, plus matching semantic embeddings and a split.

Each class k draws a unit-norm prototype of sinusoid amplitudes, one per
(joint, coordinate, low-band coefficient). Prototypes live in a shared
random subspace of rank `proto_rank`: unseen classes are then linear
blends of directions the seen classes exercise, which is what makes
zero-shot transfer learnable at this scale (mirroring how real action
semantics are low-dimensional). A sample perturbs the low-band
coefficients (the within-class variation) and optionally adds jitter:
Gaussian spectral noise concentrated above `jitter_start`, with a small
leak fraction into the low band so extreme jitter can actually swamp the
signal. Sequences are the inverse transform of that spectrum, so a clean
sample keeps 100% of its energy inside the configured low band.

The three semantic kinds are distinct noisy linear views of the same
prototype: kind-specific random projections plus kind-and-class noise.
Everything is a pure function of the config seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frequency, numkit, pipeline, semantics
from .numkit import Array


@dataclass(frozen=True)
class SynthConfig:
    """Benchmark knobs; defaults give 12 classes, 10 seen / 2 unseen."""

    n_classes: int = 12
    n_unseen: int = 2
    joints: int = 5
    coords: int = 3
    frames: int = 64
    samples_per_class: int = 20
    test_fraction: float = 0.25
    low_band: tuple[int, ...] = tuple(range(1, 7))
    proto_rank: int = 4
    within_class_std: float = 0.08
    jitter_std: float = 0.0
    jitter_start: int = 36
    jitter_low_leak: float = 0.1
    label_noise_rate: float = 0.0
    embed_dim: int = 16
    semantic_noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 2 or not (0 < self.n_unseen < self.n_classes):
            raise ValueError("need >= 2 classes and 0 < n_unseen < n_classes")
        if min(self.joints, self.coords, self.frames, self.embed_dim) < 1:
            raise ValueError("dimensions must be positive")
        if self.samples_per_class < 2:
            raise ValueError("need >= 2 samples per class (train and test)")
        if not self.low_band or any(not 0 <= i < self.frames for i in self.low_band):
            raise ValueError("low_band indices must lie in [0, frames)")
        if len(set(self.low_band)) != len(self.low_band):
            raise ValueError("low_band has duplicate indices")
        if not (1 <= self.proto_rank <= self.joints * self.coords * len(self.low_band)):
            raise ValueError("proto_rank must be in [1, joints*coords*len(low_band)]")
        if not (0 <= self.jitter_start <= self.frames):
            raise ValueError("jitter_start must lie in [0, frames]")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must be in (0, 1)")
        if not (0.0 <= self.label_noise_rate <= 1.0):
            raise ValueError("label_noise_rate must be in [0, 1]")
        if min(self.within_class_std, self.jitter_std, self.jitter_low_leak,
               self.semantic_noise_std) < 0:
            raise ValueError("noise scales must be non-negative")

    def jitter_std_for_ratio(self, ratio: float) -> float:
        """Jitter std whose per-coefficient amplitude is `ratio` times the
        signal's per-coefficient RMS (a unit-norm prototype spread over
        joints*coords*len(low_band) entries). At ratio 1 each corrupted
        coefficient fluctuates as strongly as a typical signal coefficient."""
        n_signal = self.joints * self.coords * len(self.low_band)
        return float(ratio / math.sqrt(n_signal))


@dataclass
class GeneratedDataset:
    """Benchmark bundle: records, semantics, split, and the true prototypes."""

    dataset: pipeline.FeatureDataset
    table: semantics.SemanticTable
    split: pipeline.SplitSpec
    prototypes: dict[int, Array]
    config: SynthConfig


# rng stream ids; one substream per concern keeps draws order-independent
_STREAM_PROTO, _STREAM_SPLIT, _STREAM_SAMPLES, _STREAM_SEMANTIC, _STREAM_NOISE = range(5)


def generate(config: SynthConfig) -> GeneratedDataset:
    """Build the full benchmark deterministically from config.seed."""
    j, c, f = config.joints, config.coords, config.frames
    band = np.asarray(config.low_band, dtype=np.intp)
    n_band = band.size

    rng = numkit.make_rng(config.seed, _STREAM_PROTO)
    flat_dim = j * c * n_band
    basis = np.linalg.qr(rng.standard_normal((flat_dim, config.proto_rank)))[0].T
    protos: dict[int, Array] = {}
    for k in range(config.n_classes):
        p = (rng.standard_normal(config.proto_rank) @ basis).reshape(j, c, n_band)
        protos[k] = p / np.linalg.norm(p)

    rng = numkit.make_rng(config.seed, _STREAM_SPLIT)
    perm = rng.permutation(config.n_classes)
    unseen = tuple(sorted(int(k) for k in perm[:config.n_unseen]))
    seen = tuple(sorted(int(k) for k in perm[config.n_unseen:]))
    split = pipeline.SplitSpec(seen, unseen)

    n_test = max(1, min(round(config.test_fraction * config.samples_per_class),
                        config.samples_per_class - 1))
    rng = numkit.make_rng(config.seed, _STREAM_SAMPLES)
    records = []
    for k in range(config.n_classes):
        for s in range(config.samples_per_class):
            spec = np.zeros((j, c, f))
            spec[..., band] = protos[k] + config.within_class_std * rng.standard_normal(
                (j, c, n_band))
            if config.jitter_std > 0:
                if config.jitter_start < f:
                    spec[..., config.jitter_start:] += (
                        config.jitter_std
                        * rng.standard_normal((j, c, f - config.jitter_start)))
                spec[..., band] += (config.jitter_std * config.jitter_low_leak
                                    * rng.standard_normal((j, c, n_band)))
            seq = frequency.idct(spec)
            if k in unseen:
                part = "test-unseen"
            else:
                part = "train-seen" if s < config.samples_per_class - n_test else "test-seen"
            records.append(pipeline.FeatureRecord(
                f"c{k:03d}s{s:03d}", k, part, sequence=seq))
    dataset = pipeline.FeatureDataset(records)

    rng = numkit.make_rng(config.seed, _STREAM_SEMANTIC)
    table_vectors: dict[int, dict[str, Array]] = {k: {} for k in range(config.n_classes)}
    for kind in semantics.KINDS:
        proj = rng.standard_normal((config.embed_dim, flat_dim)) / math.sqrt(flat_dim)
        for k in range(config.n_classes):
            noise = config.semantic_noise_std * rng.standard_normal(config.embed_dim)
            table_vectors[k][kind] = proj @ protos[k].reshape(-1) + noise
    table = semantics.SemanticTable(
        table_vectors, {kind: config.embed_dim for kind in semantics.KINDS})

    if config.label_noise_rate > 0:
        dataset = inject_label_noise(dataset, config.label_noise_rate,
                                     numkit.make_rng(config.seed, _STREAM_NOISE))
    return GeneratedDataset(dataset, table, split, protos, config)


def inject_label_noise(dataset: pipeline.FeatureDataset, rate: float,
                       rng: np.random.Generator) -> pipeline.FeatureDataset:
    """Relabel exactly floor(rate * n_train) train records, chosen uniformly.

    Each victim gets a uniformly random DIFFERENT class from the training
    pool (never an unseen id, which would break split hygiene). Returns a
    new dataset; the input is untouched.
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    train_idx = [i for i, r in enumerate(dataset.records) if r.partition == "train-seen"]
    pool = sorted({dataset.records[i].class_id for i in train_idx})
    n_flip = int(rate * len(train_idx))
    if n_flip > 0 and len(pool) < 2:
        raise ValueError("cannot relabel: training pool has a single class")
    victims = rng.choice(len(train_idx), size=n_flip, replace=False) if n_flip else []
    records = list(dataset.records)
    for v in victims:
        i = train_idx[int(v)]
        rec = records[i]
        others = [c for c in pool if c != rec.class_id]
        new_class = int(others[rng.integers(len(others))])
        records[i] = pipeline.FeatureRecord(rec.sample_id, new_class, rec.partition,
                                            rec.vector, rec.sequence)
    return pipeline.FeatureDataset(records)


def write_benchmark(gen: GeneratedDataset, out_dir, config_hash: str | None = None):
    """Emit features.jsonl, embeddings.jsonl, and split.json under out_dir."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    feature_path = out / "features.jsonl"
    embed_path = out / "embeddings.jsonl"
    split_path = out / "split.json"
    pipeline.write_feature_file(feature_path, gen.dataset)
    semantics.write_embeddings(embed_path, (
        semantics.EmbeddingRecord(cid, kind, gen.table.get(cid, kind))
        for cid in gen.table.classes() for kind in semantics.KINDS))
    pipeline.write_split_file(split_path, gen.split, config_hash)
    return feature_path, embed_path, split_path

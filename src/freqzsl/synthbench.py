"""Seeded synthetic benchmark: skeleton-like sequences with class structure
in a low frequency band, plus matching semantic embeddings and a split.

Each class k draws a unit-norm prototype of sinusoid amplitudes, one per
(joint, coordinate, low-band coefficient). Prototypes live in a shared
random subspace of rank `synth_proto_rank`: unseen classes are then linear
blends of directions the seen classes exercise, which is what makes
zero-shot transfer learnable at this scale (mirroring how real action
semantics are low-dimensional). A sample perturbs the low-band
coefficients (the within-class variation) and optionally adds jitter:
Gaussian spectral noise concentrated above `synth_jitter_start`, with a small
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
from typing import TYPE_CHECKING

import numpy as np

from . import frequency, numkit, pipeline, semantics
from .numkit import Array

if TYPE_CHECKING:
    from .cli import RunConfig


class ConfigError(ValueError):
    """Bad config file or option combination; maps to exit code 2 (cli re-exports it)."""


@dataclass
class GeneratedDataset:
    """Benchmark bundle: records, semantics, split, and the true prototypes."""

    dataset: pipeline.FeatureDataset
    table: semantics.SemanticTable
    split: pipeline.SplitSpec
    prototypes: dict[int, Array]


# rng stream ids; one substream per concern keeps draws order-independent
_STREAM_PROTO, _STREAM_SPLIT, _STREAM_SAMPLES, _STREAM_SEMANTIC, _STREAM_NOISE = range(5)


def generate(cfg: RunConfig) -> GeneratedDataset:
    """Build the full benchmark deterministically from cfg's synth_* keys and
    seed. RunConfig checks each key's domain; the relations between the keys
    are checked here, and a config that breaks one raises ConfigError."""
    j, c, f = cfg.synth_joints, cfg.synth_coords, cfg.synth_frames
    band = np.arange(cfg.synth_low_band_start, cfg.synth_low_band_stop)
    n_band = band.size
    flat_dim = j * c * n_band
    if not cfg.synth_unseen < cfg.synth_classes:
        raise ConfigError(f"synth_unseen must be < synth_classes ({cfg.synth_classes}), "
                          f"got {cfg.synth_unseen}")
    if not (0 < n_band and cfg.synth_low_band_stop <= f):
        raise ConfigError("synth_low_band_start and synth_low_band_stop must give a "
                          f"non-empty band within the {f} synth_frames, got "
                          f"[{cfg.synth_low_band_start}, {cfg.synth_low_band_stop})")
    if not cfg.synth_proto_rank <= flat_dim:
        raise ConfigError(f"synth_proto_rank must be <= synth_joints * synth_coords * "
                          f"band width ({flat_dim}), got {cfg.synth_proto_rank}")
    if not cfg.synth_jitter_start <= f:
        raise ConfigError(f"synth_jitter_start must be <= synth_frames ({f}), "
                          f"got {cfg.synth_jitter_start}")
    check_label_noise("synth_label_noise", cfg.synth_label_noise, cfg)

    rng = numkit.make_rng(cfg.seed, _STREAM_PROTO)
    basis = np.linalg.qr(rng.standard_normal((flat_dim, cfg.synth_proto_rank)))[0].T
    protos: dict[int, Array] = {}
    for k in range(cfg.synth_classes):
        p = (rng.standard_normal(cfg.synth_proto_rank) @ basis).reshape(j, c, n_band)
        protos[k] = p / np.linalg.norm(p)

    rng = numkit.make_rng(cfg.seed, _STREAM_SPLIT)
    perm = rng.permutation(cfg.synth_classes)
    unseen = tuple(sorted(int(k) for k in perm[:cfg.synth_unseen]))
    seen = tuple(sorted(int(k) for k in perm[cfg.synth_unseen:]))
    split = pipeline.SplitSpec(seen, unseen)

    per_class = cfg.synth_samples_per_class
    n_test = max(1, min(round(cfg.synth_test_fraction * per_class), per_class - 1))
    jitter, start = cfg.synth_jitter_std, cfg.synth_jitter_start
    rng = numkit.make_rng(cfg.seed, _STREAM_SAMPLES)
    records = []
    for k in range(cfg.synth_classes):
        for s in range(per_class):
            spec = np.zeros((j, c, f))
            spec[..., band] = protos[k] + cfg.synth_within_class_std * rng.standard_normal(
                (j, c, n_band))
            if jitter > 0:
                if start < f:
                    spec[..., start:] += jitter * rng.standard_normal((j, c, f - start))
                spec[..., band] += (jitter * cfg.synth_jitter_low_leak
                                    * rng.standard_normal((j, c, n_band)))
            seq = frequency.idct(spec)
            if k in unseen:
                part = "test-unseen"
            else:
                part = "train-seen" if s < per_class - n_test else "test-seen"
            records.append(pipeline.FeatureRecord(
                f"c{k:03d}s{s:03d}", k, part, sequence=seq))
    dataset = pipeline.FeatureDataset(records)

    rng = numkit.make_rng(cfg.seed, _STREAM_SEMANTIC)
    dim = cfg.synth_embed_dim
    table: semantics.SemanticTable = {k: {} for k in range(cfg.synth_classes)}
    for kind in semantics.KINDS:
        proj = rng.standard_normal((dim, flat_dim)) / math.sqrt(flat_dim)
        for k in range(cfg.synth_classes):
            noise = cfg.synth_semantic_noise_std * rng.standard_normal(dim)
            table[k][kind] = proj @ protos[k].reshape(-1) + noise

    if cfg.synth_label_noise > 0:
        dataset = inject_label_noise(dataset, cfg.synth_label_noise,
                                     numkit.make_rng(cfg.seed, _STREAM_NOISE))
    return GeneratedDataset(dataset, table, split, protos)


def check_label_noise(name: str, rate: float, cfg: RunConfig) -> None:
    """A label-noise rate above 0 moves records to another seen class, so it
    needs two of them; name is the key or option that set the rate."""
    seen = cfg.synth_classes - cfg.synth_unseen
    if rate > 0 and seen < 2:
        raise ConfigError(f"{name} > 0 needs at least 2 seen classes (synth_classes - "
                          f"synth_unseen), got {seen}")


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


def write_benchmark(gen: GeneratedDataset, out_dir, config_hash: str):
    """Emit features.jsonl, embeddings.jsonl, and split.json under out_dir."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    feature_path = out / "features.jsonl"
    embed_path = out / "embeddings.jsonl"
    split_path = out / "split.json"
    semantics.write_lines(feature_path, gen.dataset.records)
    semantics.write_lines(embed_path, (
        semantics.EmbeddingRecord(cid, kind, gen.table[cid][kind])
        for cid in sorted(gen.table) for kind in semantics.KINDS))
    pipeline.write_split_file(split_path, gen.split, config_hash)
    return feature_path, embed_path, split_path

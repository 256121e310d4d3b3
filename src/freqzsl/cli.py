"""Command-line front end tying the benchmark, training stages, and
evaluation together.

Commands: synth (emit benchmark files), dct-check (transform self-tests),
train (stages 2-4, writes a checkpoint and loss log), eval (ZSL or GZSL
report from a checkpoint), loss-bench (alignment-loss robustness table
over label-noise rates and seeds), export-latents (latent means to CSV).

Configs are flat `key = value` text files validated against RunConfig;
every run artifact embeds the sha256 hash of the resolved config (data
files whose record schema has no room for it get a manifest.json sidecar).
Exit codes: 0 success, 1 failed check or runtime error, 2 usage/config
error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import crossvae, frequency, losses, numkit, pipeline, semantics, synthbench


class ConfigError(ValueError):
    """Bad config file or option combination; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run; defaults follow the reference recipe where one
    exists (enhancement thresholds, loss weights, batch and stage sizes) and
    the desk-scale synthetic benchmark elsewhere."""

    # synthetic benchmark
    synth_classes: int = 12
    synth_unseen: int = 2
    synth_joints: int = 5
    synth_coords: int = 3
    synth_frames: int = 64
    synth_samples_per_class: int = 20
    synth_test_fraction: float = 0.25
    synth_low_band_start: int = 1
    synth_low_band_stop: int = 7
    synth_proto_rank: int = 4
    synth_within_class_std: float = 0.08
    synth_jitter_std: float = 0.0
    synth_jitter_start: int = 36
    synth_jitter_low_leak: float = 0.1
    synth_label_noise: float = 0.0
    synth_embed_dim: int = 16
    synth_semantic_noise_std: float = 0.05
    # frequency enhancement
    enhance_mode: str = "piecewise"  # piecewise | learnable_only | off
    low_cutoff: int = 35
    ramp: float = 30.0
    band_size: int = 1
    weight_floor: float = 0.0
    init_weight: float = 0.5
    enhance_vectors: bool = False
    train_weights: bool = True
    # objective
    temperature: float = 100.0
    align_weight: float = 0.1
    kl_weight: float = 1.0
    margin: float = 1.0
    align_loss: str = "calibrated"
    # model
    latent_dim: int = 16
    hidden_dim: int = 64
    hidden_layers: int = 2
    # training
    stage2_epochs: int = 1900
    stage2_lr: float = 1e-4
    batch_size: int = 64
    unseen_samples: int = 500
    unseen_epochs: int = 300
    unseen_lr: float = 1e-3
    seen_epochs: int = 300
    seen_lr: float = 1e-3
    gate_c: float = 1.0
    gate_holdout: float = 0.2
    bench_seeds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.enhance_mode not in ("piecewise", "learnable_only", "off"):
            raise ConfigError(f"enhance_mode {self.enhance_mode!r} unknown")
        if self.align_loss not in losses.ALIGN_LOSSES:
            raise ConfigError(f"align_loss {self.align_loss!r} unknown")
        if min(self.latent_dim, self.hidden_dim, self.hidden_layers,
               self.batch_size, self.band_size) < 1:
            raise ConfigError("model/batch dimensions must be positive")
        if min(self.stage2_epochs, self.unseen_epochs, self.seen_epochs) < 0:
            raise ConfigError("epoch counts must be non-negative")
        if not (0.0 < self.gate_holdout < 1.0):
            raise ConfigError("gate_holdout must be in (0, 1)")
        if self.bench_seeds < 1:
            raise ConfigError("bench_seeds must be positive")
        for key in ("stage2_lr", "unseen_lr", "seen_lr", "gate_c"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.align_loss == "t4":
            _check_t4_margin(self.margin)


def _check_t4_margin(margin: float) -> None:
    """t4 divides by D+ + margin, which is 0 when D+ = D- = 0 unless margin > 0."""
    if not margin > 0:
        raise ConfigError(f"margin must be > 0 for align_loss t4, got {margin}")


def _coerce(field: dataclasses.Field, raw: str):
    if field.type in ("int", int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{field.name}: {raw!r} is not an integer") from exc
    if field.type in ("float", float):
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{field.name}: {raw!r} is not a number") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{field.name}: {raw!r} is not a finite number")
        return value
    if field.type in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{field.name}: {raw!r} is not a boolean")
    return raw


def parse_config(path) -> RunConfig:
    """Read a flat `key = value` file; '#' starts a comment, blanks ignored."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in fields:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = _coerce(fields[key], raw)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def tuned_synth_config() -> RunConfig:
    """Recipe tuned for the bundled synthetic benchmark.

    RunConfig defaults keep the reference recipe, whose loss weights and
    learning rates are matched to large pretrained feature scales. The
    synthetic features have per-dim variance around 5e-3 and cross-modal
    distances of order 1, so here the pair-sigmoid temperature drops to
    that distance scale, the KL weight steps back from posterior collapse,
    and the classifier steps are large enough to reach confident softmax
    weights on small latents.
    """
    return RunConfig(
        temperature=1.0, kl_weight=0.02, align_weight=1.0,
        stage2_epochs=1000, stage2_lr=1e-3,
        unseen_lr=1e-2, seen_lr=1e-2,
        synth_semantic_noise_std=0.02)


def config_hash(cfg: RunConfig) -> str:
    text = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}"
                     for f in dataclasses.fields(RunConfig))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---- config -> component wiring ----


def make_synth_config(cfg: RunConfig) -> synthbench.SynthConfig:
    try:
        return synthbench.SynthConfig(
            n_classes=cfg.synth_classes,
            n_unseen=cfg.synth_unseen,
            joints=cfg.synth_joints,
            coords=cfg.synth_coords,
            frames=cfg.synth_frames,
            samples_per_class=cfg.synth_samples_per_class,
            test_fraction=cfg.synth_test_fraction,
            low_band=tuple(range(cfg.synth_low_band_start, cfg.synth_low_band_stop)),
            proto_rank=cfg.synth_proto_rank,
            within_class_std=cfg.synth_within_class_std,
            jitter_std=cfg.synth_jitter_std,
            jitter_start=cfg.synth_jitter_start,
            jitter_low_leak=cfg.synth_jitter_low_leak,
            label_noise_rate=cfg.synth_label_noise,
            embed_dim=cfg.synth_embed_dim,
            semantic_noise_std=cfg.synth_semantic_noise_std,
            seed=cfg.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_enhancement(cfg: RunConfig, length: int) -> frequency.EnhancementConfig | None:
    if cfg.enhance_mode == "off":
        return None
    if not (0 <= cfg.low_cutoff < length):
        raise ConfigError(f"low_cutoff {cfg.low_cutoff} outside [0, {length})")
    try:
        return frequency.EnhancementConfig.uniform_bands(
            length, cfg.band_size, cfg.low_cutoff, cfg.ramp, cfg.init_weight,
            cfg.enhance_mode, cfg.weight_floor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_featurizer(cfg: RunConfig, dataset: pipeline.FeatureDataset) -> pipeline.SkeletonFeaturizer:
    if dataset.kind == "sequence":
        length = dataset.payload_shape[-1]
        enh = build_enhancement(cfg, length)
    elif cfg.enhance_vectors and cfg.enhance_mode != "off":
        enh = build_enhancement(cfg, dataset.payload_shape[0])
    else:
        enh = None
    return pipeline.SkeletonFeaturizer(enh, cfg.enhance_vectors)


def make_loss_config(cfg: RunConfig) -> losses.LossConfig:
    try:
        return losses.LossConfig(cfg.temperature, cfg.align_weight,
                                 cfg.kl_weight, cfg.margin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---- full training run (stages 2-4) ----


@dataclass
class TrainedModel:
    vae: crossvae.VaeParams
    featurizer: pipeline.SkeletonFeaturizer
    unseen_clf: pipeline.SoftmaxClassifier
    seen_clf: pipeline.SoftmaxClassifier
    gate: pipeline.GateModel
    loss_log: list[dict]
    config_hash: str


def train_full(cfg: RunConfig, dataset: pipeline.FeatureDataset,
               table: semantics.SemanticTable,
               split: pipeline.SplitSpec) -> TrainedModel:
    """Stages 2-4 end to end; deterministic given cfg (includes the seed)."""
    featurizer = make_featurizer(cfg, dataset)
    loss_cfg = make_loss_config(cfg)
    rng = numkit.make_rng(cfg.seed, 1)
    params, featurizer, loss_log = pipeline.run_stage2(
        dataset, table, split, featurizer, loss_cfg,
        epochs=cfg.stage2_epochs, lr=cfg.stage2_lr, batch_size=cfg.batch_size,
        latent_dim=cfg.latent_dim, rng=rng,
        hidden=(cfg.hidden_dim,) * cfg.hidden_layers,
        align_loss=cfg.align_loss, train_weights=cfg.train_weights)

    unseen_clf = pipeline.synthesize_unseen_classifier(
        params, table, split.unseen, n_samples=cfg.unseen_samples,
        epochs=cfg.unseen_epochs, lr=cfg.unseen_lr, rng=rng)

    train_records = dataset.by_partition("train-seen")
    n_hold = max(1, int(round(cfg.gate_holdout * len(train_records))))
    if n_hold >= len(train_records):
        raise ConfigError("gate_holdout leaves no records to fit the seen classifier")
    hold_idx = set(rng.choice(len(train_records), size=n_hold, replace=False).tolist())
    fit_records = [r for i, r in enumerate(train_records) if i not in hold_idx]
    hold_records = [r for i, r in enumerate(train_records) if i in hold_idx]

    seen_clf = pipeline.train_seen_classifier(
        params, featurizer, fit_records, split.seen,
        epochs=cfg.seen_epochs, lr=cfg.seen_lr)

    # match the synthesized count to the holdout so the logistic fit is balanced
    n_per_class = max(1, -(-n_hold // len(split.unseen)))
    gate_unseen = np.concatenate([
        crossvae.sample_class_latents(params, semantics.fuse(table, cid),
                                      n_per_class, rng)
        for cid in split.unseen])
    heldout_latents = pipeline.encode_latent_means(params, featurizer, hold_records)
    gate = pipeline.train_gate(seen_clf, gate_unseen, heldout_latents, cfg.gate_c)
    return TrainedModel(params, featurizer, unseen_clf, seen_clf, gate,
                        loss_log, config_hash(cfg))


# ---- checkpoint format ----

CHECKPOINT_VERSION = 1


def _enhancement_to_dict(enh: frequency.EnhancementConfig | None):
    if enh is None:
        return None
    return {"mode": enh.mode, "low_cutoff": enh.low_cutoff, "ramp": enh.ramp,
            "floor": enh.floor, "split_points": list(enh.split_points),
            "weights": [float(w) for w in enh.weights]}


def _enhancement_from_dict(obj) -> frequency.EnhancementConfig | None:
    if obj is None:
        return None
    return frequency.EnhancementConfig(
        tuple(obj["split_points"]), tuple(obj["weights"]),
        int(obj["low_cutoff"]), float(obj["ramp"]), obj["mode"], float(obj["floor"]))


def _classifier_to_dict(clf: pipeline.SoftmaxClassifier) -> dict:
    return {"class_ids": list(clf.class_ids), "weights": clf.weights.tolist(),
            "bias": clf.bias.tolist()}


def _classifier_from_dict(obj) -> pipeline.SoftmaxClassifier:
    return pipeline.SoftmaxClassifier(
        tuple(int(c) for c in obj["class_ids"]),
        np.asarray(obj["weights"], dtype=np.float64),
        np.asarray(obj["bias"], dtype=np.float64))


def _compact_json_pieces(obj):
    """Yield json.dumps(obj, sort_keys=True, separators=(",", ":")) in pieces.

    Objects and lists of containers are laid out here; each flat list or
    scalar is one json.dumps call, which runs the C encoder (json.dump
    streams through the pure-Python one). Piece by piece, no string grows to
    the size of the file, so writing a checkpoint does not raise peak memory.
    Keys must be strings.
    """
    if isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _compact_json_pieces(obj[key])
        yield "}"
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, item in enumerate(obj):
            yield "," if i else "["
            yield from _compact_json_pieces(item)
        yield "]"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_checkpoint(path, model: TrainedModel) -> None:
    obj = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": model.config_hash,
        "vae": crossvae.vae_to_dict(model.vae),
        "featurizer": {
            "enhance_vectors": model.featurizer.enhance_vectors,
            "enhancement": _enhancement_to_dict(model.featurizer.enhancement),
        },
        "unseen_classifier": _classifier_to_dict(model.unseen_clf),
        "seen_classifier": _classifier_to_dict(model.seen_clf),
        "gate": {"weights": model.gate.weights.tolist(), "bias": model.gate.bias,
                 "c": model.gate.c},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_compact_json_pieces(obj))
        fh.write("\n")


# JSON kind of every value load_checkpoint reads, by key; "any" is unchecked
_MLP_SCHEMA = {"activation": "string", "weights": "array", "biases": "array"}
_CLASSIFIER_SCHEMA = {"class_ids": "array", "weights": "array", "bias": "array"}
_CHECKPOINT_SCHEMA = {
    "config_hash": "string",
    "vae": {"latent_dim": "number", "skel_encoder": _MLP_SCHEMA,
            "text_encoder": _MLP_SCHEMA, "skel_decoder": _MLP_SCHEMA,
            "text_decoder": _MLP_SCHEMA},
    "featurizer": {"enhance_vectors": "boolean", "enhancement": "any"},
    "unseen_classifier": _CLASSIFIER_SCHEMA,
    "seen_classifier": _CLASSIFIER_SCHEMA,
    "gate": {"weights": "array", "bias": "number", "c": "number"},
}
_ENHANCEMENT_SCHEMA = {"mode": "string", "low_cutoff": "number", "ramp": "number",
                       "floor": "number", "split_points": "array", "weights": "array"}
_JSON_KINDS = {"object": dict, "array": list, "string": str, "boolean": bool,
               "number": (int, float)}


def _json_kind(value) -> str:
    return next((k for k, t in _JSON_KINDS.items() if isinstance(value, t)), "null")


def _check_schema(value, schema, path: str) -> None:
    """Raise ValueError naming the first key path where value breaks schema."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be a JSON object, not {_json_kind(value)}")
        for key, sub in schema.items():
            if key not in value:
                raise ValueError(f"{path} has no key {key!r}")
            _check_schema(value[key], sub, f"{path}.{key}")
    elif schema != "any" and not isinstance(value, _JSON_KINDS[schema]):
        raise ValueError(f"{path} must be a JSON {schema}, not {_json_kind(value)}")


def _decode(obj: dict, key: str, decode):
    """decode(obj[key]), with a bad value reported under its key path."""
    try:
        return decode(obj[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint.{key}: {exc}") from None


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; a malformed one raises ValueError naming the key path."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    _check_schema(obj, {"format_version": "any"}, "checkpoint")
    if obj["format_version"] != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint format {obj['format_version']!r} not supported")
    _check_schema(obj, _CHECKPOINT_SCHEMA, "checkpoint")
    if obj["featurizer"]["enhancement"] is not None:
        _check_schema(obj["featurizer"]["enhancement"], _ENHANCEMENT_SCHEMA,
                      "checkpoint.featurizer.enhancement")
    return TrainedModel(
        vae=_decode(obj, "vae", crossvae.vae_from_dict),
        featurizer=_decode(obj, "featurizer", lambda feat: pipeline.SkeletonFeaturizer(
            _enhancement_from_dict(feat["enhancement"]), feat["enhance_vectors"])),
        unseen_clf=_decode(obj, "unseen_classifier", _classifier_from_dict),
        seen_clf=_decode(obj, "seen_classifier", _classifier_from_dict),
        gate=_decode(obj, "gate", lambda gate: pipeline.GateModel(
            np.asarray(gate["weights"], dtype=np.float64), float(gate["bias"]),
            float(gate["c"]))),
        loss_log=[],
        config_hash=obj["config_hash"],
    )


def write_loss_log(path, loss_log: list[dict], hash_: str) -> None:
    text = json.dumps({"config_hash": hash_, "epochs": loss_log}, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---- transform self-tests ----


def dct_self_checks(seed: int = 0) -> list[tuple[str, float, float, bool]]:
    """Each entry: (name, worst error, tolerance, ok)."""
    rng = numkit.make_rng(seed, 7)
    basis = frequency.dct_basis(64)
    seqs = rng.standard_normal((100, 25, 3, 64))
    coeffs = seqs @ basis.T
    back = coeffs @ basis
    round_trip = float(np.max(np.abs(back - seqs)))
    energy_seq = np.sum(seqs * seqs, axis=-1)
    energy_coef = np.sum(coeffs * coeffs, axis=-1)
    parseval = float(np.max(np.abs(energy_coef - energy_seq) / energy_seq))
    gram = basis @ basis.T
    ortho = float(np.max(np.abs(gram - np.eye(64))))

    redist = 0.0
    for _ in range(50):
        f = int(rng.integers(8, 48))
        mode = "piecewise" if rng.random() < 0.5 else "learnable_only"
        cfg = frequency.EnhancementConfig.per_coefficient(
            f, int(rng.integers(0, f)), float(rng.uniform(1.0, 40.0)), 0.0, mode)
        cfg = cfg.with_weights(rng.uniform(0.0, 1.0, size=f))
        x = rng.standard_normal((4, f))
        g, _, _ = frequency.scaling_profile(cfg)
        c = frequency.dct_forward(x)
        predicted = np.sum((g * c) ** 2)
        actual = frequency.signal_energy(frequency.enhance_sequence(x, cfg))
        redist = max(redist, abs(actual - predicted) / max(predicted, 1e-300))

    ident_cfg = frequency.EnhancementConfig.per_coefficient(64, 35, 30.0, 0.0)
    spec = rng.standard_normal((5, 64))
    ident = float(np.max(np.abs(frequency.enhance(spec, ident_cfg) - spec)))

    return [
        ("round-trip", round_trip, 1e-9, round_trip < 1e-9),
        ("parseval", parseval, 1e-12, parseval < 1e-12),
        ("orthonormality", ortho, 1e-12, ortho < 1e-12),
        ("energy-redistribution", redist, 1e-9, redist < 1e-9),
        ("identity-enhancement", ident, 1e-12, ident < 1e-12),
    ]


# ---- loss bench ----


def loss_bench(cfg: RunConfig, loss_names: list[str],
               noise_rates: list[float]) -> dict:
    """Train identical pipelines per (loss, rate, seed); cell = unseen accuracy.

    Result: {"rates", "losses", "seeds", "mean": {loss: [per rate]},
    "detail": {loss: {rate: [per seed]}}, "config_hash"}.
    """
    for name in loss_names:
        if name not in losses.ALIGN_LOSSES:
            raise ConfigError(f"unknown alignment loss {name!r}")
    if "t4" in loss_names:
        _check_t4_margin(cfg.margin)
    detail: dict[str, dict[float, list[float]]] = {
        name: {rate: [] for rate in noise_rates} for name in loss_names}
    for i in range(cfg.bench_seeds):
        run_seed = cfg.seed + i
        base = dataclasses.replace(cfg, seed=run_seed, synth_label_noise=0.0)
        gen = synthbench.generate(make_synth_config(base))
        for rate in noise_rates:
            noisy = gen.dataset if rate == 0 else synthbench.inject_label_noise(
                gen.dataset, rate, numkit.make_rng(run_seed, 17))
            for name in loss_names:
                run_cfg = dataclasses.replace(base, align_loss=name)
                model = train_full(run_cfg, noisy, gen.table, gen.split)
                acc = pipeline.evaluate_zsl(
                    model.vae, model.featurizer, model.unseen_clf,
                    noisy.by_partition("test-unseen"))
                detail[name][rate].append(acc)
    mean = {name: [float(np.mean(detail[name][rate])) for rate in noise_rates]
            for name in loss_names}
    return {"rates": list(noise_rates), "losses": list(loss_names),
            "seeds": cfg.bench_seeds, "mean": mean,
            "detail": {n: {str(r): v for r, v in d.items()} for n, d in detail.items()},
            "config_hash": config_hash(cfg)}


# ---- commands ----


def _load_cfg(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _load_data(args) -> tuple[pipeline.FeatureDataset, semantics.SemanticTable, pipeline.SplitSpec]:
    data = Path(args.data)
    dataset = pipeline.load_feature_file(data / "features.jsonl")
    table = semantics.load_embeddings(data / "embeddings.jsonl")
    split = pipeline.load_split_file(data / "split.json")
    pipeline.validate_split(dataset, split)
    return dataset, table, split


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    h = config_hash(cfg)
    gen = synthbench.generate(make_synth_config(cfg))
    out = Path(args.out)
    paths = synthbench.write_benchmark(gen, out, h)
    manifest = {"config_hash": h, "records": len(gen.dataset.records),
                "classes": cfg.synth_classes, "seen": list(gen.split.seen),
                "unseen": list(gen.split.unseen)}
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(gen.dataset.records)} records to {out} (config {h[:12]})")
    for p in paths:
        print(f"  {p}")
    return 0


def cmd_dct_check(args) -> int:
    rows = dct_self_checks(args.seed if args.seed is not None else 0)
    ok = True
    for name, err, tol, passed in rows:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: max error {err:.3e} "
              f"(tolerance {tol:.0e})")
    return 0 if ok else 1


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    dataset, table, split = _load_data(args)
    model = train_full(cfg, dataset, table, split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.json", model)
    write_loss_log(out / "loss_log.json", model.loss_log, model.config_hash)
    last = model.loss_log[-1] if model.loss_log else {}
    print(f"trained {cfg.stage2_epochs} epochs (config {model.config_hash[:12]})")
    if last:
        print(f"final losses: total {last.get('total', float('nan')):.4f} "
              f"vae {last.get('vae', float('nan')):.4f} "
              f"align {last.get('align', float('nan')):.4f}")
    print(f"checkpoint: {out / 'checkpoint.json'}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.config:
        want = config_hash(parse_config(args.config))
        if want != model.config_hash:
            print(f"warning: checkpoint config hash {model.config_hash[:12]} does not "
                  f"match --config hash {want[:12]}", file=sys.stderr)
    dataset, table, split = _load_data(args)
    test_unseen = dataset.by_partition("test-unseen")
    if not test_unseen:
        raise ValueError("no test-unseen records")
    zsl = pipeline.evaluate_zsl(model.vae, model.featurizer, model.unseen_clf,
                                test_unseen)
    if args.mode == "zsl":
        report = pipeline.EvalReport(None, None, None, zsl, {})
    else:
        test_seen = dataset.by_partition("test-seen")
        if not test_seen:
            raise ValueError("no test-seen records (needed for gzsl)")
        report = pipeline.evaluate_gzsl(model.vae, model.featurizer, model.gate,
                                        model.seen_clf, model.unseen_clf,
                                        test_seen, test_unseen)
        report.zsl_accuracy = zsl
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pipeline.write_report(out, report, model.config_hash, args.mode)
    if args.mode == "zsl":
        print(f"zsl unseen accuracy: {zsl:.4f}")
    else:
        print(f"gzsl seen {report.seen_accuracy:.4f} unseen {report.unseen_accuracy:.4f} "
              f"harmonic {report.harmonic:.4f} (zsl {zsl:.4f})")
    print(f"report: {out}")
    return 0


def cmd_loss_bench(args) -> int:
    cfg = _load_cfg(args)
    loss_names = args.loss or list(losses.ALIGN_LOSSES)
    rates = args.noise_rate if args.noise_rate is not None else [0.0, 0.2, 0.5]
    table = loss_bench(cfg, loss_names, rates)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "loss_bench.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(out / "loss_bench.csv", "w", encoding="utf-8") as fh:
        fh.write("noise_rate," + ",".join(loss_names)
                 + f",config_hash={table['config_hash'][:12]}\n")
        for r_i, rate in enumerate(rates):
            cells = ",".join(f"{table['mean'][n][r_i]:.4f}" for n in loss_names)
            fh.write(f"{rate},{cells},\n")
    header = "rate    " + "".join(f"{n:>12}" for n in loss_names)
    print(header)
    for r_i, rate in enumerate(rates):
        cells = "".join(f"{table['mean'][n][r_i]:>12.4f}" for n in loss_names)
        print(f"{rate:<8}{cells}")
    print(f"table: {out / 'loss_bench.csv'}")
    return 0


def cmd_export_latents(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset, _, _ = _load_data(args)
    n = pipeline.export_latents(model.vae, model.featurizer, dataset.records, args.out)
    print(f"wrote {n} latent rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqzsl",
        description="frequency-enhanced cross-modal VAE zero-shot pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark files")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("dct-check", help="transform self-tests")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_dct_check)

    p = sub.add_parser("train", help="train stages 2-4 and write a checkpoint")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data", required=True,
                   help="directory with features.jsonl, embeddings.jsonl, split.json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None,
                   help="config to hash-check against the checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("zsl", "gzsl"), default="gzsl")
    p.add_argument("--out", required=True, help="report path (json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loss-bench", help="alignment-loss robustness table")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--loss", action="append", default=None,
                   help="restrict to one loss (repeatable)")
    p.add_argument("--noise-rate", action="append", type=float, default=None,
                   help="label-noise rate (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_loss_bench)

    p = sub.add_parser("export-latents", help="write latent means to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_latents)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

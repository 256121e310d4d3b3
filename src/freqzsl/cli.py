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
import operator
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import crossvae, frequency, losses, numkit, pipeline, semantics, synthbench
from .synthbench import ConfigError


def _key(default, domain):
    """A RunConfig field and its domain: a tuple of choices, or an interval
    such as "[0, 1]" or "(0, inf)" whose brackets say which ends are closed.
    A number must also be finite, so an infinite end admits nothing."""
    return dataclasses.field(default=default, metadata={"domain": domain})


def _check(name: str, value, domain) -> None:
    """Refuse a value outside its domain with one line naming the key."""
    if isinstance(domain, tuple):
        if value not in domain:
            raise ConfigError(f"{name} must be one of {', '.join(map(str, domain))}, "
                              f"got {value!r}")
        return
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    closed_lo, closed_hi = domain[0] == "[", domain[-1] == "]"
    finite = -math.inf < value < math.inf
    if not (finite and (lo <= value if closed_lo else lo < value)
            and (value <= hi if closed_hi else value < hi)):
        text = f"in {domain}" if hi < math.inf else f"{'>=' if closed_lo else '>'} {lo:g}"
        raise ConfigError(f"{name} must be {text}, got {value!r}"
                          + ("" if finite else " (not a finite number)"))


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run; defaults follow the reference recipe where one
    exists (enhancement thresholds, loss weights, batch and stage sizes) and
    the desk-scale synthetic benchmark elsewhere. Each field declares its
    domain. synthbench.generate checks how the synth_* keys relate."""

    # synthetic benchmark
    synth_classes: int = _key(12, "[2, inf)")
    synth_unseen: int = _key(2, "[1, inf)")
    synth_joints: int = _key(5, "[1, inf)")
    synth_coords: int = _key(3, "[1, inf)")
    synth_frames: int = _key(64, "[1, inf)")
    synth_samples_per_class: int = _key(20, "[2, inf)")
    synth_test_fraction: float = _key(0.25, "(0, 1)")
    synth_low_band_start: int = _key(1, "[0, inf)")
    synth_low_band_stop: int = _key(7, "[1, inf)")
    synth_proto_rank: int = _key(4, "[1, inf)")
    synth_within_class_std: float = _key(0.08, "[0, inf)")
    synth_jitter_std: float = _key(0.0, "[0, inf)")
    synth_jitter_start: int = _key(36, "[0, inf)")
    synth_jitter_low_leak: float = _key(0.1, "[0, inf)")
    synth_label_noise: float = _key(0.0, "[0, 1]")
    synth_embed_dim: int = _key(16, "[1, inf)")
    synth_semantic_noise_std: float = _key(0.05, "[0, inf)")
    # frequency enhancement
    enhance_mode: str = _key("piecewise", frequency.MODES + ("off",))
    low_cutoff: int = _key(35, "[0, inf)")
    ramp: float = _key(30.0, "(0, inf)")
    band_size: int = _key(1, "[1, inf)")
    weight_floor: float = _key(0.0, "[0, 1]")
    init_weight: float = _key(0.5, "[0, 1]")
    enhance_vectors: bool = _key(False, (False, True))
    train_weights: bool = _key(True, (False, True))
    # objective
    temperature: float = _key(100.0, "(0, inf)")
    align_weight: float = _key(0.1, "[0, inf)")
    kl_weight: float = _key(1.0, "[0, inf)")
    margin: float = _key(1.0, "[0, inf)")
    align_loss: str = _key("calibrated", losses.ALIGN_LOSSES)
    # model
    latent_dim: int = _key(16, "[1, inf)")
    hidden_dim: int = _key(64, "[1, inf)")
    hidden_layers: int = _key(2, "[1, inf)")
    # training
    stage2_epochs: int = _key(1900, "[0, inf)")
    stage2_lr: float = _key(1e-4, "(0, inf)")
    batch_size: int = _key(64, "[1, inf)")
    unseen_samples: int = _key(500, "[1, inf)")
    unseen_epochs: int = _key(300, "[0, inf)")
    unseen_lr: float = _key(1e-3, "(0, inf)")
    seen_epochs: int = _key(300, "[0, inf)")
    seen_lr: float = _key(1e-3, "(0, inf)")
    bench_seeds: int = _key(5, "[1, inf)")
    seed: int = _key(0, "[0, inf)")

    def __post_init__(self) -> None:
        # t4 divides by D+ + margin, which is 0 when D+ = D- = 0 unless margin > 0;
        # this narrows margin's domain, so it is checked first
        if self.align_loss == "t4" and not self.margin > 0:
            raise ConfigError(f"margin must be > 0 for align_loss t4, got {self.margin}")
        for field in dataclasses.fields(self):
            _check(field.name, getattr(self, field.name), field.metadata["domain"])


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
# field type -> (parser of the raw text, what the text must be)
_PARSERS = {"int": (int, "an integer"), "float": (float, "a number"),
            "bool": (lambda raw: _BOOLS[raw.lower()], "a boolean")}


def _coerce(field: dataclasses.Field, raw: str):
    if field.type not in _PARSERS:
        return raw
    parse, kind = _PARSERS[field.type]
    try:
        return parse(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{field.name}: {raw!r} is not {kind}") from exc


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def parse_config(path) -> RunConfig:
    """Read a flat `key = value` file; '#' starts a comment, blanks ignored."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = _coerce(_FIELDS[key], raw)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(cfg: RunConfig) -> str:
    text = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}"
                     for f in dataclasses.fields(RunConfig))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---- config -> component wiring ----


def build_enhancement(cfg: RunConfig, length: int) -> frequency.EnhancementConfig | None:
    if cfg.enhance_mode == "off":
        return None
    if not (0 <= cfg.low_cutoff < length):
        raise ConfigError(f"low_cutoff {cfg.low_cutoff} outside [0, {length})")
    if cfg.band_size > length:
        raise ConfigError(f"band_size {cfg.band_size} exceeds the {length} coefficients")
    return frequency.EnhancementConfig.uniform_bands(
        length, cfg.band_size, cfg.low_cutoff, cfg.ramp, cfg.init_weight,
        cfg.enhance_mode, cfg.weight_floor)


def make_featurizer(cfg: RunConfig, dataset: pipeline.FeatureDataset) -> pipeline.SkeletonFeaturizer:
    if dataset.kind == "sequence":
        length = dataset.payload_shape[-1]
        enh = build_enhancement(cfg, length)
    elif cfg.enhance_vectors and cfg.enhance_mode != "off":
        enh = build_enhancement(cfg, dataset.payload_shape[0])
    else:
        enh = None
    return pipeline.SkeletonFeaturizer(enh, cfg.enhance_vectors)


# ---- full training run (stages 2-4) ----


@dataclass
class TrainedModel:
    vae: crossvae.VaeParams
    featurizer: pipeline.SkeletonFeaturizer
    unseen_clf: pipeline.SoftmaxClassifier
    seen_clf: pipeline.SoftmaxClassifier
    loss_log: list[dict]
    config_hash: str
    # not a field, so no checkpoint holds it, and nothing reads it: callers
    # written for the fitted gate pass it to pipeline.evaluate_gzsl
    gate = None


def train_full(cfg: RunConfig, dataset: pipeline.FeatureDataset,
               table: semantics.SemanticTable,
               split: pipeline.SplitSpec) -> TrainedModel:
    """Stages 2-4 end to end; deterministic given cfg (includes the seed).
    As in a stage-2 step, numpy's warnings are off and checks report instead."""
    rng = numkit.make_rng(cfg.seed, 1)
    params, featurizer, loss_log = pipeline.run_stage2(
        dataset, table, split, make_featurizer(cfg, dataset), cfg, rng)

    with np.errstate(all="ignore"):
        unseen_clf = pipeline.synthesize_unseen_classifier(params, table, split.unseen,
                                                           cfg, rng)
        seen_clf = pipeline.train_seen_classifier(
            params, featurizer, dataset.by_partition("train-seen"), split.seen, cfg)
    return TrainedModel(params, featurizer, unseen_clf, seen_clf, loss_log, config_hash(cfg))


# ---- checkpoint format ----

CHECKPOINT_VERSION = 2  # 1 also held a gate section

# checkpoint key -> TrainedModel field; the loss log is written on its own
_CHECKPOINT_FIELDS = {"config_hash": "config_hash", "vae": "vae", "featurizer": "featurizer",
                      "unseen_classifier": "unseen_clf", "seen_classifier": "seen_clf"}


def _compact_json_pieces(value):
    """Yield json.dumps(value, sort_keys=True, separators=(",", ":")) in pieces.

    A dataclass is laid out as an object of its fields, and an ndarray of two
    or more dimensions one row at a time: each row or scalar is one
    json.dumps call on row.tolist(), which runs the C encoder (json.dump
    streams through the pure-Python one). So writing a model builds neither
    a tree of its floats nor a string the size of the file. Keys must be
    strings.
    """
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _compact_json_pieces(value[key])
        yield "}"
    elif isinstance(value, list) or (isinstance(value, np.ndarray) and value.ndim > 1):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ","
            yield from _compact_json_pieces(item)
        yield "]"
    else:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        yield json.dumps(value, sort_keys=True, separators=(",", ":"))


def save_checkpoint(path, model: TrainedModel) -> None:
    obj = {key: getattr(model, name) for key, name in _CHECKPOINT_FIELDS.items()}
    obj["format_version"] = CHECKPOINT_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_compact_json_pieces(obj))
        fh.write("\n")


def _all_floats(items) -> bool:
    return operator.countOf(map(type, items), float) == len(items)


def _float_array(value):
    """value as a float64 ndarray if it is a non-empty, rectangular JSON array
    of floats or of arrays of floats, else value itself.

    Only floats are converted, so a tuple[int] or tuple[float] field still
    refuses an int, a bool or a string under its own key path, and an ndarray
    field refuses a null or a string under the path of the item (_from_json).
    A nested array is converted as the np.asarray(dtype=float64) call that
    _from_json makes for an ndarray field would; any other field refuses it
    as an array either way, so converting it early changes no outcome.
    """
    if type(value) is not list or not value:
        return value
    if not (_all_floats(value) or all(type(row) is list and _all_floats(row)
                                      for row in value)):
        return value
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged, or items that are no numbers
        return value
    return arr if arr.size else value


def _float_arrays(obj: dict) -> dict:
    """json object_hook: each float array among obj's values, or among the
    items of a value that is a list of arrays (a network's layer weights),
    becomes a float64 ndarray as soon as obj is parsed, so a checkpoint is
    read without a tree of Python floats the size of the model. Everything
    else is left as parsed, for _from_json to decode or refuse."""
    for key, value in obj.items():
        value = _float_array(value)
        if type(value) is list and all(type(item) is list for item in value):
            value = [_float_array(item) for item in value]
        obj[key] = value
    return obj


# JSON kind of a decoded value; bool before integer, since bool is an int, and
# an ndarray is an array that _float_arrays converted while parsing
_JSON_KINDS = {"object": dict, "array": (list, np.ndarray), "string": str, "boolean": bool,
               "integer": int, "number": float}
_KIND_OF_TYPE = {t: k for k, t in _JSON_KINDS.items()}


def _json_kind(value) -> str:
    return next((k for k, t in _JSON_KINDS.items() if isinstance(value, t)), "null")


def _expect(value, kind: str, path: str) -> None:
    got = _json_kind(value)
    if got != kind and (kind, got) != ("number", "integer"):
        raise ValueError(f"{path} must be a JSON {kind}, not {got}")


def _construct(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), its error reported under the top-level key of path."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{'.'.join(path.split('.')[:2])}: {exc}") from None


def _read_key(obj: dict, key: str, hint, path: str):
    if key not in obj:
        raise ValueError(f"{path} has no key {key!r}")
    return _from_json(hint, obj[key], f"{path}.{key}")


def _expect_numbers(items: list, path: str) -> None:
    """Refuse an item of a (nested) JSON array that is not a number; a row
    that _float_arrays converted holds floats only."""
    for i, item in enumerate(items):
        if type(item) is list:
            _expect_numbers(item, f"{path}[{i}]")
        elif type(item) is not np.ndarray:
            _expect(item, "number", f"{path}[{i}]")


def _from_json(hint, value, path: str):
    """Decode what _compact_json_pieces wrote for a value of type hint.

    A missing key or a value of the wrong JSON kind raises ValueError naming
    its key path.
    """
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        hint = next(h for h in typing.get_args(hint) if h is not type(None))
    if dataclasses.is_dataclass(hint):
        _expect(value, "object", path)
        hints = typing.get_type_hints(hint)
        return _construct(path, hint, **{f.name: _read_key(value, f.name, hints[f.name], path)
                                         for f in dataclasses.fields(hint)})
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        _expect(value, "array", path)
        item = typing.get_args(hint)[0]
        return origin(_from_json(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is np.ndarray:
        _expect(value, "array", path)
        if type(value) is list:  # _float_arrays left it: one item is no float
            _expect_numbers(value, path)
        arr = _construct(path, np.asarray, value, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            index = "".join(f"[{i}]" for i in bad[0])
            raise ValueError(f"{path}{index} must be a finite number, not {arr[tuple(bad[0])]}")
        return arr
    _expect(value, _KIND_OF_TYPE[hint], path)
    return _construct(path, float, value) if hint is float else value


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; a malformed one raises ValueError naming the key path.

    The file's bytes are dropped once decoded, and each float array becomes
    an ndarray as soon as its object is parsed (_float_arrays).
    """
    with open(path, "rb") as fh:
        obj = semantics.parse_json(fh, "checkpoint", ValueError, _float_arrays)
    _expect(obj, "object", "checkpoint")
    version = _read_key(obj, "format_version", int, "checkpoint")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint format {version!r} not supported")
    hints = typing.get_type_hints(TrainedModel)
    return TrainedModel(loss_log=[], **{name: _read_key(obj, key, hints[name], "checkpoint")
                                        for key, name in _CHECKPOINT_FIELDS.items()})


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
    ident_g, _, _ = frequency.scaling_profile(ident_cfg)
    ident = float(np.max(np.abs(frequency.enhance(spec, ident_g) - spec)))

    return [
        ("round-trip", round_trip, 1e-9, round_trip < 1e-9),
        ("parseval", parseval, 1e-12, parseval < 1e-12),
        ("orthonormality", ortho, 1e-12, ortho < 1e-12),
        ("energy-redistribution", redist, 1e-9, redist < 1e-9),
        ("identity-enhancement", ident, 1e-12, ident < 1e-12),
    ]


# ---- loss bench ----


def loss_bench(cfg: RunConfig, loss_names: list[str],
               noise_rates: list[float], out: Path) -> dict:
    """Train identical pipelines per (loss, rate, seed); cell = unseen accuracy.

    out is created after the config checks, so an unusable one fails before training.
    Result: {"rates", "losses", "seeds", "mean": {loss: [per rate]},
    "detail": {loss: {rate: [per seed]}}, "config_hash"}.
    """
    for option, values in (("--loss", loss_names), ("--noise-rate", noise_rates)):
        for i, value in enumerate(values):  # a repeated value would train its cells twice
            if value in values[:i]:
                raise ConfigError(f"{option} {value} is given more than once")
    for name in loss_names:  # every cell's config is valid before any training
        dataclasses.replace(cfg, align_loss=name)
    for rate in noise_rates:  # label-noise rates, so that key's domain and relation hold
        _check("--noise-rate", rate, _FIELDS["synth_label_noise"].metadata["domain"])
        synthbench.check_label_noise("--noise-rate", rate, cfg)
    detail: dict[str, dict[float, list[float]]] = {
        name: {rate: [] for rate in noise_rates} for name in loss_names}
    for i in range(cfg.bench_seeds):
        run_seed = cfg.seed + i
        base = dataclasses.replace(cfg, seed=run_seed, synth_label_noise=0.0)
        gen = synthbench.generate(base)  # checks the synth_* relations on the first seed
        out.mkdir(parents=True, exist_ok=True)
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
    cfg = parse_config(args.config) if getattr(args, "config", None) else RunConfig()
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


def _check_feature_width(model: TrainedModel, dataset: pipeline.FeatureDataset) -> None:
    """Refuse records that do not flatten to the skeleton encoder's input width."""
    width, want = math.prod(dataset.payload_shape), model.vae.skel_encoder.in_dim
    if width != want:
        raise ValueError(f"data records flatten to {width} features, the checkpoint's "
                         f"skeleton encoder takes {want}")


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    h = config_hash(cfg)
    gen = synthbench.generate(cfg)
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
    rows = dct_self_checks(_load_cfg(args).seed)
    ok = True
    for name, err, tol, passed in rows:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: max error {err:.3e} "
              f"(tolerance {tol:.0e})")
    return 0 if ok else 1


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    dataset, table, split = _load_data(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before training
    model = train_full(cfg, dataset, table, split)
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
    _check_feature_width(model, dataset)
    test_unseen = dataset.by_partition("test-unseen")
    if not test_unseen:
        raise ValueError("no test-unseen records")
    if args.mode == "zsl":
        zsl = pipeline.evaluate_zsl(model.vae, model.featurizer, model.unseen_clf,
                                    test_unseen)
        report = pipeline.EvalReport(None, None, None, zsl, {})
    else:
        test_seen = dataset.by_partition("test-seen")
        if not test_seen:
            raise ValueError("no test-seen records (needed for gzsl)")
        report = pipeline.evaluate_gzsl(model.vae, model.featurizer, model.gate,
                                        model.seen_clf, model.unseen_clf,
                                        test_seen, test_unseen)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pipeline.write_report(out, report, model.config_hash, args.mode)
    if args.mode == "zsl":
        print(f"zsl unseen accuracy: {report.zsl_accuracy:.4f}")
    else:
        print(f"gzsl seen {report.seen_accuracy:.4f} unseen {report.unseen_accuracy:.4f} "
              f"harmonic {report.harmonic:.4f} (zsl {report.zsl_accuracy:.4f})")
    print(f"report: {out}")
    return 0


def cmd_loss_bench(args) -> int:
    cfg = _load_cfg(args)
    loss_names = args.loss or list(losses.ALIGN_LOSSES)
    rates = args.noise_rate if args.noise_rate is not None else [0.0, 0.2, 0.5]
    out = Path(args.out)
    table = loss_bench(cfg, loss_names, rates, out)
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
    _check_feature_width(model, dataset)
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

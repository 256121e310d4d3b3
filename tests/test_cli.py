"""Command line layer: config parsing and hashing, component wiring,
checkpoint codec, transform self checks, the subcommands end to end
through main() on a miniature generated benchmark (with scipy blocked, too),
and typed errors from malformed and fuzzed data files and checkpoints."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqzsl import cli, crossvae, frequency, losses, pipeline, semantics, synthbench
from freqzsl.cli import ConfigError, RunConfig

REPO = Path(__file__).resolve().parents[1]

TINY_LINES = [
    "synth_classes = 5",
    "synth_unseen = 2",
    "synth_joints = 2",
    "synth_coords = 2",
    "synth_frames = 16",
    "synth_samples_per_class = 6",
    "synth_low_band_stop = 5",
    "synth_proto_rank = 3",
    "synth_jitter_start = 8",
    "synth_embed_dim = 8",
    "low_cutoff = 8",
    "temperature = 1.0",
    "stage2_epochs = 2",
    "latent_dim = 4",
    "hidden_dim = 8",
    "hidden_layers = 1",
    "unseen_samples = 8",
    "unseen_epochs = 5",
    "unseen_lr = 0.01",
    "seen_epochs = 5",
    "seen_lr = 0.01",
    "bench_seeds = 2",
]


def write_cfg(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def tiny_env(tmp_path_factory):
    """Config file plus generated benchmark directory for the e2e tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = write_cfg(root / "tiny.cfg", TINY_LINES)
    data = root / "data"
    assert cli.main(["synth", "--config", cfg_path, "--out", str(data)]) == 0
    return {"root": root, "cfg": cfg_path, "data": str(data)}


@pytest.fixture(scope="module")
def trained(tiny_env):
    out = tiny_env["root"] / "run"
    code = cli.main(["train", "--config", tiny_env["cfg"],
                     "--data", tiny_env["data"], "--out", str(out)])
    assert code == 0
    return {**tiny_env, "out": out, "checkpoint": str(out / "checkpoint.json")}


class TestParseConfig:
    def test_blank_and_comment_lines_yield_defaults(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", ["# header", "", "   ", "# x = 1"])
        assert cli.parse_config(path) == RunConfig()

    def test_values_and_inline_comments(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", [
            "seed = 7  # rng",
            "temperature = 2.5",
            "enhance_mode = learnable_only",
            "train_weights = no",
            "enhance_vectors = on",
        ])
        cfg = cli.parse_config(path)
        assert cfg.seed == 7
        assert cfg.temperature == 2.5
        assert cfg.enhance_mode == "learnable_only"
        assert cfg.train_weights is False
        assert cfg.enhance_vectors is True

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("1", True), ("yes", True), ("on", True),
        ("false", False), ("0", False), ("no", False), ("off", False),
        ("TRUE", True), ("Off", False),
    ])
    def test_bool_spellings(self, tmp_path, raw, expected):
        path = write_cfg(tmp_path / "c.cfg", [f"train_weights = {raw}"])
        assert cli.parse_config(path).train_weights is expected

    def test_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", ["seed = 1", "learning = 3"])
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'learning'"):
            cli.parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", ["seed = 1", "seed = 2"])
        with pytest.raises(ConfigError, match=r"line 2: duplicate key"):
            cli.parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", ["seed = 1", "just words"])
        with pytest.raises(ConfigError, match=r"line 2: expected key = value"):
            cli.parse_config(path)

    @pytest.mark.parametrize("line,msg", [
        ("seed = soon", r"seed: 'soon' is not an integer"),
        ("temperature = warm", r"temperature: 'warm' is not a number"),
        ("train_weights = maybe", r"train_weights: 'maybe' is not a boolean"),
    ])
    def test_coercion_errors_name_the_field(self, tmp_path, line, msg):
        path = write_cfg(tmp_path / "c.cfg", [line])
        with pytest.raises(ConfigError, match=msg):
            cli.parse_config(path)

    def test_field_validation_surfaces_as_config_error(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", ["enhance_mode = spline"])
        with pytest.raises(ConfigError, match="enhance_mode"):
            cli.parse_config(path)


class TestRunConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"enhance_mode": "spline"},
        {"align_loss": "t9"},
        {"latent_dim": 0},
        {"batch_size": 0},
        {"band_size": 0},
        {"stage2_epochs": -1},
        {"bench_seeds": 0},
        {"stage2_lr": 0.0},
        {"unseen_lr": -1.0},
        {"seen_lr": float("nan")},
        {"align_loss": "t4", "margin": 0.0},
        {"weight_floor": float("nan")},
        {"weight_floor": 2.0},
        {"weight_floor": -1.0},
        {"unseen_samples": 0},
        {"seed": -1},
        {"unseen_epochs": -1},
        {"seen_epochs": -1},
        {"seen_lr": 0.0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_zero_margin_allowed_without_t4(self):
        assert RunConfig(align_loss="t1", margin=0.0).margin == 0.0

    def test_zero_epochs_allowed(self):
        assert RunConfig(stage2_epochs=0).stage2_epochs == 0


FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type in ("float", float)]


class TestConfigDomains:
    """Each out-of-domain value stops `train` with exit 2 and one line naming its key."""

    @staticmethod
    def train_exit(tiny_env, tmp_path, capsys, *lines):
        keys = tuple(line.split("=")[0] for line in lines)
        cfg = write_cfg(tmp_path / "bad.cfg",
                        [x for x in TINY_LINES if not x.startswith(keys)] + list(lines))
        code = cli.main(["train", "--config", cfg, "--data", tiny_env["data"],
                         "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()
        return code, err

    def test_float_keys_are_found(self):
        assert {"stage2_lr", "unseen_lr", "seen_lr", "margin",
                "temperature"} <= set(FLOAT_KEYS)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_exits_two(self, tiny_env, tmp_path, capsys, key, raw):
        code, err = self.train_exit(tiny_env, tmp_path, capsys, f"{key} = {raw}")
        assert code == 2
        assert err.count("\n") == 1 and key in err and "not a finite number" in err

    @pytest.mark.parametrize("raw", ["0", "-1e-3"])
    @pytest.mark.parametrize("key", ["stage2_lr", "unseen_lr", "seen_lr"])
    def test_non_positive_rate_exits_two(self, tiny_env, tmp_path, capsys, key, raw):
        code, err = self.train_exit(tiny_env, tmp_path, capsys, f"{key} = {raw}")
        assert code == 2
        assert err.count("\n") == 1 and f"{key} must be > 0" in err

    @pytest.mark.parametrize("key", ["gate_c", "gate_holdout"])
    def test_keys_of_the_removed_gate_are_unknown(self, tiny_env, tmp_path, capsys, key):
        code, err = self.train_exit(tiny_env, tmp_path, capsys, f"{key} = 0.5")
        assert (code, err.count("\n")) == (2, 1) and f"unknown key {key!r}" in err

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_t4_with_non_positive_margin_exits_two(self, tiny_env, tmp_path, capsys, raw):
        code, err = self.train_exit(tiny_env, tmp_path, capsys, "align_loss = t4",
                                    f"margin = {raw}")
        assert code == 2
        assert err.count("\n") == 1 and "margin" in err and "t4" in err

    @pytest.mark.parametrize("raw", ["2", "-1", "1.0001"])
    def test_weight_floor_outside_unit_interval_exits_two(self, tiny_env, tmp_path, capsys,
                                                          raw):
        code, err = self.train_exit(tiny_env, tmp_path, capsys, f"weight_floor = {raw}")
        assert code == 2
        assert err.count("\n") == 1 and "weight_floor must be in [0, 1]" in err

    @pytest.mark.parametrize("line", ["unseen_samples = 0", "seed = -1"])
    def test_out_of_domain_count_exits_two_before_training(self, tiny_env, tmp_path, capsys,
                                                           monkeypatch, line):
        trained = []
        monkeypatch.setattr(pipeline, "run_stage2", lambda *a, **k: trained.append(a))
        code, err = self.train_exit(tiny_env, tmp_path, capsys, line)
        key = line.split(" ")[0]
        assert code == 2
        assert err.count("\n") == 1 and f"{key} must be >= " in err
        assert trained == []

    def test_negative_seed_flag_exits_two(self, tiny_env, tmp_path, capsys):
        code = cli.main(["train", "--config", tiny_env["cfg"], "--seed", "-1",
                         "--data", tiny_env["data"], "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "config error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("key", ["temperature", "align_weight", "kl_weight", "margin"])
    def test_nan_loss_knob_is_config_error(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: float("nan")})

    @pytest.mark.parametrize("band_size", [17, 100])
    def test_band_size_past_the_coefficient_count_exits_two(self, tiny_env, tmp_path, capsys,
                                                            band_size):
        # the tiny benchmark's sequences have 16 frames
        code, err = self.train_exit(tiny_env, tmp_path, capsys, f"band_size = {band_size}")
        assert code == 2
        assert err.count("\n") == 1 and f"band_size {band_size} exceeds the 16" in err

    @pytest.mark.parametrize("band_size, n_bands", [(15, 2), (16, 1)])
    def test_band_size_may_reach_the_coefficient_count(self, band_size, n_bands):
        enh = cli.build_enhancement(RunConfig(band_size=band_size, low_cutoff=8), 16)
        assert enh.n_bands == n_bands


def just_outside(field):
    """Raw config values just outside a field's domain."""
    domain = field.metadata["domain"]
    if isinstance(domain, tuple):
        return ["maybe" if field.type in ("bool", bool) else "bogus"]
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    if field.type in ("int", int):
        return [str(int(lo) - (domain[0] == "["))]
    values = [math.nextafter(lo, -math.inf) if domain[0] == "[" else lo]
    if hi < math.inf:
        values.append(math.nextafter(hi, math.inf) if domain[-1] == "]" else hi)
    return [repr(v) for v in values]


OUTSIDE = [(f.name, raw) for f in dataclasses.fields(RunConfig) for raw in just_outside(f)]


class TestFieldDomains:
    """Each RunConfig field declares its domain, and every command refuses a
    value outside it at parse time with exit 2 and one line naming the key."""

    @staticmethod
    def run(tiny_env, tmp_path, capsys, command, *lines):
        keys = tuple(line.split("=")[0] for line in lines)
        cfg = write_cfg(tmp_path / "bad.cfg",
                        [x for x in TINY_LINES if not x.startswith(keys)] + list(lines))
        out = tmp_path / "out"
        data = [] if command == "synth" else ["--data", tiny_env["data"]]
        code = cli.main([command, "--config", cfg, *data, "--out", str(out)])
        # a refused config makes no --out; a run that fails in training leaves it empty
        assert not out.exists() or (code == 1 and not any(out.iterdir()))
        return code, capsys.readouterr().err

    def test_every_field_declares_a_domain(self):
        assert all("domain" in f.metadata for f in dataclasses.fields(RunConfig))

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("key, raw", OUTSIDE)
    def test_value_just_outside_exits_two_naming_the_key(self, tiny_env, tmp_path, capsys,
                                                         command, key, raw):
        code, err = self.run(tiny_env, tmp_path, capsys, command, f"{key} = {raw}")
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"config error: {key}")

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("line, message", [
        ("init_weight = 2", "init_weight must be in [0, 1], got 2.0"),
        ("synth_test_fraction = 3", "synth_test_fraction must be in (0, 1), got 3.0"),
        ("synth_label_noise = 2", "synth_label_noise must be in [0, 1], got 2.0"),
        ("synth_within_class_std = -1", "synth_within_class_std must be >= 0, got -1.0"),
        ("temperature = -1", "temperature must be > 0, got -1.0"),
        ("ramp = 0", "ramp must be > 0, got 0.0"),
        ("low_cutoff = -1", "low_cutoff must be >= 0, got -1"),
        ("enhance_mode = spline",
         "enhance_mode must be one of piecewise, learnable_only, off, got 'spline'"),
        ("temperature = nan", "temperature must be > 0, got nan (not a finite number)"),
    ])
    def test_refusal_is_the_same_for_every_command(self, tiny_env, tmp_path, capsys, command,
                                                   line, message):
        code, err = self.run(tiny_env, tmp_path, capsys, command, line)
        assert (code, err) == (2, f"config error: {message}\n")

    @pytest.mark.parametrize("key", ["gate_c", "gate_holdout"])
    def test_synth_refuses_the_keys_of_the_removed_gate(self, tiny_env, tmp_path, capsys, key):
        code, err = self.run(tiny_env, tmp_path, capsys, "synth", f"{key} = 0.5")
        assert (code, err.count("\n")) == (2, 1) and f"unknown key {key!r}" in err

    def test_eval_refuses_an_out_of_domain_config(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", TINY_LINES + ["ramp = 0"])
        code = cli.main(["eval", "--checkpoint", trained["checkpoint"], "--config", cfg,
                         "--data", trained["data"], "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == "config error: ramp must be > 0, got 0.0\n"

    def test_dct_check_refuses_a_negative_seed(self, capsys):
        assert cli.main(["dct-check", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("raw", ["-0.1", "1.5", "nan"])
    def test_loss_bench_refuses_a_noise_rate_before_training(self, tiny_env, tmp_path, capsys,
                                                             monkeypatch, raw):
        trained = []
        monkeypatch.setattr(cli, "train_full", lambda *a: trained.append(a))
        code = cli.main(["loss-bench", "--config", tiny_env["cfg"], "--noise-rate", "0",
                         "--noise-rate", raw, "--out", str(tmp_path / "bench")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("config error: --noise-rate must be in [0, 1], got ")
        assert trained == []

    @pytest.mark.parametrize("key", ["kl_weight", "align_weight"])
    def test_loss_weight_whose_gradient_square_overflows_exits_one(self, tiny_env, tmp_path,
                                                                   capsys, key):
        # a numpy RuntimeWarning would fail this test, so none is printed either
        code, err = self.run(tiny_env, tmp_path, capsys, "train", f"{key} = 1e300")
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: stage 2 epoch 0 step 0: ") and "gradient" in err


RELATIONS = [  # TINY_LINES has 5 classes, 16 frames, 2 joints and 2 coords
    ("synth_unseen = 5", "config error: synth_unseen must be < synth_classes (5), got 5\n"),
    ("synth_low_band_stop = 17", "config error: synth_low_band_start and synth_low_band_stop "
                                 "must give a non-empty band within the 16 synth_frames, "
                                 "got [1, 17)\n"),
    ("synth_proto_rank = 17", "config error: synth_proto_rank must be <= synth_joints * "
                              "synth_coords * band width (16), got 17\n"),
    ("synth_jitter_start = 17", "config error: synth_jitter_start must be <= synth_frames "
                                "(16), got 17\n"),
]


class TestKeyRelations:
    """The synth_* keys must also fit together. `synth` and `loss-bench`
    refuse a config whose keys do not, with exit 2 and one line naming the
    key; `train` reads no synth_* key, so it accepts the same config."""

    @pytest.mark.parametrize("command", ["synth", "loss-bench"])
    @pytest.mark.parametrize("line, message", RELATIONS)
    def test_broken_relation_exits_two_naming_the_key(self, tmp_path, capsys, command, line,
                                                      message):
        key = line.split(" ")[0]
        cfg = write_cfg(tmp_path / "bad.cfg",
                        [x for x in TINY_LINES if not x.startswith(key)] + [line])
        extra = ["--loss", "calibrated", "--noise-rate", "0"] if command == "loss-bench" else []
        out = tmp_path / "out"
        code = cli.main([command, "--config", cfg, *extra, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (2, message)
        assert not out.exists()

    @pytest.mark.parametrize("line", [line for line, _ in RELATIONS])
    def test_train_accepts_the_same_config(self, tiny_env, tmp_path, capsys, line):
        key = line.split(" ")[0]
        cfg = write_cfg(tmp_path / "bad.cfg",
                        [x for x in TINY_LINES if not x.startswith(key)] + [line])
        code = cli.main(["train", "--config", cfg, "--data", tiny_env["data"],
                         "--out", str(tmp_path / "run")])
        assert (code, capsys.readouterr().err) == (0, "")

    # two of TINY_LINES' five classes are unseen, so three leave one seen class
    ONE_SEEN = [x for x in TINY_LINES if not x.startswith("synth_classes")] + [
        "synth_classes = 3", "synth_label_noise = 0.5"]

    @pytest.mark.parametrize("command, flags, key", [
        ("synth", [], "synth_label_noise"),
        ("loss-bench", ["--loss", "calibrated", "--noise-rate", "0", "--noise-rate", "0.5"],
         "--noise-rate")])
    def test_label_noise_with_one_seen_class_exits_two_before_training(
            self, tmp_path, capsys, monkeypatch, command, flags, key):
        trained = []
        monkeypatch.setattr(cli, "train_full", lambda *a: trained.append(a))
        cfg = write_cfg(tmp_path / "noise.cfg", self.ONE_SEEN)
        out = tmp_path / "out"
        code = cli.main([command, "--config", cfg, *flags, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, f"config error: {key} > 0 needs at least 2 seen classes (synth_classes - "
               "synth_unseen), got 1\n")
        assert not out.exists() and trained == []

    def test_train_accepts_label_noise_with_one_seen_class(self, tiny_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "noise.cfg", self.ONE_SEEN)
        code = cli.main(["train", "--config", cfg, "--data", tiny_env["data"],
                         "--out", str(tmp_path / "run")])
        assert (code, capsys.readouterr().err) == (0, "")


class TestConfigHash:
    def test_shape_and_stability(self):
        h = cli.config_hash(RunConfig())
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")
        assert cli.config_hash(RunConfig()) == h

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1},
        {"temperature": 2.5},
        {"enhance_mode": "off"},
        {"train_weights": False},
        {"synth_classes": 13},
        {"seen_lr": 0.02},
        {"align_loss": "t2"},
    ])
    def test_sensitive_to_each_field(self, kwargs):
        base = cli.config_hash(RunConfig())
        assert cli.config_hash(RunConfig(**kwargs)) != base

    def test_equal_configs_from_different_sources_agree(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", ["seed = 3", "margin = 0.5"])
        a = cli.parse_config(path)
        b = dataclasses.replace(RunConfig(), seed=3, margin=0.5)
        assert cli.config_hash(a) == cli.config_hash(b)


class TestWiring:
    def test_enhancement_off_is_none(self):
        assert cli.build_enhancement(RunConfig(enhance_mode="off"), 64) is None

    def test_low_cutoff_must_fit_length(self):
        with pytest.raises(ConfigError, match=r"low_cutoff 35 outside \[0, 16\)"):
            cli.build_enhancement(RunConfig(), 16)

    def test_band_size_one_gives_per_coefficient_bands(self):
        enh = cli.build_enhancement(RunConfig(), 64)
        assert enh is not None
        assert len(enh.weights) == 64

    def test_coarse_bands_reduce_weight_count(self):
        enh = cli.build_enhancement(RunConfig(band_size=16), 64)
        assert len(enh.weights) == 4

    def test_bad_band_geometry_routed_to_config_error(self):
        with pytest.raises(ConfigError):
            cli.build_enhancement(RunConfig(ramp=-1.0), 64)

    def test_make_synth_config_maps_fields(self):
        # the band keys place a clean sample's energy in coefficients 2-5
        cfg = RunConfig(synth_classes=4, synth_samples_per_class=2, synth_frames=16,
                        synth_low_band_start=2, synth_low_band_stop=6,
                        synth_jitter_start=8, seed=9)
        spec = frequency.dct_forward(synthbench.generate(cfg).dataset.records[0].sequence)
        energy = np.sum(spec * spec, axis=(0, 1))
        assert np.all(energy[2:6] > 0)
        assert np.sum(energy[2:6]) == pytest.approx(np.sum(energy), rel=1e-12)

    def test_make_synth_config_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            synthbench.generate(RunConfig(synth_proto_rank=0))

    def test_featurizer_for_sequences_enhances_frame_axis(self):
        cfg = cli.parse_config(write_cfg(Path("/tmp") / "t.cfg", TINY_LINES))
        gen = synthbench.generate(cfg)
        feat = cli.make_featurizer(cfg, gen.dataset)
        assert feat.enhancement is not None
        assert len(frequency.scaling_profile(feat.enhancement)[0]) == 16

    def test_featurizer_for_vectors_defaults_to_identity(self):
        recs = [pipeline.FeatureRecord(f"s{i}", i % 2, "train-seen",
                                       vector=np.arange(6.0) + i)
                for i in range(4)]
        ds = pipeline.FeatureDataset(recs)
        assert cli.make_featurizer(RunConfig(low_cutoff=3), ds).enhancement is None
        on = cli.make_featurizer(
            RunConfig(low_cutoff=3, enhance_vectors=True), ds)
        assert on.enhancement is not None
        assert len(on.enhancement.weights) == 6
        off = cli.make_featurizer(
            RunConfig(enhance_mode="off", enhance_vectors=True), ds)
        assert off.enhancement is None

    def test_make_loss_config_rejects_bad_temperature(self):
        with pytest.raises(ConfigError):
            RunConfig(temperature=-1.0)


class TestSelfChecks:
    def test_all_pass_by_default(self):
        rows = cli.dct_self_checks(seed=0)
        assert [r[0] for r in rows] == [
            "round-trip", "parseval", "orthonormality",
            "energy-redistribution", "identity-enhancement"]
        assert all(passed for _, _, _, passed in rows)
        for _, err, tol, _ in rows:
            assert 0.0 <= err < tol

    @staticmethod
    def corrupt_basis(monkeypatch):
        clean = frequency.dct_basis
        monkeypatch.setattr(frequency, "dct_basis", lambda frames: clean(frames) + 1e-3)

    def test_corrupt_basis_fails(self, monkeypatch):
        self.corrupt_basis(monkeypatch)
        rows = cli.dct_self_checks(seed=0)
        failed = [name for name, _, _, passed in rows if not passed]
        assert failed == ["round-trip", "parseval", "orthonormality",
                          "energy-redistribution"]

    def test_command_exit_codes(self, capsys, monkeypatch):
        assert cli.main(["dct-check"]) == 0
        assert "PASS round-trip" in capsys.readouterr().out
        self.corrupt_basis(monkeypatch)
        assert cli.main(["dct-check"]) == 1
        assert "FAIL" in capsys.readouterr().out


def tuned_size_model() -> cli.TrainedModel:
    """A model the size of the tuned recipe's on the bundled benchmark (5 x 3 x
    64 sequences, two hidden layers of 64, 16 latents, 10 seen and 2 unseen
    classes), every value drawn so that each float prints at full length."""
    rng = np.random.default_rng(0)
    vae = crossvae.init_vae_params(960, 48, 16, rng, hidden=(64, 64))
    vae = vae.with_arrays([rng.standard_normal(a.shape) for a in vae.param_arrays()])
    enh = frequency.EnhancementConfig.per_coefficient(64, 35, 30.0).with_weights(
        rng.uniform(0.0, 1.0, 64))
    return cli.TrainedModel(
        vae, pipeline.SkeletonFeaturizer(enh),
        pipeline.SoftmaxClassifier((3, 7), rng.standard_normal((2, 16)), rng.standard_normal(2)),
        pipeline.SoftmaxClassifier(tuple(range(10)), rng.standard_normal((10, 16)),
                                   rng.standard_normal(10)),
        [], "0" * 64)


def traced_peak(call):
    """(result, peak bytes allocated while call() ran), by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpoint:
    def test_round_trip(self, trained, tmp_path):
        model = cli.load_checkpoint(trained["checkpoint"])
        again = tmp_path / "copy.json"
        cli.save_checkpoint(again, model)
        assert again.read_bytes() == Path(trained["checkpoint"]).read_bytes()

    def test_restores_every_component(self, trained):
        cfg = cli.parse_config(trained["cfg"])
        dataset = pipeline.load_feature_file(Path(trained["data"]) / "features.jsonl")
        model = cli.load_checkpoint(trained["checkpoint"])
        assert model.config_hash == cli.config_hash(cfg)
        assert model.loss_log == []
        for w in model.vae.skel_encoder.weights + model.vae.text_decoder.weights:
            assert np.all(np.isfinite(w))
        # featurizer reproduces the training-time transform bit for bit
        rebuilt = cli.make_featurizer(cfg, dataset)
        raw = dataset.records[0]
        np.testing.assert_array_equal(
            model.featurizer.features([raw]),
            pipeline.SkeletonFeaturizer(
                rebuilt.enhancement.with_weights(model.featurizer.enhancement.weights),
                cfg.enhance_vectors).features([raw]))

    def test_checkpoint_json_shape(self, trained):
        blob = json.loads(Path(trained["checkpoint"]).read_text())
        assert blob["format_version"] == cli.CHECKPOINT_VERSION
        assert set(blob) == {"format_version", "config_hash", "vae", "featurizer",
                             "unseen_classifier", "seen_classifier"}
        assert blob["featurizer"]["enhancement"]["mode"] == "piecewise"

    def test_bytes_equal_one_shot_compact_json(self, trained):
        text = Path(trained["checkpoint"]).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":")) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(obj=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats(allow_nan=False, allow_infinity=False),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4),
        max_leaves=20))
    def test_piecewise_writer_matches_json_dumps(self, obj):
        pieces = "".join(cli._compact_json_pieces(obj))
        assert pieces == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_codec_builds_no_model_sized_tree(self, tmp_path):
        # a tree of the model's floats as Python objects takes more than the
        # file; the writer goes a row at a time, and the reader holds the text
        # and the arrays but only one object's floats at a time
        model, path = tuned_size_model(), tmp_path / "checkpoint.json"
        _, save_peak = traced_peak(lambda: cli.save_checkpoint(path, model))
        size = path.stat().st_size
        loaded, load_peak = traced_peak(lambda: cli.load_checkpoint(path))
        assert save_peak < 0.25 * size
        assert load_peak < 2.5 * size
        for a, b in zip(model.vae.param_arrays(), loaded.vae.param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_model_holds_no_gate(self, trained, tmp_path):
        # TrainedModel.gate is a class attribute for callers that still pass
        # it to evaluate_gzsl; no field, and so no checkpoint key, holds one
        assert "gate" not in {f.name for f in dataclasses.fields(cli.TrainedModel)}
        again = tmp_path / "again.json"
        cli.save_checkpoint(again, cli.load_checkpoint(trained["checkpoint"]))
        assert "gate" not in json.loads(again.read_text())
        assert cli.load_checkpoint(again).gate is None

    def test_rejects_unknown_format_version(self, trained, tmp_path):
        blob = json.loads(Path(trained["checkpoint"]).read_text())
        blob["format_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="not supported"):
            cli.load_checkpoint(bad)


class TestMainEndToEnd:
    def test_synth_outputs(self, tiny_env, capsys):
        data = Path(tiny_env["data"])
        for name in ("features.jsonl", "embeddings.jsonl", "split.json",
                     "manifest.json"):
            assert (data / name).exists()
        manifest = json.loads((data / "manifest.json").read_text())
        cfg = cli.parse_config(tiny_env["cfg"])
        assert manifest["config_hash"] == cli.config_hash(cfg)
        assert manifest["records"] == 5 * 6
        assert sorted(manifest["seen"] + manifest["unseen"]) == [0, 1, 2, 3, 4]
        assert len(manifest["unseen"]) == 2
        dataset = pipeline.load_feature_file(data / "features.jsonl")
        split = pipeline.load_split_file(data / "split.json")
        pipeline.validate_split(dataset, split)

    @pytest.mark.parametrize("command", ["train", "loss-bench"])
    def test_out_that_is_a_file_fails_before_training(self, tiny_env, tmp_path, capsys,
                                                      monkeypatch, command):
        trained = []
        monkeypatch.setattr(pipeline, "run_stage2", lambda *a, **k: trained.append(a))
        out = tmp_path / "taken"
        out.write_text("a file\n")
        extra = (["--data", tiny_env["data"]] if command == "train"
                 else ["--loss", "calibrated", "--noise-rate", "0"])
        code = cli.main([command, "--config", tiny_env["cfg"], *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and str(out) in err
        assert trained == []
        assert out.read_text() == "a file\n"

    def test_train_outputs_and_log(self, trained, capsys):
        out = trained["out"]
        assert (out / "checkpoint.json").exists()
        log = json.loads((out / "loss_log.json").read_text())
        assert set(log) == {"config_hash", "epochs"}
        assert len(log["epochs"]) == 2
        row = log["epochs"][0]
        assert row["epoch"] == 0
        assert {"total", "vae", "align"} <= set(row)

    def test_train_is_bit_reproducible(self, trained):
        rerun = trained["root"] / "run2"
        code = cli.main(["train", "--config", trained["cfg"],
                         "--data", trained["data"], "--out", str(rerun)])
        assert code == 0
        assert (rerun / "checkpoint.json").read_bytes() == \
            (trained["out"] / "checkpoint.json").read_bytes()

    def test_eval_zsl_report(self, trained, capsys):
        out = trained["root"] / "zsl.json"
        code = cli.main(["eval", "--checkpoint", trained["checkpoint"],
                         "--data", trained["data"], "--mode", "zsl",
                         "--out", str(out)])
        assert code == 0
        assert "zsl unseen accuracy:" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["mode"] == "zsl"
        assert 0.0 <= report["zsl_accuracy"] <= 1.0
        assert report["seen_accuracy"] is None
        assert report["harmonic"] is None

    def test_eval_gzsl_report(self, trained, capsys):
        out = trained["root"] / "gzsl.json"
        code = cli.main(["eval", "--checkpoint", trained["checkpoint"],
                         "--data", trained["data"], "--out", str(out)])
        assert code == 0
        assert "harmonic" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["mode"] == "gzsl"
        for key in ("seen_accuracy", "unseen_accuracy", "harmonic",
                    "zsl_accuracy"):
            assert 0.0 <= report[key] <= 1.0
        expected = pipeline.harmonic_mean(report["seen_accuracy"],
                                          report["unseen_accuracy"])
        assert report["harmonic"] == pytest.approx(expected, abs=1e-9)
        assert all(isinstance(k, str) for k in report["per_class"])

    def test_eval_warns_on_config_hash_mismatch(self, trained, tmp_path, capsys):
        other = write_cfg(tmp_path / "other.cfg", TINY_LINES + ["seed = 5"])
        out = tmp_path / "r.json"
        code = cli.main(["eval", "--checkpoint", trained["checkpoint"],
                         "--config", other, "--data", trained["data"],
                         "--mode", "zsl", "--out", str(out)])
        assert code == 0
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, named", [
        (lambda blob: blob.update(vae=[]), "checkpoint.vae must be a JSON object, not array"),
        (lambda blob: blob.pop("featurizer"), "checkpoint has no key 'featurizer'"),
        (lambda blob: blob["vae"]["text_decoder"].pop("biases"),
         "checkpoint.vae.text_decoder has no key 'biases'"),
        (lambda blob: blob["featurizer"]["enhancement"].update(ramp="30"),
         "checkpoint.featurizer.enhancement.ramp must be a JSON number, not string"),
        (lambda blob: blob["featurizer"]["enhancement"].pop("ramp"),
         "checkpoint.featurizer.enhancement has no key 'ramp'"),
        (lambda blob: blob["vae"].update(latent_dim=3), "checkpoint.vae: "),
        (lambda blob: blob["seen_classifier"].update(weights=[[1.0], "x"]),
         "checkpoint.seen_classifier.weights[1] must be a JSON number, not string"),
        (lambda blob: blob["vae"].update(latent_dim=4.0),
         "checkpoint.vae.latent_dim must be a JSON integer, not number"),
        (lambda blob: blob["seen_classifier"]["class_ids"].append(True),
         "checkpoint.seen_classifier.class_ids[3] must be a JSON integer, not boolean"),
        (lambda blob: blob["vae"]["skel_encoder"]["weights"].insert(0, 1.5),
         "checkpoint.vae.skel_encoder.weights[0] must be a JSON array, not number"),
        (lambda blob: blob["featurizer"].update(enhancement=[]),
         "checkpoint.featurizer.enhancement must be a JSON object, not array"),
        (lambda blob: blob["unseen_classifier"].update(bias=[1e400, 10 ** 400]),
         "checkpoint.unseen_classifier: int too large to convert to float"),
        (lambda blob: blob["featurizer"]["enhancement"].update(ramp=10 ** 400),
         "checkpoint.featurizer: int too large to convert to float"),
        # an array item that is null, a string or not finite would be read as a
        # float (nan, 1.5, nan) and score garbage
        (lambda blob: blob["seen_classifier"]["weights"][0].__setitem__(1, None),
         "checkpoint.seen_classifier.weights[0][1] must be a JSON number, not null"),
        (lambda blob: blob["unseen_classifier"]["bias"].__setitem__(1, math.nan),
         "checkpoint.unseen_classifier.bias[1] must be a finite number, not nan"),
        (lambda blob: blob["unseen_classifier"]["bias"].__setitem__(0, "1.5"),
         "checkpoint.unseen_classifier.bias[0] must be a JSON number, not string"),
        (lambda blob: blob.update(format_version=True),
         "checkpoint.format_version must be a JSON integer, not boolean"),
        # a floor outside [0, 1] is refused on load as it is in a config
        *[(lambda blob, floor=floor: blob["featurizer"]["enhancement"].update(floor=floor),
           "checkpoint.featurizer: floor must lie in [0, 1]") for floor in (math.nan, 2, -1)],
        # heads whose labels, rows and biases disagree
        (lambda blob: blob["seen_classifier"]["class_ids"].pop(),
         "checkpoint.seen_classifier: 2 class ids need 2 weight rows and 2 biases, "
         "got weights (3, 4) and bias (3,)"),
        (lambda blob: blob["unseen_classifier"].update(
            bias=blob["unseen_classifier"]["bias"][:1]),
         "checkpoint.unseen_classifier: 2 class ids need 2 weight rows and 2 biases, "
         "got weights (2, 4) and bias (1,)"),
    ])
    def test_eval_names_the_bad_key_of_a_malformed_checkpoint(self, trained, tmp_path,
                                                               capsys, corrupt, named):
        blob = json.loads(Path(trained["checkpoint"]).read_text())
        corrupt(blob)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code = cli.main(["eval", "--checkpoint", str(bad), "--data", trained["data"],
                         "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + named)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_eval_refuses_a_band_layout_that_does_not_match_the_data(self, trained,
                                                                     tmp_path, capsys):
        # one band over one coefficient, on 16-coefficient sequences
        blob = json.loads(Path(trained["checkpoint"]).read_text())
        enh = blob["featurizer"]["enhancement"]
        enh.update(split_points=[0, 1], weights=enh["weights"][:1], low_cutoff=0)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code = cli.main(["eval", "--checkpoint", str(bad), "--data", trained["data"],
                         "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: config partitions 1 coefficients, spectrum has 16\n"

    @pytest.mark.parametrize("command", ["eval", "export-latents"])
    def test_data_of_another_feature_width_exits_one_naming_both(self, trained, tmp_path,
                                                                 capsys, command):
        # the checkpoint was trained on 2 joints x 2 coords x 16 frames = 64 features
        cfg = write_cfg(tmp_path / "joints.cfg", [
            x for x in TINY_LINES if not x.startswith("synth_joints")] + ["synth_joints = 3"])
        data = tmp_path / "data"
        assert cli.main(["synth", "--config", cfg, "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = cli.main([command, "--checkpoint", trained["checkpoint"], "--data", str(data),
                         "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            1, "error: data records flatten to 96 features, the checkpoint's skeleton "
               "encoder takes 64\n")
        assert not out.exists()

    def test_gzsl_report_carries_the_zsl_accuracy(self, trained, tmp_path):
        model = cli.load_checkpoint(trained["checkpoint"])
        dataset = pipeline.load_feature_file(Path(trained["data"]) / "features.jsonl")
        unseen = dataset.by_partition("test-unseen")
        # perfbench's check eval still passes the unread model.gate in this position
        report = pipeline.evaluate_gzsl(model.vae, model.featurizer, model.gate,
                                        model.seen_clf, model.unseen_clf,
                                        dataset.by_partition("test-seen"), unseen)
        assert report.zsl_accuracy == pipeline.evaluate_zsl(
            model.vae, model.featurizer, model.unseen_clf, unseen)
        written = {}
        for mode in ("zsl", "gzsl"):
            out = tmp_path / f"{mode}.json"
            assert cli.main(["eval", "--checkpoint", trained["checkpoint"],
                             "--data", trained["data"], "--mode", mode,
                             "--out", str(out)]) == 0
            written[mode] = json.loads(out.read_text())["zsl_accuracy"]
        assert written["zsl"] == written["gzsl"] == report.zsl_accuracy

    def test_gzsl_refuses_a_one_class_unseen_head_and_zsl_scores_it(self, tiny_env, tmp_path,
                                                                     capsys):
        cfg = write_cfg(tmp_path / "one.cfg", [
            x for x in TINY_LINES if not x.startswith("synth_unseen")] + ["synth_unseen = 1"])
        data, out = tmp_path / "data", tmp_path / "run"
        assert cli.main(["synth", "--config", cfg, "--out", str(data)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["train", "--config", cfg, "--data", str(data),
                             "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        args = ["eval", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data)]
        assert cli.main(args + ["--mode", "gzsl", "--out", str(tmp_path / "g.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "one-class unseen head" in err
        assert cli.main(args + ["--mode", "zsl", "--out", str(tmp_path / "z.json")]) == 0
        assert json.loads((tmp_path / "z.json").read_text())["zsl_accuracy"] == 1.0

    def test_export_latents(self, trained, capsys):
        out = trained["root"] / "latents.csv"
        code = cli.main(["export-latents", "--checkpoint", trained["checkpoint"],
                         "--data", trained["data"], "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sample_id,class_id,z0")
        assert len(lines) == 1 + 5 * 6

    def test_export_latents_quotes_an_id_holding_a_comma(self, trained, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(trained["data"], data)
        lines = (data / "features.jsonl").read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[3])
        obj["sample_id"] = 'c0,"s0"'
        lines[3] = json.dumps(obj)
        (data / "features.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        written = {}
        for name, src in (("plain", trained["data"]), ("comma", str(data))):
            written[name] = tmp_path / f"{name}.csv"
            assert cli.main(["export-latents", "--checkpoint", trained["checkpoint"],
                             "--data", src, "--out", str(written[name])]) == 0
        with open(written["comma"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(rows[0])} == {2 + 4}
        assert rows[4][0] == 'c0,"s0"'
        plain = written["plain"].read_bytes().split(b"\n")
        comma = written["comma"].read_bytes().split(b"\n")
        assert comma[4] == b'"c0,""s0""",' + plain[4].split(b",", 1)[1]
        assert comma[:4] + comma[5:] == plain[:4] + plain[5:]

    def test_loss_bench_artifacts(self, tiny_env, capsys):
        out = tiny_env["root"] / "bench"
        code = cli.main(["loss-bench", "--config", tiny_env["cfg"],
                         "--loss", "calibrated", "--loss", "t1",
                         "--noise-rate", "0.0", "--out", str(out)])
        assert code == 0
        table = json.loads((out / "loss_bench.json").read_text())
        assert table["losses"] == ["calibrated", "t1"]
        assert table["rates"] == [0.0]
        assert table["seeds"] == 2
        assert len(table["mean"]["calibrated"]) == 1
        assert len(table["detail"]["t1"]["0.0"]) == 2
        csv_lines = (out / "loss_bench.csv").read_text().splitlines()
        assert csv_lines[0].startswith("noise_rate,calibrated,t1")
        assert len(csv_lines) == 2
        printed = capsys.readouterr().out
        assert "calibrated" in printed and "t1" in printed

    @pytest.mark.parametrize("option, first, again, shown", [
        ("--loss", "calibrated", "calibrated", "calibrated"),
        ("--noise-rate", "0", "0.0", "0.0")])
    def test_loss_bench_refuses_a_repeated_value_before_training(
            self, tiny_env, tmp_path, capsys, monkeypatch, option, first, again, shown):
        trained = []
        monkeypatch.setattr(cli, "train_full", lambda *a: trained.append(a))
        code = cli.main(["loss-bench", "--config", tiny_env["cfg"], option, first,
                         option, again, "--out", str(tmp_path / "bench")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {option} {shown} is given more than once\n")
        assert trained == []
        assert not (tmp_path / "bench").exists()

    def test_unknown_bench_loss_is_config_error(self, tiny_env, capsys):
        code = cli.main(["loss-bench", "--config", tiny_env["cfg"],
                         "--loss", "huber", "--out",
                         str(tiny_env["root"] / "x")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_loss_bench_rejects_t4_without_margin_before_training(self, tiny_env, tmp_path,
                                                                   capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "train_full", lambda *a, **k: trained.append(a))
        cfg = write_cfg(tmp_path / "m0.cfg", TINY_LINES + ["margin = 0"])
        code = cli.main(["loss-bench", "--config", cfg, "--loss", "calibrated",
                         "--loss", "t4", "--out", str(tmp_path / "bench")])
        assert code == 2
        err = capsys.readouterr().err
        assert "margin" in err and "t4" in err
        assert trained == []

    def test_bad_config_file_exits_two(self, tmp_path, capsys):
        bad = write_cfg(tmp_path / "bad.cfg", ["velocity = 9"])
        code = cli.main(["synth", "--config", bad, "--out", str(tmp_path / "d")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_train_that_can_take_no_step_exits_one(self, tiny_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "b1.cfg", TINY_LINES + ["batch_size = 1"])
        out = tmp_path / "run"
        code = cli.main(["train", "--config", cfg, "--data", tiny_env["data"],
                         "--out", str(out)])
        assert code == 1
        assert "single class" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_missing_data_dir_exits_one(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "nowhere"),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tiny_env, tmp_path):
        data2 = tmp_path / "d2"
        assert cli.main(["synth", "--config", tiny_env["cfg"], "--seed", "3",
                         "--out", str(data2)]) == 0
        m1 = json.loads((Path(tiny_env["data"]) / "manifest.json").read_text())
        m2 = json.loads((data2 / "manifest.json").read_text())
        assert m1["config_hash"] != m2["config_hash"]


# the checkpoint-determinism acceptance criterion's config
DETERMINISM_LINES = [line for line in TINY_LINES
                     if not line.startswith(("stage2_epochs", "unseen_samples",
                                             "unseen_epochs", "seen_epochs",
                                             "bench_seeds"))] + [
    "stage2_epochs = 30", "unseen_samples = 20", "unseen_epochs = 30", "seen_epochs = 30"]

SYNTH_AND_TRAIN = """
import sys
from freqzsl import cli
cfg, data, out = sys.argv[1:]
sys.exit(cli.main(["synth", "--config", cfg, "--out", data])
         or cli.main(["train", "--config", cfg, "--data", data, "--out", out]))
"""


def test_train_on_one_unseen_class_writes_nothing_to_stderr(tmp_path):
    # a fresh interpreter shows a warning as Python does by default, on stderr
    cfg = write_cfg(tmp_path / "one.cfg", [
        x for x in TINY_LINES if not x.startswith("synth_unseen")] + ["synth_unseen = 1"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SYNTH_AND_TRAIN, cfg, str(tmp_path / "data"),
         str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "out" / "checkpoint.json").exists()


def test_checkpoint_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    cfg = write_cfg(tmp_path / "det.cfg", DETERMINISM_LINES)
    src = str(Path(cli.__file__).resolve().parents[1])
    blobs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", SYNTH_AND_TRAIN, cfg, str(run / "data"), str(run / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        blobs.append((run / "out" / "checkpoint.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_train_without_band_weights_is_bit_reproducible(tiny_env, tmp_path, monkeypatch):
    # vector records with enhancement off train no band weights, so stage 2
    # computes no feature gradients; criterion 13 covers the other path
    stage2_loss, asked = crossvae.stage2_loss, set()

    def recording(*args, feature_grads=True, **kwargs):
        asked.add(feature_grads)
        return stage2_loss(*args, feature_grads=feature_grads, **kwargs)

    monkeypatch.setattr(crossvae, "stage2_loss", recording)
    data = tmp_path / "vectors"
    shutil.copytree(tiny_env["data"], data)
    rows = []
    for line in (data / "features.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj["vector"] = np.ravel(obj.pop("sequence")).tolist()
        rows.append(json.dumps(obj))
    (data / "features.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_cfg(tmp_path / "off.cfg", DETERMINISM_LINES + ["enhance_mode = off"])
    blobs = []
    for name in ("run-a", "run-b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", cfg, "--data", str(data),
                         "--out", str(out)]) == 0
        blobs.append((out / "checkpoint.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert asked == {False}


# criterion 13's config cut to 5 stage-2 epochs; it trains in a few tens of ms
SHORT_LINES = [line for line in DETERMINISM_LINES if not line.startswith("stage2_epochs")] + [
    "stage2_epochs = 5"]


def test_train_full_fits_the_seen_head_on_every_train_seen_record(tiny_env, monkeypatch):
    cfg = cli.parse_config(tiny_env["cfg"])
    gen = synthbench.generate(cfg)
    fitted = []
    fit = pipeline.train_seen_classifier
    monkeypatch.setattr(pipeline, "train_seen_classifier",
                        lambda *a: fitted.append(a[2]) or fit(*a))
    model = cli.train_full(cfg, gen.dataset, gen.table, gen.split)
    assert fitted == [gen.dataset.by_partition("train-seen")]
    assert model.seen_clf.class_ids == tuple(gen.split.seen)


def train_quietly(tiny_env, out, lines):
    """`train` on criterion 13's data (tiny_env's synth keys are the same);
    returns the exit code and stderr."""
    cfg = write_cfg(out.parent / f"{out.name}.cfg", lines)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["train", "--config", cfg, "--data", tiny_env["data"],
                         "--out", str(out)])
    return code, err.getvalue()


class TestInDomainRuns:
    """An in-domain config never ends in a traceback or a numpy warning: train
    exits 0, or exits 1 with one line. numpy RuntimeWarnings are errors in
    this suite, so a warning would escape main and fail the test."""

    @pytest.mark.parametrize("lr", ["1e3", "1e6"])
    def test_diverging_learning_rate_exits_one_naming_the_network(self, tiny_env, tmp_path,
                                                                  lr):
        code, err = train_quietly(tiny_env, tmp_path / "run",
                                  SHORT_LINES + [f"stage2_lr = {lr}"])
        assert (code, err) == (
            1, "error: stage 2 epoch 1 step 1: skel_decoder input contains non-finite entries\n")

    # the loss knobs, the learning rate and the featurizer's ramp span every
    # decade of a float; the band weights' floor and start span [0, 1]
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(knobs=st.fixed_dictionaries({
        **{key: st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                          st.integers(-300, 299))
           for key in ("temperature", "align_weight", "kl_weight", "margin", "stage2_lr",
                       "ramp")},
        **{key: st.floats(0.0, 1.0) for key in ("weight_floor", "init_weight")}}),
        align_loss=st.sampled_from(losses.ALIGN_LOSSES))
    def test_loss_knobs_and_learning_rate(self, tiny_env, tmp_path, knobs, align_loss):
        lines = [line for line in SHORT_LINES if line.split(" ")[0] not in knobs]
        lines += [f"{key} = {value!r}" for key, value in knobs.items()]
        code, err = train_quietly(tiny_env, tmp_path / "run",
                                  lines + [f"align_loss = {align_loss}"])
        if code == 0:
            assert err == ""
        else:
            assert code == 1 and err.count("\n") == 1 and err.startswith("error: "), err


SYNTH_TRAIN_EVAL_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # importing scipy or any submodule now fails
from freqzsl import cli
cfg, data, out = sys.argv[1:]
sys.exit(cli.main(["synth", "--config", cfg, "--out", data])
         or cli.main(["train", "--config", cfg, "--data", data, "--out", out])
         or cli.main(["eval", "--checkpoint", out + "/checkpoint.json", "--data", data,
                      "--mode", "gzsl", "--out", out + "/report.json"]))
"""


def test_pipeline_runs_without_scipy(tmp_path):
    cfg = write_cfg(tmp_path / "det.cfg", DETERMINISM_LINES)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SYNTH_TRAIN_EVAL_WITHOUT_SCIPY, cfg,
         str(tmp_path / "data"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out" / "report.json").read_text())["mode"] == "gzsl"


# ---- malformed data files ----

LOADERS = {
    "features.jsonl": (pipeline.load_feature_file, pipeline.FeatureFormatError),
    "embeddings.jsonl": (semantics.load_embeddings, semantics.EmbeddingFormatError),
    "split.json": (pipeline.load_split_file, pipeline.FeatureFormatError),
}

FEATURE_LINE = '{"class_id": 0, "partition": "train-seen", "sample_id": "a", "vector": [%s]}\n'
EMBEDDING_LINE = '{"class_id": 0, "kind": "AL", "vector": [%s]}\n'

numbers = st.floats() | st.integers() | st.sampled_from([10 ** 400, -(10 ** 309), 2 ** 64])
json_scalars = st.none() | st.booleans() | st.text(max_size=4) | numbers
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=4),
    max_leaves=12)
class_ids = st.integers(-1, 5) | json_scalars
vectors = st.lists(numbers, min_size=1, max_size=4) | json_values
id_lists = st.lists(st.integers(-1, 5), max_size=5) | json_values
# besides arbitrary bytes and JSON, objects shaped like each file's records,
# so that fuzzing reaches the field checks behind the JSON decoding
RECORDS = {
    "features.jsonl": st.fixed_dictionaries(
        {"sample_id": st.text(max_size=3), "class_id": class_ids,
         "partition": st.sampled_from(pipeline.PARTITIONS) | json_scalars,
         "vector": vectors},
        optional={"sequence": vectors}),
    "embeddings.jsonl": st.fixed_dictionaries(
        {"class_id": class_ids, "kind": st.sampled_from(semantics.KINDS),
         "vector": vectors}),
    "split.json": st.fixed_dictionaries({"seen": id_lists, "unseen": id_lists},
                                        optional={"config_hash": json_scalars}),
}


def json_file(name):
    """JSON lines, or one JSON document for the split file, as bytes."""
    docs = RECORDS[name] | json_values
    if name == "split.json":
        return docs.map(lambda o: json.dumps(o).encode())
    return st.lists(docs, min_size=1, max_size=4).map(
        lambda objs: "".join(json.dumps(o) + "\n" for o in objs).encode())


class TestMalformedDataFiles:
    @pytest.mark.parametrize("name, content, named", [
        pytest.param("features.jsonl", FEATURE_LINE % ("1.0, 1" + "0" * 400),
                     "line 1: int too large to convert to float", id="features-huge-int"),
        pytest.param("embeddings.jsonl", EMBEDDING_LINE % ("1" + "0" * 400),
                     "line 1: vector entry out of float64 range", id="embeddings-huge-int"),
        pytest.param("features.jsonl", FEATURE_LINE % ("1" * 5000),
                     "line 1: not valid JSON (Exceeds", id="features-int-digit-limit"),
        pytest.param("features.jsonl", b"\n\xff\xfe{}\n", "line 2: not UTF-8 text",
                     id="features-not-utf8"),
        pytest.param("embeddings.jsonl", b"\xc3(\n", "line 1: not UTF-8 text",
                     id="embeddings-not-utf8"),
        pytest.param("split.json", b'{"seen": [0], "unseen": ["\xe9"]}',
                     "split file: not UTF-8 text", id="split-not-utf8"),
        pytest.param("features.jsonl", "[" * 100_000,
                     "line 1: not valid JSON (maximum recursion", id="features-deep"),
        pytest.param("embeddings.jsonl", '{"a": ' * 100_000,
                     "line 1: not valid JSON (maximum recursion", id="embeddings-deep"),
        pytest.param("split.json", "[" * 100_000,
                     "split file: not valid JSON (maximum recursion", id="split-deep"),
        pytest.param("split.json", '{"seen": [0, 1, 1, 2], "unseen": [3, 4]}',
                     "split file: duplicate class ids", id="split-duplicate"),
        pytest.param("split.json", '{"seen": [0, 1, 2, 3], "unseen": [3, 4]}',
                     "split file: classes in both groups: [3]", id="split-overlap"),
        pytest.param("split.json", '{"seen": [], "unseen": [0, 1, 2, 3, 4]}',
                     "split file: both split groups must be non-empty", id="split-empty"),
    ])
    def test_train_exits_one_with_a_typed_error(self, tiny_env, tmp_path, capsys, name,
                                                content, named):
        data = tmp_path / "data"
        shutil.copytree(tiny_env["data"], data)
        path = data / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(LOADERS[name][1]):
            LOADERS[name][0](path)
        code = cli.main(["train", "--config", tiny_env["cfg"], "--data", str(data),
                         "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + named)
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(LOADERS))
    @pytest.mark.parametrize("content", ["bytes", "json"])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loader_raises_only_its_format_error(self, tmp_path, name, content, data):
        load, error = LOADERS[name]
        path = tmp_path / name
        path.write_bytes(data.draw(st.binary(max_size=200) if content == "bytes"
                                   else json_file(name)))
        try:
            load(path)
        except error:
            pass

    @pytest.mark.parametrize("name", sorted(LOADERS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_on_a_fuzzed_file_exits_one_or_two(self, tiny_env, tmp_path, name, data):
        # batch_size 1 cannot take a stage-2 step, so even a valid file ends in exit 1
        cfg = write_cfg(tmp_path / "b1.cfg", TINY_LINES + ["batch_size = 1"])
        run_data = tmp_path / "data"
        if not run_data.exists():
            shutil.copytree(tiny_env["data"], run_data)
        (run_data / name).write_bytes(data.draw(st.binary(max_size=200) | json_file(name)))
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["train", "--config", cfg, "--data", str(run_data),
                             "--out", str(tmp_path / "run")])
        assert code in (1, 2)


# ---- checkpoints: the committed format and malformed files ----

# written by `train` on the checkpoint-determinism criterion's config
CHECKPOINT_V2 = REPO / "tests" / "data" / "checkpoint-v2.json"


def test_v2_checkpoint_round_trips_byte_for_byte(tmp_path):
    again = tmp_path / "again.json"
    cli.save_checkpoint(again, cli.load_checkpoint(CHECKPOINT_V2))
    assert again.read_bytes() == CHECKPOINT_V2.read_bytes()


def test_v1_checkpoint_is_refused(tmp_path, capsys):
    # version 1 also held the fitted gate that GZSL routing no longer reads
    blob = json.loads(CHECKPOINT_V2.read_text(encoding="utf-8"))
    blob.update(format_version=1, gate={"bias": -0.08, "c": 1.0, "weights": [-0.13, 0.14]})
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(blob, sort_keys=True, separators=(",", ":")), encoding="utf-8")
    code = cli.main(["eval", "--checkpoint", str(path), "--data", str(tmp_path),
                     "--out", str(tmp_path / "r.json")])
    assert (code, capsys.readouterr().err) == (1, "error: checkpoint format 1 not supported\n")


@st.composite
def mutated_checkpoint(draw):
    """The v2 checkpoint with one value replaced, or one key or item dropped."""
    blob = json.loads(CHECKPOINT_V2.read_text(encoding="utf-8"))
    node = blob
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        return json.dumps(blob).encode()


@st.composite
def spliced_checkpoint(draw):
    """The v2 checkpoint's bytes with a short run replaced by arbitrary bytes."""
    raw = CHECKPOINT_V2.read_bytes()
    start = draw(st.integers(0, len(raw)))
    stop = draw(st.integers(start, min(len(raw), start + 8)))
    return raw[:start] + draw(st.binary(max_size=8)) + raw[stop:]


def array_paths(node, path=()):
    """Key paths to every JSON array in node, at any depth."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        yield path
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from array_paths(child, (*path, key))


@st.composite
def array_item_replaced(draw):
    """The v2 checkpoint with one item of one of its arrays (a weight row, a
    bias, a class id, a split point...) replaced by a scalar or a short list."""
    blob = json.loads(CHECKPOINT_V2.read_text(encoding="utf-8"))
    node = blob
    for key in draw(st.sampled_from(list(array_paths(blob)))):
        node = node[key]
    node[draw(st.integers(0, len(node) - 1))] = draw(
        json_scalars | st.lists(json_scalars, max_size=3))
    return json.dumps(blob).encode()


CHECKPOINT_FUZZ = {"bytes": st.binary(max_size=200), "json": json_values.map(
    lambda o: json.dumps(o).encode()), "mutated": mutated_checkpoint(),
    "spliced": spliced_checkpoint()}


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("content", sorted(CHECKPOINT_FUZZ))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_load_raises_only_value_error_and_eval_exits_one(self, tiny_env, tmp_path,
                                                             content, data):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(data.draw(CHECKPOINT_FUZZ[content]))
        try:
            cli.load_checkpoint(path)
        except ValueError as exc:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["eval", "--checkpoint", str(path), "--data",
                                 tiny_env["data"], "--out", str(tmp_path / "r.json")])
            assert code == 1
            assert err.getvalue() == f"error: {exc}\n"

    @pytest.mark.parametrize("command", ["eval", "export-latents"])
    @pytest.mark.parametrize("content", ["[" * 100_000, '{"a": ' * 100_000],
                             ids=["arrays", "objects"])
    def test_deep_nesting_exits_one_with_one_line(self, tiny_env, tmp_path, capsys,
                                                  command, content):
        path = tmp_path / "checkpoint.json"
        path.write_text(content, encoding="utf-8")
        code = cli.main([command, "--checkpoint", str(path), "--data", tiny_env["data"],
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint: not valid JSON (maximum recursion")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("content", ["mutated", "array-item"])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_arrays_converted_while_parsing_decode_as_lists_do(self, tmp_path, content, data):
        # the reference reads the whole tree of plain lists, as _from_json alone did
        path = tmp_path / "checkpoint.json"
        strategy = mutated_checkpoint() if content == "mutated" else array_item_replaced()
        path.write_bytes(data.draw(strategy))
        outcomes = []
        for hook in (cli._float_arrays, lambda obj: obj):
            with unittest.mock.patch.object(cli, "_float_arrays", hook):
                try:
                    outcomes.append("".join(cli._compact_json_pieces(cli.load_checkpoint(path))))
                except ValueError as exc:
                    outcomes.append(f"ValueError: {exc}")
        assert outcomes[0] == outcomes[1]

    def test_without_enhancement_loads_none(self, tmp_path):
        blob = json.loads(CHECKPOINT_V2.read_text(encoding="utf-8"))
        blob["featurizer"]["enhancement"] = None
        path = tmp_path / "off.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert cli.load_checkpoint(path).featurizer.enhancement is None

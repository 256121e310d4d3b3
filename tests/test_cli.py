"""Command line layer: config parsing and hashing, component wiring,
checkpoint codec, transform self checks, and the subcommands end to end
through main() on a miniature generated benchmark."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqzsl import cli, crossvae, frequency, pipeline, synthbench
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

    def test_bundled_tuned_file_matches_helper(self):
        cfg = cli.parse_config(REPO / "configs" / "synth-tuned.cfg")
        assert cfg == cli.tuned_synth_config()


class TestRunConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"enhance_mode": "spline"},
        {"align_loss": "t9"},
        {"latent_dim": 0},
        {"batch_size": 0},
        {"band_size": 0},
        {"stage2_epochs": -1},
        {"gate_holdout": 0.0},
        {"gate_holdout": 1.0},
        {"bench_seeds": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_zero_epochs_allowed(self):
        assert RunConfig(stage2_epochs=0).stage2_epochs == 0


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
        {"gate_holdout": 0.3},
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
        cfg = RunConfig(synth_low_band_start=2, synth_low_band_stop=6, seed=9)
        sc = cli.make_synth_config(cfg)
        assert sc.low_band == (2, 3, 4, 5)
        assert sc.seed == 9
        assert sc.n_classes == cfg.synth_classes
        assert sc.label_noise_rate == cfg.synth_label_noise

    def test_make_synth_config_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            cli.make_synth_config(RunConfig(synth_proto_rank=0))

    def test_featurizer_for_sequences_enhances_frame_axis(self):
        cfg = cli.parse_config(write_cfg(Path("/tmp") / "t.cfg", TINY_LINES))
        gen = synthbench.generate(cli.make_synth_config(cfg))
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
            cli.make_loss_config(RunConfig(temperature=-1.0))


class TestSelfChecks:
    def test_all_pass_by_default(self):
        rows = cli.dct_self_checks(seed=0)
        assert [r[0] for r in rows] == [
            "round-trip", "parseval", "orthonormality",
            "energy-redistribution", "identity-enhancement"]
        assert all(passed for _, _, _, passed in rows)
        for _, err, tol, _ in rows:
            assert 0.0 <= err < tol

    def test_corrupt_basis_fails(self):
        rows = cli.dct_self_checks(seed=0, corrupt_basis=True)
        assert not all(passed for _, _, _, passed in rows)

    def test_command_exit_codes(self, capsys):
        assert cli.main(["dct-check"]) == 0
        assert "PASS round-trip" in capsys.readouterr().out
        assert cli.main(["dct-check", "--corrupt-basis"]) == 1
        assert "FAIL" in capsys.readouterr().out


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
        # gate operates on the (top-1 prob, entropy) summary pair
        assert model.gate.weights.shape == (2,)

    def test_checkpoint_json_shape(self, trained):
        blob = json.loads(Path(trained["checkpoint"]).read_text())
        assert blob["format_version"] == cli.CHECKPOINT_VERSION
        assert set(blob) >= {"config_hash", "vae", "featurizer",
                            "unseen_classifier", "seen_classifier", "gate"}
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
        (lambda blob: blob["gate"].update(bias="0.5"),
         "checkpoint.gate.bias must be a JSON number, not string"),
        (lambda blob: blob["featurizer"]["enhancement"].pop("ramp"),
         "checkpoint.featurizer.enhancement has no key 'ramp'"),
        (lambda blob: blob["vae"].update(latent_dim=3), "checkpoint.vae: "),
        (lambda blob: blob["seen_classifier"].update(weights=[[1.0], "x"]),
         "checkpoint.seen_classifier: "),
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

    def test_export_latents(self, trained, capsys):
        out = trained["root"] / "latents.csv"
        code = cli.main(["export-latents", "--checkpoint", trained["checkpoint"],
                         "--data", trained["data"], "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sample_id,class_id,z0")
        assert len(lines) == 1 + 5 * 6

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

    def test_unknown_bench_loss_is_config_error(self, tiny_env, capsys):
        code = cli.main(["loss-bench", "--config", tiny_env["cfg"],
                         "--loss", "huber", "--out",
                         str(tiny_env["root"] / "x")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

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

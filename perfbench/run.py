"""freqzsl benchmark: closed-loop training workloads driven through `cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload train-seq --seed 1 --seconds 45 --trace 0

One process, one caller: each operation starts after the previous one
returns. With `--trace 0` the operations run on the unwrapped program and
the end-to-end metrics are reported. With `--trace 1` untraced and traced
operations alternate, and the per-layer metrics come from the traced ones
(see tracing.py). Human-readable lines go to stdout first; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. Everything
the run writes goes under `.bench_work/` in the repository root and is
removed at the end. See README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
TUNED_CONFIG = ROOT / "configs" / "synth-tuned.cfg"
WORK_ROOT = ROOT / ".bench_work"

# Stage-2 epochs of every training run: 150 train-seen records at batch 64
# give 3 steps per epoch. It sets the run length and stays fixed across
# commits so that runs of two commits compare like with like. Below about
# 300 steps, unseen accuracy still swings from seed to seed.
STAGE2_EPOCHS = 100
SETUP_REPS = 7       # set-up is repeated and its median reported
MIN_OPS = 3          # a run times at least this many operations

# workload -> whether the benchmark flattens the sequences into vector records
WORKLOADS = {"train-seq": False, "train-vec": True}

# read-side metrics, taken from the traced check eval that follows the loop
EVAL_SIDE = ("pipeline.evaluate_gzsl.ms", "pipeline.export_latents.ms",
             "cli.load_checkpoint.ms")


class CheckFailed(Exception):
    """An operation returned but its outputs are wrong."""


def load_program():
    sys.path.insert(0, str(ROOT / "src"))
    from freqzsl import (cli, crossvae, frequency, losses, numkit, pipeline,
                         semantics, synthbench)
    return {"cli": cli, "crossvae": crossvae, "frequency": frequency, "losses": losses,
            "numkit": numkit, "pipeline": pipeline, "semantics": semantics,
            "synthbench": synthbench}


def run_cli(mods, argv):
    """cli.main with its console output swallowed; nonzero exit is a failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = mods["cli"].main(argv)
    if code != 0:
        raise CheckFailed(f"freqzsl {argv[0]} exited with {code}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---- inputs ----


def write_config(path: Path) -> None:
    """The tuned recipe with the benchmark's stage-2 epoch count."""
    lines = [line for line in TUNED_CONFIG.read_text(encoding="utf-8").splitlines()
             if line.split("#", 1)[0].split("=", 1)[0].strip() != "stage2_epochs"]
    lines.append(f"stage2_epochs = {STAGE2_EPOCHS}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def flatten_to_vectors(data: Path) -> None:
    """Rewrite features.jsonl with each sequence flattened (C order) to a vector."""
    src = data / "features.jsonl"
    tmp = data / "features.vec.jsonl"
    with open(src, encoding="utf-8") as fin, open(tmp, "w", encoding="utf-8") as fout:
        for line in fin:
            obj = json.loads(line)
            seq = obj.pop("sequence")
            obj["vector"] = [v for joint in seq for coord in joint for v in coord]
            fout.write(json.dumps(obj, sort_keys=True) + "\n")
    tmp.replace(src)


def setup_once(mods, cfg: Path, seed: int, data: Path, vectors: bool,
               tracer: tracing.Tracer | None = None) -> None:
    """`freqzsl synth` into data, then the workload's own rewrite of it."""
    synth = ["synth", "--config", str(cfg), "--seed", str(seed), "--out", str(data)]
    with tracer if tracer is not None else contextlib.nullcontext():
        run_cli(mods, synth)
    if vectors:
        flatten_to_vectors(data)


# ---- the operation and the output checks ----


class TrainOp:
    """`freqzsl train`; every run with one seed must write the same bytes."""

    def __init__(self, mods, cfg: Path, seed: int, data: Path, work: Path):
        self.mods, self.cfg, self.seed, self.data = mods, cfg, seed, data
        self.out = work / "train-out"
        self.checkpoint = self.out / "checkpoint.json"
        self.reference = None

    def run(self) -> None:
        run_cli(self.mods, ["train", "--config", str(self.cfg), "--seed", str(self.seed),
                            "--data", str(self.data), "--out", str(self.out)])

    def check(self) -> None:
        digest = sha256(self.checkpoint)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            raise CheckFailed("checkpoint.json differs between runs with one seed")
        rows = json.loads((self.out / "loss_log.json").read_text(encoding="utf-8"))["epochs"]
        if len(rows) != STAGE2_EPOCHS:
            raise CheckFailed(f"loss log has {len(rows)} rows, want {STAGE2_EPOCHS}")
        for row in rows:
            if not all(math.isfinite(v) for v in row.values()):
                raise CheckFailed(f"non-finite loss in epoch {row.get('epoch')}")


def check_eval(mods, data: Path, checkpoint: Path, work: Path,
               tracer: tracing.Tracer | None = None) -> tuple[dict, float]:
    """`freqzsl eval --mode gzsl` and `export-latents` on a checkpoint, checked
    against an in-process evaluation of the same files. Returns the report's
    accuracies and the wall time of the two commands."""
    report, latents = work / "report.json", work / "latents.csv"
    start = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        run_cli(mods, ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                       "--mode", "gzsl", "--out", str(report)])
        run_cli(mods, ["export-latents", "--checkpoint", str(checkpoint),
                       "--data", str(data), "--out", str(latents)])
    seconds = time.perf_counter() - start

    cli, pipeline = mods["cli"], mods["pipeline"]
    model = cli.load_checkpoint(checkpoint)
    dataset = pipeline.load_feature_file(data / "features.jsonl")
    seen = dataset.by_partition("test-seen")
    unseen = dataset.by_partition("test-unseen")
    gzsl = pipeline.evaluate_gzsl(model.vae, model.featurizer, model.gate, model.seen_clf,
                                  model.unseen_clf, seen, unseen)
    want = {"zsl_accuracy": pipeline.evaluate_zsl(model.vae, model.featurizer,
                                                  model.unseen_clf, unseen),
            "seen_accuracy": gzsl.seen_accuracy, "unseen_accuracy": gzsl.unseen_accuracy,
            "harmonic": gzsl.harmonic}
    rep = json.loads(report.read_text(encoding="utf-8"))
    got = {k: rep[k] for k in want}
    if got != want:
        raise CheckFailed(f"eval report {got} != in-process evaluation {want}")
    with open(latents, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(dataset.records):
        raise CheckFailed(f"export-latents wrote {rows} rows for {len(dataset.records)} records")
    return got, seconds


# ---- statistics ----


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def describe(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.4f} {unit}" if t else "tail n/a (<11 samples)"
    return f"{name:<14} median {med:.4f} {unit:<8} {tail_text}  n={len(values)}"


# ---- provenance ----


def blas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, or None if it cannot be asked."""
    import numpy
    for path in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(mods, workload: str, seed: int, run_cfg, data: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    counts: dict[str, int] = {}
    with open(data / "features.jsonl", encoding="utf-8") as fh:
        for line in fh:
            part = json.loads(line)["partition"]
            counts[part] = counts.get(part, 0) + 1
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "workload": workload, "seed": seed,
        "config_hash": mods["cli"].config_hash(run_cfg),
        "stage2_epochs": run_cfg.stage2_epochs, "records": counts,
    }


# ---- per-layer metrics from spans ----


def layer_metrics(spans, batches_drawn: int, n_params: int, layer_sizes,
                  batch_size: int, checkpoint: Path | None) -> dict[str, float]:
    """One traced operation's per-layer numbers (units in PER_LAYER_UNITS)."""
    selfs = tracing.self_times(spans)
    in_s2 = tracing.within(spans, "pipeline.run_stage2")
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    s2_total: dict[str, float] = {}
    s2_self: dict[str, float] = {}
    steps = 0
    for s, self_t, inside in zip(spans, selfs, in_s2):
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + dur
        self_total[s.name] = self_total.get(s.name, 0.0) + self_t
        if inside:
            s2_total[s.name] = s2_total.get(s.name, 0.0) + dur
            s2_self[s.name] = s2_self.get(s.name, 0.0) + self_t
            steps += s.name == "crossvae.stage2_loss"

    def per_step(name, table=s2_total):
        return 1e3 * table.get(name, 0.0) / steps if steps else 0.0

    def ms(name, table=total):
        return 1e3 * table.get(name, 0.0)

    # computed kernel counts: 2*B*in*out flops per affine layer forward,
    # twice that backward (weight grad and input grad); Adam's compulsory
    # traffic reads p, g, m, v and writes p, m, v (7 float64 per parameter)
    flops = 6 * batch_size * sum(
        a * b for sizes, uses in layer_sizes for a, b in zip(sizes[:-1], sizes[1:])
        for _ in range(uses)) if steps else 0
    return {
        "numkit.mlp_forward.ms_per_step": per_step("numkit.mlp_forward"),
        "numkit.mlp_backward.ms_per_step": per_step("numkit.mlp_backward"),
        "numkit.adam_step.ms_per_step": per_step("numkit.adam_step"),
        "numkit.adam_step.params": n_params if steps else 0,
        "numkit.adam_step.bytes_per_step": 7 * 8 * n_params if steps else 0,
        "numkit.check_finite.calls": calls.get("numkit.check_finite", 0),
        "numkit.mlp_forward.ms": ms("numkit.mlp_forward"),
        "frequency.enhance_sequence_with_cache.ms_per_step":
            per_step("frequency.enhance_sequence_with_cache"),
        "frequency.enhance_weight_grads.ms_per_step": per_step("frequency.enhance_weight_grads"),
        "frequency.weights_from_raw.calls": calls.get("frequency.weights_from_raw", 0),
        "frequency.calls": sum(c for name, c in calls.items() if name.startswith("frequency.")),
        "losses.alignment_loss.ms_per_step": per_step("losses.alignment_loss"),
        "losses.elbo.ms_per_step": per_step("losses.elbo"),
        "losses.sample_negatives.ms_per_step": per_step("losses.sample_negatives"),
        "crossvae.stage2_loss.ms_per_step": per_step("crossvae.stage2_loss"),
        "crossvae.stage2_loss.self_ms_per_step": per_step("crossvae.stage2_loss", s2_self),
        "crossvae.stage2_loss.matmul_flops_per_step": flops,
        "crossvae.sample_class_latents.ms": ms("crossvae.sample_class_latents"),
        "pipeline.run_stage2.step_ms": ms("pipeline.run_stage2") / steps if steps else 0.0,
        "pipeline.run_stage2.self_ms_per_step":
            ms("pipeline.run_stage2", self_total) / steps if steps else 0.0,
        "pipeline.run_stage2.steps": steps,
        "pipeline.run_stage2.useful_ratio": steps / batches_drawn if steps else 0.0,
        "pipeline.featurize.self_ms_per_step": per_step("pipeline.featurize", s2_self),
        "pipeline.featurize.ms": ms("pipeline.featurize"),
        "pipeline.synthesize_unseen_classifier.ms": ms("pipeline.synthesize_unseen_classifier"),
        "pipeline.train_seen_classifier.ms": ms("pipeline.train_seen_classifier"),
        "pipeline.train_gate.ms": ms("pipeline.train_gate"),
        "pipeline.load_feature_file.ms": ms("pipeline.load_feature_file"),
        "pipeline.evaluate_gzsl.ms": ms("pipeline.evaluate_gzsl"),
        "pipeline.export_latents.ms": ms("pipeline.export_latents"),
        "semantics.load_embeddings.ms": ms("semantics.load_embeddings"),
        "semantics.fuse_all.calls": calls.get("semantics.fuse_all", 0),
        "cli.save_checkpoint.ms": ms("cli.save_checkpoint"),
        "cli.save_checkpoint.bytes": checkpoint.stat().st_size
        if calls.get("cli.save_checkpoint") else 0,
        "cli.load_checkpoint.ms": ms("cli.load_checkpoint"),
        "cli.write_loss_log.ms": ms("cli.write_loss_log"),
        "cli.train_full.self_ms": ms("cli.train_full", self_total),
    }


def model_shapes(checkpoint: Path, trains_weights: bool):
    """(parameter count, [(layer sizes, forward uses per stage-2 step)]) of a checkpoint."""
    ck = json.loads(checkpoint.read_text(encoding="utf-8"))
    vae = ck["vae"]
    n_params = 0
    shapes = []
    # stage2_loss runs each encoder once and each decoder twice (self and cross)
    for net, uses in (("skel_encoder", 1), ("text_encoder", 1),
                      ("skel_decoder", 2), ("text_decoder", 2)):
        ws = vae[net]["weights"]
        sizes = [len(ws[0][0])] + [len(w) for w in ws]
        shapes.append((sizes, uses))
        n_params += sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    enh = ck["featurizer"]["enhancement"]
    if trains_weights and enh is not None:
        n_params += len(enh["weights"])
    return n_params, shapes


PER_LAYER_UNITS = {  # by the last part of the metric name
    "ms": "ms", "ms_per_step": "ms", "self_ms_per_step": "ms", "step_ms": "ms",
    "self_ms": "ms", "calls": "count", "steps": "count", "params": "count",
    "bytes": "bytes", "bytes_per_step": "bytes", "matmul_flops_per_step": "flop",
    "useful_ratio": "fraction", "overhead_pct": "%"}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def traced_metrics(run_cfg, prov: dict, op: TrainOp, plain, traced, span_sets,
                   setup_tracer, eval_tracer) -> dict:
    """Medians over the traced operations, plus the spans of the traced set-up
    and check eval, and the tracing overhead."""
    batches = run_cfg.stage2_epochs * -(-prov["records"]["train-seen"] // run_cfg.batch_size)
    n_params, shapes = model_shapes(op.checkpoint, run_cfg.train_weights)
    per_op = [layer_metrics(spans, batches, n_params, shapes, run_cfg.batch_size,
                            op.checkpoint) for spans in span_sets]
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    eval_side = layer_metrics(eval_tracer.spans, 0, 0, [], 0, None)
    values.update((name, eval_side[name]) for name in EVAL_SIDE)
    for name in ("synthbench.generate", "synthbench.write_benchmark"):
        values[f"{name}.ms"] = 1e3 * sum(s.end - s.start for s in setup_tracer.spans
                                         if s.name == name)
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


# ---- loops ----


def time_left(start: float, seconds: float, last: float) -> bool:
    """Would another round, as long as the last one, end within `seconds`?"""
    return time.perf_counter() - start + last <= seconds


def measure(op, seconds: float) -> tuple[list[float], int, int, list[str]]:
    """Closed loop: time op.run(), check outputs, repeat until `seconds` pass."""
    times, errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time_left(start, seconds, times[-1] if times else 0.0):
        attempted += 1
        try:
            t0 = time.perf_counter()
            op.run()
            times.append(time.perf_counter() - t0)
            op.check()
        except Exception as exc:  # every failure is counted, none stops the loop
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
    return times, attempted, failed, errors


def traced_loop(mods, op, seconds: float, methods):
    """Alternate untraced and traced operations; return both timings and spans."""
    plain, traced, span_sets, errors = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < 2 * MIN_OPS or time_left(
            start, seconds, plain[-1] + traced[-1] if plain and traced else 0.0):
        for use_tracer in (False, True):
            attempted += 1
            tracer = tracing.Tracer(mods.values(), methods) if use_tracer else None
            try:
                t0 = time.perf_counter()
                with tracer if tracer is not None else contextlib.nullcontext():
                    op.run()
                (traced if tracer else plain).append(time.perf_counter() - t0)
                op.check()
                if tracer is not None:
                    span_sets.append(tracer.spans)
            except Exception as exc:  # every failure is counted, none stops the loop
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
    return plain, traced, span_sets, attempted, failed, errors


# ---- main ----


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":  # one process per workload, so peak RSS is its own
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if not TUNED_CONFIG.is_file():
        print(f"error: {TUNED_CONFIG.relative_to(ROOT)} not found; run from a "
              "freqzsl checkout", file=sys.stderr)
        return 2
    try:
        mods = load_program()
    except ImportError as exc:
        print(f"error: cannot import freqzsl from src/: {exc}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run_workload(mods, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def run_workload(mods, args, work: Path) -> int:
    """Set up, run the closed loop, check, print the report; returns the exit code."""
    cfg = work / "run.cfg"
    write_config(cfg)
    run_cfg = mods["cli"].parse_config(cfg)
    vectors = WORKLOADS[args.workload]
    setup_tracer = tracing.Tracer(mods.values()) if args.trace else None

    setup_times, digests = [], set()
    for rep in range(1 if args.trace else SETUP_REPS):
        data = work / f"data{rep}"
        t0 = time.perf_counter()
        setup_once(mods, cfg, args.seed, data, vectors, setup_tracer)
        setup_times.append(time.perf_counter() - t0)
        digests.add(sha256(data / "features.jsonl"))
    prov = provenance(mods, args.workload, args.seed, run_cfg, data)
    print("provenance " + json.dumps(prov, sort_keys=True))

    op = TrainOp(mods, cfg, args.seed, data, work)
    methods = {(mods["pipeline"].SkeletonFeaturizer, "features_with_cache"):
               "pipeline.featurize"}
    if args.trace:
        plain, traced, span_sets, attempted, failed, errors = traced_loop(
            mods, op, args.seconds, methods)
        times = plain
    else:
        times, attempted, failed, errors = measure(op, args.seconds)
    if len(digests) != 1:
        errors.append("set-up repetitions wrote different features.jsonl")

    eval_tracer = tracing.Tracer(mods.values(), methods) if args.trace else None
    try:
        acc, eval_s = check_eval(mods, data, op.checkpoint, work, eval_tracer)
    except Exception as exc:  # reported through "correct", not raised
        errors.append(f"check eval: {type(exc).__name__}: {exc}")
        acc = None
    correct = not errors

    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, "
          f"blas_threads={prov['blas_threads']}")
    if times:
        print(describe("op_s (train_s)", "s", times))
    print(describe("setup_s", "s", setup_times))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if acc is not None:
        print(f"{'eval_s':<14} {eval_s:.4f} s (the one check eval; not a gated metric)")
        print(f"{'zsl_acc':<14} {acc['zsl_accuracy']:.4f} fraction")
        print(f"{'gzsl_h':<14} {acc['harmonic']:.4f} fraction "
              f"(seen {acc['seen_accuracy']:.4f}, unseen {acc['unseen_accuracy']:.4f})")
    print(f"{'peak_rss_mb':<14} {rss_mb:.1f} MB")
    print(f"{'fail_ratio':<14} {failed / attempted:.4f} fraction "
          f"({failed} of {attempted} operations)")
    for err in errors:
        print(f"FAILED: {err}")

    if args.trace:
        metrics = traced_metrics(run_cfg, prov, op, plain, traced, span_sets,
                                 setup_tracer, eval_tracer)
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "op_s": {"value": statistics.median(times) if times else float("nan"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "zsl_acc": {"value": acc["zsl_accuracy"] if acc else float("nan"),
                        "unit": "fraction"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

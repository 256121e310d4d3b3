"""Dataset contracts and the three trainable stages behind zero-shot and
generalized zero-shot evaluation.

Data flows in as line-delimited feature records (either a pre-extracted
vector or a raw joints x coords x frames sequence per sample), a semantic
embedding file, and a seen/unseen class split. Stage 2 jointly trains the
twin VAEs and the frequency-band weights on seen-class batches. Stage 3
trains a softmax classifier over unseen classes purely from latents sampled
out of each unseen class's text posterior. Stage 4 trains a seen-class
softmax classifier on the skeleton latent means of every train-seen record.
GZSL evaluation routes each test sample to whichever head is the more
confident: the seen head when its top-1 probability is at least the unseen
head's, the unseen head otherwise.

Split hygiene is enforced, not assumed: training touches only train-seen
records, and no unseen class id can enter a training batch.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import crossvae, frequency, losses, numkit, semantics
from .numkit import Array

if TYPE_CHECKING:
    from .cli import RunConfig

PARTITIONS = ("train-seen", "test-seen", "test-unseen")


# ---- records, datasets, splits ----


class FeatureFormatError(ValueError):
    """Raised when a feature or split file violates its schema."""


@dataclass(frozen=True)
class FeatureRecord:
    """One sample: either a feature vector or a raw motion sequence."""

    sample_id: str
    class_id: int
    partition: str
    vector: Array | None = None
    sequence: Array | None = None

    def __post_init__(self) -> None:
        if self.partition not in PARTITIONS:
            raise FeatureFormatError(
                f"sample {self.sample_id!r}: unknown partition {self.partition!r}")
        if (self.vector is None) == (self.sequence is None):
            raise FeatureFormatError(
                f"sample {self.sample_id!r}: need exactly one of vector/sequence")
        arr = np.asarray(self.payload, dtype=np.float64)
        if self.vector is not None and arr.ndim != 1:
            raise FeatureFormatError(f"sample {self.sample_id!r}: vector must be 1-D")
        if self.sequence is not None and arr.ndim != 3:
            raise FeatureFormatError(
                f"sample {self.sample_id!r}: sequence must be joints x coords x frames")
        if not arr.size:
            raise FeatureFormatError(
                f"sample {self.sample_id!r}: {self.kind} of shape {arr.shape} holds no values")

    @property
    def kind(self) -> str:
        return "vector" if self.vector is not None else "sequence"

    @property
    def payload(self) -> Array:
        return self.vector if self.vector is not None else self.sequence


@dataclass
class FeatureDataset:
    """Homogeneous list of records (all vectors or all sequences, one shape)."""

    records: list[FeatureRecord]

    def __post_init__(self) -> None:
        if not self.records:
            raise FeatureFormatError("dataset holds no records")
        kinds = {r.kind for r in self.records}
        if len(kinds) != 1:
            raise FeatureFormatError("dataset mixes vector and sequence records")
        shapes = {np.shape(r.payload) for r in self.records}
        if len(shapes) != 1:
            raise FeatureFormatError(f"records disagree on shape: {sorted(shapes)}")
        ids = [r.sample_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise FeatureFormatError("duplicate sample ids")

    @property
    def kind(self) -> str:
        return self.records[0].kind

    @property
    def payload_shape(self) -> tuple[int, ...]:
        return np.shape(self.records[0].payload)

    def by_partition(self, name: str) -> list[FeatureRecord]:
        if name not in PARTITIONS:
            raise ValueError(f"unknown partition {name!r}")
        return [r for r in self.records if r.partition == name]


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint seen/unseen class id sets."""

    seen: tuple[int, ...]
    unseen: tuple[int, ...]

    def __post_init__(self) -> None:
        seen, unseen = set(self.seen), set(self.unseen)
        if len(seen) != len(self.seen) or len(unseen) != len(self.unseen):
            raise ValueError("duplicate class ids inside a split group")
        if seen & unseen:
            raise ValueError(f"classes in both groups: {sorted(seen & unseen)}")
        if not seen or not unseen:
            raise ValueError("both split groups must be non-empty")


def validate_split(dataset: FeatureDataset, split: SplitSpec) -> None:
    """Enforce split hygiene over a dataset's partitions. Every partition
    belongs to one group, so once this passes every dataset class is in
    the split, and train-seen holds seen classes only."""
    seen, unseen = set(split.seen), set(split.unseen)
    for rec in dataset.records:
        if rec.partition in ("train-seen", "test-seen") and rec.class_id not in seen:
            raise ValueError(
                f"sample {rec.sample_id!r}: class {rec.class_id} in {rec.partition} "
                "is not a seen class")
        if rec.partition == "test-unseen" and rec.class_id not in unseen:
            raise ValueError(
                f"sample {rec.sample_id!r}: class {rec.class_id} in test-unseen "
                "is not an unseen class")


# ---- file formats ----


def load_feature_file(path) -> FeatureDataset:
    """The records semantics.write_lines writes, each with one payload key."""
    records = []
    for where, obj in semantics.read_lines(path, FeatureFormatError):
        if type(obj) is dict:  # a record holds one payload key; the other reads as null
            obj.setdefault("vector", None)
            obj.setdefault("sequence", None)
        records.append(semantics.decode(FeatureRecord, obj, where, FeatureFormatError))
    return FeatureDataset(records)


def write_split_file(path, split: SplitSpec, config_hash: str) -> None:
    semantics.write_json(path, {"seen": sorted(int(c) for c in split.seen),
                                "unseen": sorted(int(c) for c in split.unseen),
                                "config_hash": config_hash})


def load_split_file(path) -> SplitSpec:
    with open(path, "rb") as fh:
        obj = semantics.parse_json(fh, "split file", FeatureFormatError)
    return semantics.decode(SplitSpec, obj, "split file", FeatureFormatError)


# ---- skeleton featurizer ----


@dataclass(frozen=True)
class SkeletonFeaturizer:
    """Turns records into the flat feature block the skeleton encoder consumes.

    Sequences are band-enhanced over the temporal axis and flattened.
    Vector records pass through unchanged unless enhance_vectors is set, in
    which case the same band logic runs over the feature axis.
    """

    enhancement: frequency.EnhancementConfig | None = None
    enhance_vectors: bool = False

    def _enhances(self, block: Array) -> bool:
        return self.enhancement is not None and (block.ndim == 4 or self.enhance_vectors)

    def spectrum(self, records: Sequence[FeatureRecord]) -> Array:
        """Stacked payloads, moved to DCT coefficients when this featurizer enhances them.

        Only the band weights change during training, so a trainer takes this
        once and maps rows of it through from_spectrum on every batch.
        """
        block = np.stack([np.asarray(r.payload, dtype=np.float64) for r in records])
        return frequency.dct_forward(block) if self._enhances(block) else block

    def from_spectrum(self, coeffs: Array, gains: Array | None = None) -> Array:
        """(N, d) feature block from a spectrum() block or rows of one.

        gains, per-coefficient g, stands in for the profile of the
        enhancement's own weights; a trainer passes the current step's.
        """
        if self._enhances(coeffs):
            if gains is None:
                gains = frequency.scaling_profile(self.enhancement)[0]
            coeffs = frequency.idct(frequency.enhance(coeffs, gains))
        return coeffs.reshape(coeffs.shape[0], -1)

    def features_with_cache(self, records: Sequence[FeatureRecord]) -> tuple[Array, Array]:
        """(N, d) feature block plus its spectrum; the benchmark traces this by name."""
        coeffs = self.spectrum(records)
        return self.from_spectrum(coeffs), coeffs

    def features(self, records: Sequence[FeatureRecord]) -> Array:
        return self.features_with_cache(records)[0]

    def with_weights(self, weights) -> "SkeletonFeaturizer":
        if self.enhancement is None:
            raise ValueError("featurizer has no enhancement to reweight")
        return replace(self, enhancement=self.enhancement.with_weights(weights))


# ---- softmax classifiers ----


@dataclass
class SoftmaxClassifier:
    """Linear softmax head; class_ids maps row indices back to class labels."""

    class_ids: tuple[int, ...]
    weights: Array
    bias: Array

    def __post_init__(self) -> None:
        k = len(self.class_ids)
        if len(set(self.class_ids)) != k:
            raise ValueError(f"class_ids must be distinct, got {list(self.class_ids)}")
        if np.ndim(self.weights) != 2 or len(self.weights) != k or np.shape(self.bias) != (k,):
            raise ValueError(f"{k} class ids need {k} weight rows and {k} biases, got weights "
                             f"{np.shape(self.weights)} and bias {np.shape(self.bias)}")

    def predict_proba(self, latents: Array) -> Array:
        z = self.weights @ np.asarray(latents, dtype=np.float64).T
        z += self.bias[:, None]
        return softmax_classes(z).T

    def predict(self, latents: Array) -> Array:
        idx = np.argmax(self.predict_proba(np.atleast_2d(latents)), axis=-1)
        return np.asarray(self.class_ids)[idx]


def softmax_classes(z: Array) -> Array:
    """Softmax of (K, n) logits down the class axis, in place: n-wide reductions."""
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def train_softmax_classifier(latents: Array, labels: Array,
                             class_ids: Sequence[int], *, epochs: int,
                             lr: float) -> SoftmaxClassifier:
    """Full-batch Adam on mean cross-entropy from a zero init (convex problem)."""
    class_ids = tuple(int(c) for c in class_ids)
    x = np.asarray(latents, dtype=np.float64)
    index = {c: i for i, c in enumerate(class_ids)}
    try:
        y = np.asarray([index[int(l)] for l in labels])
    except KeyError as exc:
        raise ValueError(f"label {exc} missing from class_ids") from exc
    n, d = x.shape
    k = len(class_ids)
    onehot = np.zeros((k, n))
    onehot[y, np.arange(n)] = 1.0
    flat, (w, b) = numkit.flatten([np.zeros((k, d)), np.zeros(k)])
    grad, (g_w, g_b) = numkit.flatten([w, b])
    opt = numkit.AdamState(lr=lr)
    for _ in range(epochs):
        diff = (softmax_classes(w @ x.T + b[:, None]) - onehot) / n
        np.matmul(diff, x, out=g_w)
        np.sum(diff, axis=1, out=g_b)
        try:
            numkit.adam_step(opt, flat, grad)
        except ValueError as exc:
            raise ValueError(f"classifier {exc}") from exc
    # an Adam overflow leaves a weight non-finite, which fails the next epoch's check
    # or, after the last epoch, this one
    numkit.check_finite("classifier weights", flat)
    return SoftmaxClassifier(class_ids, w, b)


# ---- stage 2: joint VAE + band-weight training ----

def encode_latent_means(params: crossvae.VaeParams, featurizer: SkeletonFeaturizer,
                        records: Sequence[FeatureRecord]) -> Array:
    """Posterior means of the skeleton encoder for a record list."""
    if not records:
        raise ValueError("no records to encode")
    return crossvae.posterior(params, "skel_encoder", featurizer.features(records))[0]


def stage2_gradient(params: crossvae.VaeParams, raw: Array | None,
                    featurizer: SkeletonFeaturizer, rows: Array, text: Array, labels: Array,
                    negatives: Array, eps_s: Array, eps_t: Array, cfg: RunConfig,
                    grads: crossvae.VaeParams, grad_raw: Array | None) -> dict:
    """The stage-2 loss breakdown of one batch, and its whole gradient.

    raw holds the unconstrained band weights when they train, and rows the
    batch's rows of featurizer.spectrum(); else raw is None and rows are rows
    of its features. text holds their fused text features, and negatives,
    eps_s and eps_t their frozen draws. Every array of grads, shaped like
    params, is overwritten, and so is grad_raw, shaped like raw, when raw is
    given. The weights' gradient is the chain dL/dw * w * (1 - w)
    through the sigmoid squash: the current weights give g and dg/dw by
    frequency.scaling_profile, and frequency.enhance_weight_grads moves the
    feature gradient back to the bands. run_stage2 hands this gradient to
    Adam, and tests check it against finite differences of the "total".
    """
    if raw is not None:
        w = frequency.weights_from_raw(raw)
        g, dgdw, band_index = frequency.scaling_profile(featurizer.enhancement, w)
    f_s = rows if raw is None else featurizer.from_spectrum(rows, g)
    breakdown, d_f_s = crossvae.stage2_loss(params, f_s, text, labels, negatives, eps_s,
                                            eps_t, cfg, grads, feature_grads=raw is not None)
    if raw is not None:
        d_w = frequency.enhance_weight_grads(rows, d_f_s, dgdw, band_index)
        np.multiply(d_w * w, 1.0 - w, out=grad_raw)
    return breakdown


def run_stage2(dataset: FeatureDataset, table: semantics.SemanticTable,
               split: SplitSpec, featurizer: SkeletonFeaturizer,
               cfg: RunConfig, rng: np.random.Generator):
    """Jointly train the twin VAEs and (if enhancing and cfg.train_weights)
    the band weights, with cfg's stage-2 schedule, network sizes and loss.

    Returns (params, featurizer, loss_log): the featurizer carries the final
    trained weights, and loss_log has one row of batch-mean scalars per
    epoch. Zero epochs return the freshly initialized parameters untouched.
    A batch holding a single class is skipped (the alignment loss needs a
    negative per item); if epochs > 0 and every batch is skipped, this
    raises ValueError rather than return an untrained model. A step runs
    with numpy's warnings off: a non-finite network input or loss, or a flat
    gradient whose squared norm is not finite (Adam refuses it unapplied),
    raises ValueError naming the epoch, the step and the network; so does a
    parameter an Adam overflow left non-finite, at the latest after the loop.

    All trainable arrays (four networks, then the raw band weights) live in
    one contiguous vector that Adam updates in place; the returned params
    are views into it. A step draws the batch's negatives and noise, and
    stage2_gradient, the one function that training and its gradient check
    share, writes the whole gradient into views of a second vector of the
    same layout, which Adam reads. The payloads are stacked and transformed
    once, so a batch only rescales its rows of the cached spectrum; the
    featurizer this returns gets its gains from the same
    frequency.scaling_profile as every step. When no weight trains, every
    step takes rows of features made once, without scaling_profile or idct.
    """
    validate_split(dataset, split)
    records = dataset.by_partition("train-seen")
    if not records:
        raise ValueError("training partition is empty")
    labels_all = np.asarray([r.class_id for r in records])

    fused = semantics.fuse_all(table)
    # stage 3 fuses the unseen classes' embeddings: a missing one is found before training
    for group, ids in (("seen", labels_all.tolist()), ("unseen", split.unseen)):
        missing = sorted(set(ids) - set(fused))
        if missing:
            raise ValueError(f"no semantic embeddings for {group} classes {missing}")
    text_all = np.stack([fused[c] for c in labels_all.tolist()])
    rows_all = featurizer.spectrum(records)
    trains_weights = featurizer._enhances(rows_all) and cfg.train_weights
    with np.errstate(all="ignore"):  # as in a step: frozen weights featurize here, once
        rows_all = rows_all if trains_weights else featurizer.from_spectrum(rows_all)

    params = crossvae.init_vae_params(rows_all[0].size, text_all.shape[1], cfg.latent_dim,
                                      rng, (cfg.hidden_dim,) * cfg.hidden_layers)
    arrays = params.param_arrays()
    n_net = len(arrays)
    if trains_weights:
        arrays.append(frequency.raw_from_weights(np.asarray(featurizer.enhancement.weights)))
    flat, views = numkit.flatten(arrays)
    del arrays  # the pre-flattening arrays go with the old params on the next line
    params = params.with_arrays(views[:n_net])
    raw = views[n_net] if trains_weights else None
    grad, grad_views = numkit.flatten(views)  # same layout; every step overwrites it all
    grads = params.with_arrays(grad_views[:n_net])
    grad_raw = grad_views[n_net] if trains_weights else None

    def failing_part(nets: crossvae.VaeParams, band: Array | None, ok) -> str:
        parts = [(name, a) for name, net in nets.nets().items() for a in net.param_arrays()]
        parts += [("band weights", band)] if band is not None else []
        return next((name for name, a in parts if not ok(a)), "combined")

    opt = numkit.AdamState(lr=cfg.stage2_lr)
    n = len(records)
    loss_log: list[dict] = []
    steps = 0
    for epoch in range(cfg.stage2_epochs):
        order = rng.permutation(n)
        sums: dict[str, float] = {}
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            labels = labels_all[idx]
            if np.all(labels == labels[0]):
                continue  # alignment needs a valid negative per item
            negatives = losses.sample_negatives(labels, rng)
            eps_s = rng.standard_normal((len(idx), cfg.latent_dim))
            eps_t = rng.standard_normal((len(idx), cfg.latent_dim))
            try:
                with np.errstate(all="ignore"):
                    breakdown = stage2_gradient(params, raw, featurizer, rows_all[idx],
                                                text_all[idx], labels, negatives, eps_s,
                                                eps_t, cfg, grads, grad_raw)
                    try:
                        numkit.adam_step(opt, flat, grad)
                    except ValueError as exc:
                        part = failing_part(grads, grad_raw,
                                            lambda g: math.isfinite(np.vdot(g, g)))
                        raise ValueError(f"{part} {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"stage 2 epoch {epoch} step {steps + batches}: {exc}") from exc
            for key, val in breakdown.items():
                sums[key] = sums.get(key, 0.0) + val
            batches += 1
        steps += batches
        row = {"epoch": epoch}
        row.update({k: v / max(batches, 1) for k, v in sums.items()})
        loss_log.append(row)
    if cfg.stage2_epochs > 0 and steps == 0:
        raise ValueError(
            f"stage 2 took no step in {cfg.stage2_epochs} epochs: every batch held a "
            f"single class (batch_size {cfg.batch_size}, {len(set(labels_all.tolist()))} seen "
            "class(es) in train-seen), and the alignment loss needs two per batch")
    # a parameter that tanh saturates can pass every step's checks while non-finite
    if not np.isfinite(flat).all():
        part = failing_part(params, raw, lambda p: np.isfinite(p).all())
        raise ValueError(f"stage 2 left non-finite {part} parameters: an Adam step overflowed")
    if raw is not None:
        featurizer = featurizer.with_weights(frequency.weights_from_raw(raw))
    return params, featurizer, loss_log


# ---- stage 3: unseen classifier from sampled text latents ----


def synthesize_unseen_classifier(params: crossvae.VaeParams,
                                 table: semantics.SemanticTable,
                                 unseen_ids: Sequence[int], cfg: RunConfig,
                                 rng: np.random.Generator) -> SoftmaxClassifier:
    """Train the unseen-class softmax head on cfg.unseen_samples latents drawn
    per class posterior, with cfg's unseen-head schedule."""
    unseen_ids = tuple(int(c) for c in unseen_ids)
    if not unseen_ids:
        raise ValueError("no unseen classes given")
    xs, ys = [], []
    for cid in unseen_ids:
        xs.append(crossvae.sample_class_latents(params, semantics.fuse(table, cid),
                                                cfg.unseen_samples, rng))
        ys.extend([cid] * cfg.unseen_samples)
    return train_softmax_classifier(np.concatenate(xs), np.asarray(ys), unseen_ids,
                                    epochs=cfg.unseen_epochs, lr=cfg.unseen_lr)


# ---- stage 4: seen classifier ----


def train_seen_classifier(params: crossvae.VaeParams, featurizer: SkeletonFeaturizer,
                          records: Sequence[FeatureRecord],
                          class_ids: Sequence[int], cfg: RunConfig) -> SoftmaxClassifier:
    """Softmax head over skeleton latent means of seen-class training records,
    with cfg's seen-head schedule."""
    if not records:
        raise ValueError("no training records")
    latents = encode_latent_means(params, featurizer, records)
    labels = np.asarray([r.class_id for r in records])
    return train_softmax_classifier(latents, labels, tuple(int(c) for c in class_ids),
                                    epochs=cfg.seen_epochs, lr=cfg.seen_lr)


# ---- evaluation ----


@dataclass
class EvalReport:
    """Accuracies for one evaluation run; harmonic ties seen and unseen."""

    seen_accuracy: float | None
    unseen_accuracy: float | None
    harmonic: float | None
    zsl_accuracy: float | None
    per_class: dict[int, float]


def harmonic_mean(s: float, u: float) -> float:
    """2su/(s+u) with the s+u=0 case pinned to 0. Scale-covariant, so
    fractions and percentages both work."""
    if s < 0 or u < 0:
        raise ValueError("accuracies must be non-negative")
    if s + u == 0:
        return 0.0
    return 2.0 * s * u / (s + u)


def evaluate_zsl(params: crossvae.VaeParams, featurizer: SkeletonFeaturizer,
                 classifier, records: Sequence[FeatureRecord]) -> float:
    """Accuracy of the unseen classifier over test-unseen records."""
    if not records:
        raise ValueError("empty test set")
    latents = encode_latent_means(params, featurizer, records)
    pred = classifier.predict(latents)
    truth = np.asarray([r.class_id for r in records])
    return float(np.mean(pred == truth))


def evaluate_gzsl(params: crossvae.VaeParams, featurizer: SkeletonFeaturizer,
                  gate: None, seen_clf: SoftmaxClassifier,
                  unseen_clf: SoftmaxClassifier,
                  test_seen: Sequence[FeatureRecord],
                  test_unseen: Sequence[FeatureRecord]) -> EvalReport:
    """Evaluation over both test partitions, each record routed to the seen
    head when its top-1 seen probability is at least its top-1 unseen
    probability (a tie goes to seen), else to the unseen head. zsl_accuracy
    is the unseen head alone on test_unseen, as evaluate_zsl computes it.

    gate is not read. It keeps the positional order of callers written when
    a fitted gate did the routing (TrainedModel.gate is None).

    A head over one class has top-1 probability 1 on every record and would
    take them all, so this raises ValueError for one.
    """
    if not test_seen or not test_unseen:
        raise ValueError("both test partitions must be non-empty")
    for side, clf in (("seen", seen_clf), ("unseen", unseen_clf)):
        if len(clf.class_ids) < 2:
            raise ValueError(f"gzsl routing needs 2 or more {side} classes: a one-class "
                             f"{side} head has top-1 probability 1 and takes every record")
    correct: dict[int, int] = {}
    totals: dict[int, int] = {}
    group_acc = []
    for group_records in (test_seen, test_unseen):
        latents = encode_latent_means(params, featurizer, group_records)
        seen_p, unseen_p = seen_clf.predict_proba(latents), unseen_clf.predict_proba(latents)
        seen_pred, unseen_pred = (np.asarray(clf.class_ids)[p.argmax(axis=-1)]
                                  for clf, p in ((seen_clf, seen_p), (unseen_clf, unseen_p)))
        pred = np.where(seen_p.max(axis=-1) >= unseen_p.max(axis=-1), seen_pred, unseen_pred)
        truth = np.asarray([r.class_id for r in group_records])
        hits = pred == truth
        group_acc.append(float(np.mean(hits)))
        for cid, hit in zip(truth.tolist(), hits.tolist()):
            totals[cid] = totals.get(cid, 0) + 1
            correct[cid] = correct.get(cid, 0) + int(hit)
    per_class = {cid: correct[cid] / totals[cid] for cid in sorted(totals)}
    s, u = group_acc
    zsl = float(np.mean(unseen_pred == truth))  # the loop ends on test_unseen
    return EvalReport(s, u, harmonic_mean(s, u), zsl, per_class)


# ---- artifact writers ----


def write_report(path, report: EvalReport, config_hash: str, mode: str) -> None:
    semantics.write_json(path, {
        "mode": mode,
        "config_hash": config_hash,
        "seen_accuracy": report.seen_accuracy,
        "unseen_accuracy": report.unseen_accuracy,
        "harmonic": report.harmonic,
        "zsl_accuracy": report.zsl_accuracy,
        "per_class": {str(k): v for k, v in sorted(report.per_class.items())},
    })


def export_latents(params: crossvae.VaeParams, featurizer: SkeletonFeaturizer,
                   records: Iterable[FeatureRecord], path) -> int:
    """CSV of skeleton latent means (full float precision); returns row count.

    A sample id holding a comma or a quote is quoted, as the csv module
    does. An empty record list still writes the header line.
    """
    records = list(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["sample_id", "class_id", *(f"z{i}" for i in range(params.latent_dim))])
        if not records:
            return 0
        latents = encode_latent_means(params, featurizer, records)
        for rec, z in zip(records, latents):
            out.writerow([rec.sample_id, rec.class_id, *(repr(float(v)) for v in z)])
    return len(records)

"""Training objectives with hand-derived gradients.

Calibrated cross-modal alignment. For batch item i with text anchor f_t(i),
its cross-reconstructed positive g_s_t(i), and a different-class negative
g_s_t(i-), write D+ = ||f_t(i) - g_s_t(i)||^2, D- = ||f_t(i) - g_s_t(i-)||^2
and l(a) = 1 / (1 + exp(a / T)) with temperature T. The loss is

    L = (T/B) sum_i l(D-(i) - D+(i))  +  (T/B) sum_i l(D-'(i) - D+'(i))

where the primed term swaps modalities (skeleton anchors f_s against
g_t_s). l satisfies l(a) + l(-a) = 1 for every a, which pins each pair's
joint contribution and keeps the loss bounded; the T factor in front makes
the per-pair gradient scale temperature-free.

Triplet baselines over the same batch geometry (both directions summed,
1/B averaging; squared distances unless noted):

    t1: max(D+ - D- + m, 0)
    t2: log(1 / (1 + exp((D- - D+) / T)))              (log of the pair term)
    t3: T * (exp(d+) / (exp(d+) + exp(d-)))^2          (plain distances d)
    t4: max(1 - D- / (D+ + m), 0)

ELBO per modality: mean-over-dims squared reconstruction error plus
kl_weight times KL(N(mu, diag sigma^2) || N(0, I)), meaned over the batch;
KL has the closed form 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import Array, check_finite

ALIGN_LOSSES = ("calibrated", "t1", "t2", "t3", "t4")


@dataclass(frozen=True)
class LossConfig:
    """Objective knobs: T (temperature), alpha (align weight), beta (KL), m (margin)."""

    temperature: float = 100.0
    align_weight: float = 0.1
    kl_weight: float = 1.0
    margin: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.align_weight < 0 or self.kl_weight < 0 or self.margin < 0:
            raise ValueError("weights and margin must be non-negative")


@dataclass
class LossValue:
    """Scalar objective plus gradients w.r.t. every input array."""

    value: float
    grads: dict[str, Array]


@dataclass
class AlignmentBatch:
    """Per-item features, cross reconstructions, labels, and negative indices.

    negatives[i] indexes another batch item whose label differs from
    labels[i]; the same index serves both modal directions. With
    anchor_grads=False the losses leave the anchor (feature) gradients
    "f_t" and "f_s" out of their grads, for callers that do not chain back
    into the features.
    """

    f_t: Array
    f_s: Array
    g_s_t: Array
    g_t_s: Array
    labels: Array
    negatives: Array
    anchor_grads: bool = True

    def __post_init__(self) -> None:
        self.f_t = np.asarray(self.f_t, dtype=np.float64)
        self.f_s = np.asarray(self.f_s, dtype=np.float64)
        self.g_s_t = np.asarray(self.g_s_t, dtype=np.float64)
        self.g_t_s = np.asarray(self.g_t_s, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        self.negatives = np.asarray(self.negatives)
        b = self.f_t.shape[0]
        if self.f_t.shape != self.g_s_t.shape or self.f_s.shape != self.g_t_s.shape:
            raise ValueError("feature/reconstruction shapes disagree")
        if self.f_s.shape[0] != b or self.labels.shape != (b,) or self.negatives.shape != (b,):
            raise ValueError("batch sizes disagree")
        for name in ("f_t", "f_s", "g_s_t", "g_t_s"):
            check_finite(name, getattr(self, name))
        if np.any(self.negatives < 0) or np.any(self.negatives >= b):
            raise ValueError("an item lacks a negative (index out of range)")
        if np.any(self.labels[self.negatives] == self.labels):
            bad = int(np.argmax(self.labels[self.negatives] == self.labels))
            raise ValueError(f"negative of item {bad} shares its label")

    @property
    def size(self) -> int:
        return self.f_t.shape[0]


def sample_negatives(labels: Array, rng: np.random.Generator) -> Array:
    """One uniform different-label index per item; raises on a single-class batch.

    Item i draws r from [0, count of different-label items) and takes the
    r-th such index in increasing order. The draws are one vectorized call
    over the per-item counts, which consumes the generator exactly as one
    scalar draw per item in item order would.
    """
    labels = np.asarray(labels)
    differs = labels[None, :] != labels[:, None]
    counts = differs.sum(axis=1)
    if not counts.all():
        raise ValueError("single-class batch: no valid negative exists")
    r = rng.integers(counts)
    # the r-th differing index is the number of columns whose running count
    # of differing items has not yet passed r
    return np.sum(np.cumsum(differs, axis=1) <= r[:, None], axis=1)


def pair_sigmoid(a: Array, temperature: float) -> Array:
    """l(a) = 1 / (1 + exp(a / T)), overflow-safe; satisfies l(a) + l(-a) = 1."""
    z = np.asarray(a, dtype=np.float64) / temperature
    out = np.empty_like(z)
    pos = z >= 0
    e = np.exp(-z[pos])
    out[pos] = e / (1.0 + e)
    out[~pos] = 1.0 / (1.0 + np.exp(z[~pos]))
    return out


# ---- shared batch geometry ----


def _zero_grads(batch: AlignmentBatch) -> dict[str, Array]:
    names = ("g_s_t", "g_t_s") + (("f_t", "f_s") if batch.anchor_grads else ())
    return {name: np.zeros_like(getattr(batch, name)) for name in names}


def _direction(anchor: Array, recon: Array, neg: Array):
    """Residuals and squared distances to positive and negative reconstructions."""
    u = anchor - recon
    v = anchor - recon[neg]
    return u, v, np.sum(u * u, axis=1), np.sum(v * v, axis=1)


def _scatter_rows(index: Array, rows: Array, n: int) -> Array:
    """(n, d) block whose row k sums rows[i] over every i with index[i] == k."""
    onehot = (np.arange(n)[:, None] == index[None, :]).astype(np.float64)
    return onehot @ rows


def _apply_sq(grads: dict[str, Array], anchor_key: str, recon_key: str,
              batch: AlignmentBatch, u: Array, v: Array,
              cp: Array, cn: Array) -> None:
    """Set the recon gradient (and the anchor gradient, if the batch wants
    it) of one direction from d(term)/dD+ = cp and d(term)/dD- = cn through
    squared distances.

    Each direction owns its two keys, so the gradients are assigned, not
    accumulated onto zeros.
    """
    if batch.anchor_grads:
        g_anchor = cp[:, None] * u
        g_anchor += cn[:, None] * v
        g_anchor *= 2.0
        grads[anchor_key] = g_anchor
    g_recon = -2.0 * cp[:, None] * u
    g_recon -= _scatter_rows(batch.negatives, 2.0 * cn[:, None] * v, batch.size)
    grads[recon_key] = g_recon


def _both_directions(batch: AlignmentBatch):
    t = _direction(batch.f_t, batch.g_s_t, batch.negatives)
    s = _direction(batch.f_s, batch.g_t_s, batch.negatives)
    return (("f_t", "g_s_t", *t), ("f_s", "g_t_s", *s))


# ---- calibrated alignment ----


def calibrated_alignment(batch: AlignmentBatch, temperature: float,
                         all_pairs: bool = False) -> LossValue:
    """The temperature-calibrated pairwise loss; see the module docstring.

    all_pairs replaces the sampled negative with the mean pair term over
    every different-label batch member (an analysis mode, not the trainer's).
    """
    if all_pairs:
        return _calibrated_all_pairs(batch, temperature)
    b = batch.size
    grads: dict[str, Array] = {}
    total = 0.0
    for anchor_key, recon_key, u, v, dp, dn in _both_directions(batch):
        ell = pair_sigmoid(dn - dp, temperature)
        total += temperature / b * float(np.sum(ell))
        coef = ell * (1.0 - ell) / b
        _apply_sq(grads, anchor_key, recon_key, batch, u, v, coef, -coef)
    return LossValue(total, grads)


def _calibrated_all_pairs(batch: AlignmentBatch, temperature: float) -> LossValue:
    b = batch.size
    grads = _zero_grads(batch)
    total = 0.0
    for anchor_key, recon_key in (("f_t", "g_s_t"), ("f_s", "g_t_s")):
        anchor = getattr(batch, anchor_key)
        recon = getattr(batch, recon_key)
        for i in range(b):
            valid = np.flatnonzero(batch.labels != batch.labels[i])
            if valid.size == 0:
                raise ValueError("single-class batch: no valid negative exists")
            u = anchor[i] - recon[i]
            dp = float(u @ u)
            v = anchor[i] - recon[valid]
            dn = np.sum(v * v, axis=1)
            ell = pair_sigmoid(dn - dp, temperature)
            total += temperature / b * float(np.mean(ell))
            coef = ell * (1.0 - ell) / (b * valid.size)
            cp = float(np.sum(coef))
            if batch.anchor_grads:
                grads[anchor_key][i] += 2.0 * (cp * u - coef @ v)
            grads[recon_key][i] -= 2.0 * cp * u
            grads[recon_key] += _scatter_rows(valid, 2.0 * coef[:, None] * v, b)
    return LossValue(total, grads)


# ---- triplet baselines ----


def triplet_t1(batch: AlignmentBatch, margin: float) -> LossValue:
    """Hinge on squared distances: max(D+ - D- + m, 0), both directions."""
    b = batch.size
    grads: dict[str, Array] = {}
    total = 0.0
    for anchor_key, recon_key, u, v, dp, dn in _both_directions(batch):
        slack = dp - dn + margin
        active = (slack > 0).astype(np.float64)
        total += float(np.sum(np.maximum(slack, 0.0))) / b
        _apply_sq(grads, anchor_key, recon_key, batch, u, v,
                  active / b, -active / b)
    return LossValue(total, grads)


def triplet_t2(batch: AlignmentBatch, temperature: float) -> LossValue:
    """Log of the pair term: mean of log l(D- - D+). Not symmetric, unbounded below."""
    b = batch.size
    grads: dict[str, Array] = {}
    total = 0.0
    for anchor_key, recon_key, u, v, dp, dn in _both_directions(batch):
        ell = pair_sigmoid(dn - dp, temperature)
        # log l(a) = -log(1 + exp(a/T)); logaddexp keeps it finite where l underflows
        total -= float(np.sum(np.logaddexp(0.0, (dn - dp) / temperature))) / b
        # d log l / d a = -(1 - l), with a = (D- - D+) / T
        coef = (1.0 - ell) / (b * temperature)
        _apply_sq(grads, anchor_key, recon_key, batch, u, v, coef, -coef)
    return LossValue(total, grads)


def triplet_t3(batch: AlignmentBatch, temperature: float) -> LossValue:
    """Squared softmax ratio of plain (non-squared) Euclidean distances."""
    b = batch.size
    grads = _zero_grads(batch)
    total = 0.0
    for anchor_key, recon_key, u, v, dp2, dn2 in _both_directions(batch):
        dp = np.sqrt(dp2)
        dn = np.sqrt(dn2)
        # exp(d+) / (exp(d+) + exp(d-)) = sigmoid(d+ - d-)
        r = 1.0 - pair_sigmoid(dp - dn, 1.0)
        total += temperature / b * float(np.sum(r * r))
        coef = 2.0 * temperature / b * r * r * (1.0 - r)
        with np.errstate(invalid="ignore", divide="ignore"):
            du = np.where(dp[:, None] > 0, u / np.where(dp == 0, 1, dp)[:, None], 0.0)
            dv = np.where(dn[:, None] > 0, v / np.where(dn == 0, 1, dn)[:, None], 0.0)
        if batch.anchor_grads:
            grads[anchor_key] += coef[:, None] * du - coef[:, None] * dv
        grads[recon_key] -= coef[:, None] * du
        grads[recon_key] += _scatter_rows(batch.negatives, coef[:, None] * dv, b)
    return LossValue(total, grads)


def triplet_t4(batch: AlignmentBatch, margin: float) -> LossValue:
    """Ratio hinge: max(1 - D- / (D+ + m), 0), both directions."""
    b = batch.size
    grads: dict[str, Array] = {}
    total = 0.0
    for anchor_key, recon_key, u, v, dp, dn in _both_directions(batch):
        denom = dp + margin
        slack = 1.0 - dn / denom
        active = slack > 0
        total += float(np.sum(np.maximum(slack, 0.0))) / b
        cp = np.where(active, dn / (denom * denom), 0.0) / b
        cn = np.where(active, -1.0 / denom, 0.0) / b
        _apply_sq(grads, anchor_key, recon_key, batch, u, v, cp, cn)
    return LossValue(total, grads)


def alignment_loss(batch: AlignmentBatch, name: str, cfg: LossConfig) -> LossValue:
    """Dispatch by loss name (see ALIGN_LOSSES)."""
    if name == "calibrated":
        return calibrated_alignment(batch, cfg.temperature)
    if name == "t1":
        return triplet_t1(batch, cfg.margin)
    if name == "t2":
        return triplet_t2(batch, cfg.temperature)
    if name == "t3":
        return triplet_t3(batch, cfg.temperature)
    if name == "t4":
        return triplet_t4(batch, cfg.margin)
    raise ValueError(f"unknown alignment loss {name!r}")


# ---- evidence lower bound ----


def kl_diag_gaussian(mu: Array, log_var: Array) -> float:
    """KL(N(mu, diag exp(log_var)) || N(0, I)), summed over dims.

    2-D inputs are treated as a batch and meaned over rows.
    """
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    if mu.shape != log_var.shape:
        raise ValueError("mu/log_var shapes disagree")
    check_finite("mu", mu)
    check_finite("log_var", log_var)
    per = 0.5 * np.sum(mu * mu + np.exp(log_var) - 1.0 - log_var, axis=-1)
    return float(np.mean(per)) if per.ndim else float(per)


def elbo(x: Array, recon: Array, mu: Array, log_var: Array,
         kl_weight: float = 1.0) -> LossValue:
    """Loss-to-minimize form: mean-over-dims MSE plus kl_weight * KL.

    Accepts single vectors or (B, d) batches; batches are meaned over items.
    Gradients cover recon, x (reconstruction target), mu, and log_var.
    """
    x = np.asarray(x, dtype=np.float64)
    recon = np.asarray(recon, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    feat_1d = x.ndim == 1
    lat_1d = mu.ndim == 1
    x2 = np.atleast_2d(x)
    r2 = np.atleast_2d(recon)
    mu2 = np.atleast_2d(mu)
    lv2 = np.atleast_2d(log_var)
    if x2.shape != r2.shape or mu2.shape != lv2.shape or x2.shape[0] != mu2.shape[0]:
        raise ValueError("batch shapes disagree")
    b, d = x2.shape
    resid = r2 - x2
    rec = float(np.mean(np.sum(resid * resid, axis=1) / d))
    kl = float(np.mean(0.5 * np.sum(mu2 * mu2 + np.exp(lv2) - 1.0 - lv2, axis=1)))
    g_recon = resid  # 2.0 * resid / (d * b), built in place
    g_recon *= 2.0
    g_recon /= d * b
    g_mu = kl_weight * mu2 / b
    g_lv = kl_weight * 0.5 * (np.exp(lv2) - 1.0) / b
    grads = {
        "recon": g_recon[0] if feat_1d else g_recon,
        "x": -g_recon[0] if feat_1d else -g_recon,
        "mu": g_mu[0] if lat_1d else g_mu,
        "log_var": g_lv[0] if lat_1d else g_lv,
    }
    return LossValue(rec + kl_weight * kl, grads)


def total_objective(vae_value: float, align_value: float, align_weight: float) -> float:
    """Stage-2 scalar: twin-VAE ELBOs plus align_weight times the alignment loss."""
    return float(vae_value + align_weight * align_value)

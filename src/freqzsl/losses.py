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
    t4: max(1 - D- / (D+ + m), 0)                      (m > 0: D+ = D- = 0 is 0/0)

All five share one gradient path: each is a per-item rule giving the batch
value and dL/dD+, dL/dD- for one direction, and `alignment_loss` chains
those through the squared distances. t3 joins that chain through
d = sqrt(D), so dL/dD = dL/dd / (2 d); at D = 0 this factor is taken as 0,
which keeps the gradient finite (the residual it multiplies is zero there).

ELBO per modality: mean-over-dims squared reconstruction error plus
kl_weight times KL(N(mu, diag sigma^2) || N(0, I)), meaned over the batch;
KL has the closed form 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import Array, check_finite, sigmoid


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
    into the features. Shapes and negatives are checked here; finiteness
    is checked by `alignment_loss` on the distances it computes.
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
    return sigmoid(-(np.asarray(a, dtype=np.float64) / temperature))


def _scatter_matrix(index: Array, n: int) -> Array:
    """(n, len(index)) 0/1 matrix S with S[k, i] = 1 where index[i] == k, so
    row k of S @ rows sums rows[i] over every i with index[i] == k."""
    return (np.arange(n)[:, None] == index[None, :]).astype(np.float64)


# ---- per-item rules: (D+, D-, B, cfg) -> (batch value, dL/dD+, dL/dD-) ----


def _calibrated(dp: Array, dn: Array, b: int, cfg: LossConfig):
    ell = pair_sigmoid(dn - dp, cfg.temperature)
    coef = ell * (1.0 - ell) / b
    return cfg.temperature / b * float(np.sum(ell)), coef, -coef


def _t1(dp: Array, dn: Array, b: int, cfg: LossConfig):
    slack = dp - dn + cfg.margin
    active = (slack > 0).astype(np.float64)
    return float(np.sum(np.maximum(slack, 0.0))) / b, active / b, -active / b


def _t2(dp: Array, dn: Array, b: int, cfg: LossConfig):
    t = cfg.temperature
    ell = pair_sigmoid(dn - dp, t)
    # log l(a) = -log(1 + exp(a/T)); logaddexp keeps it finite where l underflows
    value = -float(np.sum(np.logaddexp(0.0, (dn - dp) / t))) / b
    # d log l / d a = -(1 - l), with a = (D- - D+) / T
    coef = (1.0 - ell) / (b * t)
    return value, coef, -coef


def _half_inverse(d: Array) -> Array:
    """d(sqrt D)/dD = 1 / (2 d) at d = sqrt D, taken as 0 at d = 0."""
    return np.divide(0.5, d, out=np.zeros_like(d), where=d > 0)


def _t3(dp: Array, dn: Array, b: int, cfg: LossConfig):
    t = cfg.temperature
    sp, sn = np.sqrt(dp), np.sqrt(dn)
    # exp(d+) / (exp(d+) + exp(d-)) = sigmoid(d+ - d-)
    r = 1.0 - pair_sigmoid(sp - sn, 1.0)
    coef = 2.0 * t / b * r * r * (1.0 - r)  # d(value)/d(d+) = -d(value)/d(d-)
    return t / b * float(np.sum(r * r)), coef * _half_inverse(sp), -coef * _half_inverse(sn)


def _t4(dp: Array, dn: Array, b: int, cfg: LossConfig):
    if cfg.margin <= 0:
        raise ValueError(f"t4 needs margin > 0, got {cfg.margin}: "
                         "D+ = D- = 0 would give 0/0")
    denom = dp + cfg.margin
    slack = 1.0 - dn / denom
    active = slack > 0
    cp = np.where(active, dn / (denom * denom), 0.0) / b
    cn = np.where(active, -1.0 / denom, 0.0) / b
    return float(np.sum(np.maximum(slack, 0.0))) / b, cp, cn


_RULES = {"calibrated": _calibrated, "t1": _t1, "t2": _t2, "t3": _t3, "t4": _t4}
ALIGN_LOSSES = tuple(_RULES)


def alignment_loss(batch: AlignmentBatch, name: str, cfg: LossConfig,
                   grad_scale: float = 1.0, in_place: bool = False) -> LossValue:
    """The named loss (see ALIGN_LOSSES) summed over both modal directions.

    Each direction takes its rule's dL/dD+ = cp and dL/dD- = cn back through
    the squared distances: the anchor gradient (if the batch wants it) is
    2 (cp u + cn v) and the reconstruction gradient -2 cp u, minus 2 cn v
    scattered onto each item's negative, with u and v the residuals to the
    positive and negative reconstructions.

    The grads are those of grad_scale * value: the factor 2 and grad_scale
    are folded into cp and cn. With in_place=True each reconstruction
    gradient is written over the batch's own reconstruction array, so a
    caller can hand the rows it decoded straight to the decoder's backward
    pass. Raises ValueError if a distance is not finite, which any
    non-finite entry of an anchor or a reconstruction makes it.
    """
    if name not in _RULES:
        raise ValueError(f"unknown alignment loss {name!r}")
    rule = _RULES[name]
    b = batch.size
    scatter = _scatter_matrix(batch.negatives, b)
    grads: dict[str, Array] = {}
    total = 0.0
    for anchor_key, recon_key in (("f_t", "g_s_t"), ("f_s", "g_t_s")):
        anchor = getattr(batch, anchor_key)
        recon = getattr(batch, recon_key)
        u = anchor - recon
        v = recon[batch.negatives]
        np.subtract(anchor, v, out=v)
        dp = np.einsum("ij,ij->i", u, u)
        dn = np.einsum("ij,ij->i", v, v)
        if not math.isfinite(dp.sum() + dn.sum()):
            raise ValueError(f"{anchor_key} or {recon_key} contains non-finite entries")
        value, cp, cn = rule(dp, dn, b, cfg)
        total += value
        # the 2 of d||r||^2/dr and grad_scale go into the per-row coefficients
        cp = (2.0 * grad_scale) * cp
        cn = (2.0 * grad_scale) * cn
        u *= cp[:, None]
        # only u and v are read from here on, so recon can take the result
        g_recon = np.matmul(scatter * -cn, v, out=recon if in_place else None)
        g_recon -= u
        grads[recon_key] = g_recon
        if batch.anchor_grads:
            v *= cn[:, None]
            u += v
            grads[anchor_key] = u
    return LossValue(total, grads)


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
         kl_weight: float = 1.0, in_place: bool = False,
         x_grad: bool = True) -> LossValue:
    """Loss-to-minimize form: mean-over-dims MSE plus kl_weight * KL.

    Accepts single vectors or (B, d) batches; batches are meaned over items.
    Gradients cover recon, x (reconstruction target), mu, and log_var. With
    in_place=True the recon gradient is written over `recon` itself; with
    x_grad=False the "x" gradient is left out.
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
    resid = np.subtract(r2, x2, out=r2 if in_place else None)
    rec = float(np.einsum("ij,ij->", resid, resid)) / (d * b)
    var = np.exp(lv2)
    kl = float(np.mean(0.5 * np.sum(mu2 * mu2 + var - 1.0 - lv2, axis=1)))
    g_recon = np.divide(resid, 0.5 * d * b, out=resid)  # = 2 resid / (d b), bit for bit
    g_mu = kl_weight * mu2 / b
    var -= 1.0
    g_lv = (0.5 * kl_weight / b) * var
    grads = {
        "recon": g_recon[0] if feat_1d else g_recon,
        "mu": g_mu[0] if lat_1d else g_mu,
        "log_var": g_lv[0] if lat_1d else g_lv,
    }
    if x_grad:
        grads["x"] = -grads["recon"]
    return LossValue(rec + kl_weight * kl, grads)


def total_objective(vae_value: float, align_value: float, align_weight: float) -> float:
    """Stage-2 scalar: twin-VAE ELBOs plus align_weight times the alignment loss."""
    return float(vae_value + align_weight * align_value)

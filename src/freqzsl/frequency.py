"""Orthonormal cosine transform over the trailing axis, plus piecewise
frequency-band scaling with learnable per-band weights.

Transform convention (type-II DCT, orthonormal, 0-based with the constant
vector at index 0; F = number of frames):

    basis[i, f] = sqrt((2 - delta(i, 0)) / F) * cos(pi * (f + 1/2) * i / F)

`dct_forward` maps x -> x @ basis.T and `idct` is its exact inverse, so the
round trip is the identity and energy (sum of squares) is preserved.

Band scaling. Coefficients are grouped into contiguous bands: band k covers
[split_points[k], split_points[k+1]) and carries one weight w_k in [0, 1].
A band whose (exclusive) end sits at or below `low_cutoff` counts as low
frequency. With s_k = split_points[k], the first coefficient of band k, and
ramp length b:

    low : g = 1 + w_k * (1 - s_k / b)          boost while s_k < b
    high: g = 1 - w_k * (1 - (s_k - b) / b)    cut while s_k < 2 b

With one band per coefficient s_k = k. A coarser band takes that profile's
value at its start coefficient, except that a band straddling low_cutoff
counts as high.

Neither ramp stops at zero: the low factor changes sign at s_k = b and the
high one at s_k = 2 b. So a low band that starts past b is damped, and a
high band that starts past 2 b is boosted. With the command-line defaults
(b = 30, low_cutoff = 35, 64 frames) coefficients 31-34 are damped and
61-63 boosted whenever their weight is positive.

g is clamped from below at `floor` (default 0). In "learnable_only" mode the
structure above is dropped and g = w_k exactly. Enhancing (done only by
pipeline.SkeletonFeaturizer) is transform, scale each coefficient by its
band's g, transform back: output energy is sum_i g_i^2 c_i^2 over coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .numkit import Array, check_finite, sigmoid

MODES = ("piecewise", "learnable_only")


# ---- transform ----


@lru_cache(maxsize=64)
def dct_basis(frames: int) -> Array:
    """Orthonormal type-II cosine basis, shape (frames, frames), row i = mode i."""
    if frames < 1:
        raise ValueError("need at least one frame")
    f = np.arange(frames, dtype=np.float64)
    i = np.arange(frames, dtype=np.float64)[:, None]
    basis = np.cos(np.pi / frames * (f + 0.5) * i)
    scale = np.sqrt(2.0 / frames) * np.ones((frames, 1))
    scale[0, 0] = np.sqrt(1.0 / frames)
    out = scale * basis
    out.setflags(write=False)
    return out


def dct_forward(x: Array) -> Array:
    """Coefficients of x over its trailing axis; any leading shape allowed."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("empty sequence")
    check_finite("sequence", x)
    return x @ dct_basis(x.shape[-1]).T


def idct(coeffs: Array) -> Array:
    """Inverse of dct_forward over the trailing axis.

    Any leading axes are folded into rows first, so the transform is one
    (rows, F) x (F, F) product rather than one small product per trailing
    matrix of a stack. In this direction that is bit-identical to the
    stacked product wherever the trailing matrices have more than one row;
    a stack of one-row matrices went through matrix-vector products, which
    round differently in the last bit.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise ValueError("empty spectrum")
    check_finite("spectrum", c)
    f = c.shape[-1]
    return (c.reshape(-1, f) @ dct_basis(f)).reshape(c.shape)


# ---- band configuration ----


@dataclass(frozen=True)
class EnhancementConfig:
    """Contiguous band partition of [0, F) with one weight per band.

    split_points must start at 0, end at F, and strictly increase; weights
    and floor live in [0, 1]. low_cutoff is a coefficient index in [0, F).
    """

    split_points: tuple[int, ...]
    weights: tuple[float, ...]
    low_cutoff: int
    ramp: float
    mode: str = "piecewise"
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        pts = self.split_points
        if len(pts) < 2 or pts[0] != 0:
            raise ValueError("split_points must start at 0 and name at least one band")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("split_points must strictly increase (gap/overlap)")
        if len(self.weights) != len(pts) - 1:
            raise ValueError("need exactly one weight per band")
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.all((w >= 0.0) & (w <= 1.0)):  # NaN fails both comparisons
            raise ValueError("weights must lie in [0, 1]")
        if not (0 <= self.low_cutoff < pts[-1]):
            raise ValueError("low_cutoff must lie in [0, F)")
        if not (self.ramp > 0 and np.isfinite(self.ramp)):
            raise ValueError("ramp must be positive")
        if not 0.0 <= self.floor <= 1.0:  # NaN fails it too
            raise ValueError(f"floor must lie in [0, 1], got {self.floor}")

    @property
    def n_bands(self) -> int:
        return len(self.split_points) - 1

    # computed once per instance; not fields, so no checkpoint holds them
    @cached_property
    def band_index(self) -> Array:
        """The band of each of the F coefficients (read-only: scaling_profile hands it out)."""
        index = np.repeat(np.arange(self.n_bands), np.diff(self.split_points))
        index.setflags(write=False)
        return index

    @cached_property
    def ramp_factors(self) -> Array | None:
        """Each band's coefficient of w_k in g before the clamp; None in
        learnable_only mode, where g = w_k."""
        if self.mode == "learnable_only":
            return None
        pts = np.asarray(self.split_points)
        k = pts[:-1].astype(np.float64)  # the ramp runs over coefficient indices: each band's start
        low = pts[1:] <= self.low_cutoff
        return np.where(low, 1.0 - k / self.ramp, -(1.0 - (k - self.ramp) / self.ramp))

    def with_weights(self, weights) -> "EnhancementConfig":
        return replace(self, weights=tuple(float(w) for w in weights))

    @classmethod
    def uniform_bands(cls, length: int, band_size: int, low_cutoff: int,
                      ramp: float, weight: float = 0.0, mode: str = "piecewise",
                      floor: float = 0.0) -> "EnhancementConfig":
        """band_size coefficients per band (1: per coefficient); the last band may be short."""
        if band_size < 1:
            raise ValueError("band_size must be >= 1")
        pts = list(range(0, length, band_size)) + [length]
        return cls(tuple(pts), (weight,) * (len(pts) - 1),
                   low_cutoff, ramp, mode, floor)


def scaling_profile(config: EnhancementConfig,
                    weights: Array | None = None) -> tuple[Array, Array, Array]:
    """Per-coefficient (g, dg/dw, band index) arrays of length F.

    weights, one per band, stand in for config's own; a trainer passes each
    step's, evaluation passes none. dg/dw is the band's ramp factor (1 in
    learnable_only mode), zeroed where the floor clamp is active, so it is
    the exact subgradient used in training. Only a few vector ops run here:
    the band index and ramp factors are computed once per config.
    """
    w = np.asarray(config.weights if weights is None else weights, dtype=np.float64)
    factor = config.ramp_factors
    if factor is None:
        g_band, dgdw_band = w, np.ones_like(w)
    else:
        raw = 1.0 + w * factor
        clamped = raw < config.floor
        g_band = np.where(clamped, config.floor, raw)
        dgdw_band = np.where(clamped, 0.0, factor)
    band_index = config.band_index
    return g_band[band_index], dgdw_band[band_index], band_index


# ---- enhancement ----


def enhance(coeffs: Array, gains: Array) -> Array:
    """Scale each coefficient (trailing axis) by its gain g, as scaling_profile
    gives it. pipeline.SkeletonFeaturizer.from_spectrum, the one caller, takes
    the product back through idct, which checks it finite."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape[-1] != len(gains):
        raise ValueError(
            f"config partitions {len(gains)} coefficients, spectrum has {c.shape[-1]}")
    return c * gains


def enhance_weight_grads(coeffs: Array, grad_out: Array, dgdw: Array,
                         band_index: Array) -> Array:
    """Chain grad wrt the enhanced output back to the band weights.

    coeffs is the unscaled spectrum that was enhanced, grad_out holds as
    many entries, and dgdw and band_index are per coefficient, as
    scaling_profile gives them at the step's weights. The transform is
    orthonormal, so the grad wrt scaled coefficient i is (grad_out B^T)_i
    with B the basis. With the rows of both blocks as (M, F) matrices D and
    C, that is one (M, F) x (F, F) product D B^T, multiplied entrywise by C
    and summed over the M rows. (The other order, the (F, M) x (M, F)
    product D^T C, has an inner size of M and runs at one core's speed.)
    """
    f = coeffs.shape[-1]
    spec_grad = np.reshape(grad_out, (-1, f)) @ dct_basis(f).T
    per_coeff = np.einsum("mi,mi->i", spec_grad, np.reshape(coeffs, (-1, f)))
    return np.bincount(band_index, weights=per_coeff * dgdw)


# ---- learnable weight squash ----


def weights_from_raw(raw: Array) -> Array:
    """Sigmoid squash of unconstrained weights into (0, 1)."""
    return sigmoid(raw)


def raw_from_weights(w: Array) -> Array:
    """Logit of w, clipped to [1e-9, 1 - 1e-9] so exact 0/1 stay finite."""
    w = np.clip(np.asarray(w, dtype=np.float64), 1e-9, 1.0 - 1e-9)
    return np.log(w / (1.0 - w))

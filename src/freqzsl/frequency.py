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
structure above is dropped and g = w_k exactly. Enhancing a sequence means
transform, scale each coefficient by its band's g, transform back; output
energy is therefore sum_i g_i^2 c_i^2 over coefficients c.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

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
    """Inverse of dct_forward over the trailing axis."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise ValueError("empty spectrum")
    check_finite("spectrum", c)
    return c @ dct_basis(c.shape[-1])


def signal_energy(x: Array) -> float:
    """Sum of squared entries."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(x * x))


# ---- band configuration ----


@dataclass(frozen=True)
class EnhancementConfig:
    """Contiguous band partition of [0, F) with one weight per band.

    split_points must start at 0, end at F, and strictly increase; weights
    live in [0, 1]. low_cutoff is a coefficient index in [0, F).
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

    @property
    def length(self) -> int:
        return self.split_points[-1]

    @property
    def n_bands(self) -> int:
        return len(self.split_points) - 1

    def with_weights(self, weights) -> "EnhancementConfig":
        return replace(self, weights=tuple(float(w) for w in weights))

    @classmethod
    def per_coefficient(cls, length: int, low_cutoff: int, ramp: float,
                        weight: float = 0.0, mode: str = "piecewise",
                        floor: float = 0.0) -> "EnhancementConfig":
        """One band per coefficient (the default granularity)."""
        return cls.uniform_bands(length, 1, low_cutoff, ramp, weight, mode, floor)

    @classmethod
    def uniform_bands(cls, length: int, band_size: int, low_cutoff: int,
                      ramp: float, weight: float = 0.0, mode: str = "piecewise",
                      floor: float = 0.0) -> "EnhancementConfig":
        """Coarser bands of band_size coefficients; the last band may be short."""
        if band_size < 1:
            raise ValueError("band_size must be >= 1")
        pts = list(range(0, length, band_size)) + [length]
        return cls(tuple(pts), (weight,) * (len(pts) - 1),
                   low_cutoff, ramp, mode, floor)


def scaling_profile(config: EnhancementConfig) -> tuple[Array, Array, Array]:
    """Per-coefficient (g, dg/dw, band index) arrays of length F.

    dg/dw is the closed-form linear factor of the band's weight, zeroed where
    the floor clamp is active, so it is the exact subgradient used in training.
    """
    n = config.n_bands
    w = np.asarray(config.weights, dtype=np.float64)
    if config.mode == "learnable_only":
        g_band = w.copy()
        dgdw_band = np.ones(n)
    else:
        pts = np.asarray(config.split_points, dtype=np.float64)
        k = pts[:-1]  # the ramp runs over coefficient indices: each band's start
        low = pts[1:] <= config.low_cutoff
        factor = np.where(low, 1.0 - k / config.ramp,
                          -(1.0 - (k - config.ramp) / config.ramp))
        raw = 1.0 + w * factor
        clamped = raw < config.floor
        g_band = np.where(clamped, config.floor, raw)
        dgdw_band = np.where(clamped, 0.0, factor)
    band_index = np.repeat(np.arange(n),
                           np.diff(np.asarray(config.split_points)))
    return g_band[band_index], dgdw_band[band_index], band_index


# ---- enhancement ----


def enhance(coeffs: Array, config: EnhancementConfig) -> Array:
    """Scale each coefficient (trailing axis) by its band's g."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape[-1] != config.length:
        raise ValueError(
            f"config partitions {config.length} coefficients, spectrum has {c.shape[-1]}")
    check_finite("spectrum", c)
    g, _, _ = scaling_profile(config)
    return c * g


def enhance_sequence(x: Array, config: EnhancementConfig) -> Array:
    """Transform, scale bands, transform back, over the trailing axis."""
    return idct(enhance(dct_forward(x), config))


@dataclass
class EnhanceCache:
    """Forward-pass state needed for d(loss)/d(weights)."""

    coeffs: Array
    dgdw: Array
    band_index: Array
    n_bands: int


def enhance_sequence_with_cache(x: Array,
                                config: EnhancementConfig) -> tuple[Array, EnhanceCache]:
    coeffs = dct_forward(x)
    g, dgdw, band_index = scaling_profile(config)
    out = idct(coeffs * g)
    return out, EnhanceCache(coeffs, dgdw, band_index, config.n_bands)


def enhance_weight_grads(cache: EnhanceCache, grad_out: Array) -> Array:
    """Chain grad wrt the enhanced output back to the band weights.

    grad_out has the same shape as the enhanced sequence. The transform is
    orthonormal, so grad wrt the scaled spectrum is dct_forward(grad_out).
    """
    grad_spec = dct_forward(np.asarray(grad_out, dtype=np.float64))
    per_coeff = (grad_spec * cache.coeffs).reshape(-1, cache.coeffs.shape[-1]).sum(axis=0)
    return np.bincount(cache.band_index, weights=per_coeff * cache.dgdw,
                       minlength=cache.n_bands)


# ---- learnable weight squash ----


def weights_from_raw(raw: Array) -> Array:
    """Sigmoid squash of unconstrained weights into (0, 1)."""
    return sigmoid(raw)


def raw_from_weights(w: Array, clip: float = 1e-9) -> Array:
    """Logit of w, clipped away from exact 0/1."""
    w = np.clip(np.asarray(w, dtype=np.float64), clip, 1.0 - clip)
    return np.log(w / (1.0 - w))

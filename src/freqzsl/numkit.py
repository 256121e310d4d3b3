"""Small dense-network kernels: MLPs with hand-derived backprop, Adam,
flat parameter storage and seeded RNG streams.

Everything runs on float64 numpy arrays, so every analytic gradient in the
repository can be cross-checked against central differences. Networks are
stacks of affine layers with tanh between them; the output layer is always
a bare affine map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

Array = np.ndarray


def check_finite(name: str, arr: Array) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def sigmoid(z: Array) -> Array:
    """Logistic function without overflow: exp only ever sees non-positive values."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---- seeded rng streams ----


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for substream `stream` of a 64-bit master seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.default_rng(ss)


# ---- mlp parameters ----


@dataclass
class MlpParams:
    """Affine stack: y = W_L(...tanh(W_1 x + b_1)...) + b_L.

    weights[l] has shape (out_l, in_l); biases[l] has shape (out_l,).
    tanh applies between layers, never after the last one. `activation`
    names it in the checkpoint format and must be "tanh".
    """

    weights: list[Array]
    biases: list[Array]
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.activation != "tanh":
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be parallel, non-empty lists")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {l}: shapes {w.shape} / {b.shape} do not agree")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(f"layer {l}: input dim {w.shape[1]} breaks the chain")
            check_finite(f"weights[{l}]", w)
            check_finite(f"biases[{l}]", b)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def param_arrays(self) -> list[Array]:
        """Flat list of parameter arrays; order is stable (weights then bias per layer)."""
        out: list[Array] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def with_arrays(self, arrays: list[Array]) -> "MlpParams":
        """Rebuild params from a flat array list in param_arrays() order."""
        n = len(self.weights)
        if len(arrays) != 2 * n:
            raise ValueError("array count mismatch")
        ws = [np.asarray(arrays[2 * l], dtype=np.float64) for l in range(n)]
        bs = [np.asarray(arrays[2 * l + 1], dtype=np.float64) for l in range(n)]
        return MlpParams(ws, bs, self.activation)


def init_mlp(sizes: tuple[int, ...] | list[int], rng: np.random.Generator) -> MlpParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases zero. Deterministic under rng."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    ws, bs = [], []
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        ws.append(rng.standard_normal((nout, nin)) / math.sqrt(nin))
        bs.append(np.zeros(nout))
    return MlpParams(ws, bs)


# ---- forward / backward ----


def mlp_forward(params: MlpParams, x: Array) -> tuple[Array, list[Array]]:
    """x (B, d) -> (B, out_dim) output of the affine stack, plus the list of
    layer inputs (inputs[l] feeds layer l) that mlp_backward reads."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.in_dim:
        raise ValueError(f"input dim {h.shape} does not match {params.in_dim}")
    check_finite("input", h)
    inputs = []
    n = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ w.T
        h += b
        if l < n - 1:
            np.tanh(h, out=h)
    return h, inputs


def mlp_backward(params: MlpParams, inputs: list[Array], grad_out: Array,
                 out: MlpParams, grad_in: bool) -> Array | None:
    """Backprop grad_out (shaped like the forward output) through the stack
    whose layer inputs mlp_forward returned.

    Each parameter gradient, its batch rows summed, is written into its
    array of `out`, an MlpParams shaped like params. Returns d(loss)/d(input),
    or None with grad_in=False, which skips computing it.
    """
    g = grad_out
    n = len(params.weights)
    for l in range(n - 1, -1, -1):
        h_in = inputs[l]
        np.matmul(g.T, h_in, out=out.weights[l])
        np.sum(g, axis=0, out=out.biases[l])
        if l == 0 and not grad_in:
            return None
        g = g @ params.weights[l]
        if l > 0:
            # h_in at layer l is tanh(pre-activation of layer l-1)
            d = h_in * h_in
            np.subtract(1.0, d, out=d)
            g *= d
    return g


# ---- flat parameter storage ----


def aligned_empty(n: int) -> Array:
    """Uninitialized float64 vector of n entries whose data starts on a 64-byte line."""
    buf = np.empty(n + 7)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + n]


def flatten(arrays: list[Array]) -> tuple[Array, list[Array]]:
    """Copy arrays into one contiguous float64 vector, in order, that starts on a 64-byte line.

    Returns the vector and one view into it per input, shaped like that
    input, so writing through a view writes the vector and vice versa.
    """
    flat = aligned_empty(sum(np.size(a) for a in arrays))
    views = []
    start = 0
    for a in arrays:
        view = flat[start:start + np.size(a)].reshape(np.shape(a))
        view[...] = a
        views.append(view)
        start += np.size(a)
    return flat, views


# ---- adam ----

ADAM_CHUNK = 16384  # elements per in-place pass; keeps each chunk's working set in L2


@dataclass
class AdamState:
    """Adam with bias correction over one flat vector; m and v are sized on its first step.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    p <- p - alpha_t * m / (sqrt(v) + eps_hat)

    with alpha_t = lr sqrt(1 - b2^t) / (1 - b1^t) and eps_hat = eps sqrt(1 - b2^t):
    the efficient form given after Algorithm 1 of Kingma & Ba (ICLR 2015).
    It equals the textbook lr * m_hat / (sqrt(v_hat) + eps) exactly in real
    arithmetic, with both bias corrections folded into two scalars. Only lr
    varies; b1, b2 and eps are Kingma & Ba's defaults. The chunk-sized
    scratch buffers let a step run without full-size temporaries.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    lr: float = 1e-4
    step_count: int = 0
    m: Array | None = None
    v: Array | None = None
    scratch: tuple[Array, Array] = field(
        default_factory=lambda: (aligned_empty(ADAM_CHUNK), aligned_empty(ADAM_CHUNK)),
        repr=False)


def adam_step(state: AdamState, p: Array, g: Array) -> None:
    """One update of the flat vector p by its gradient g, in place, chunk by chunk.

    A gradient whose squared norm is not finite (a NaN or an infinity, or
    finite entries whose squares overflow, which would freeze their
    parameters) raises ValueError before any entry or state moves. The
    arithmetic is the same elementwise sequence in every chunk, so the
    result does not depend on the chunking.
    """
    if p.ndim != 1 or not p.flags.c_contiguous or np.shape(g) != p.shape or (
            state.m is not None and state.m.shape != p.shape):
        raise ValueError("params must be a contiguous vector shaped like its grad and moments")
    if not math.isfinite(np.vdot(g, g)):  # np.dot would also warn of an overflow
        raise ValueError("gradient is non-finite or its square overflows")
    if state.m is None:
        state.m, state.v = aligned_empty(p.size), aligned_empty(p.size)
        state.m[:] = state.v[:] = 0.0
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    root_c2 = math.sqrt(1.0 - b2 ** t)
    alpha = state.lr * root_c2 / (1.0 - b1 ** t)
    eps_hat = state.eps * root_c2
    s1, s2 = state.scratch
    for start in range(0, p.size, ADAM_CHUNK):
        end = min(start + ADAM_CHUNK, p.size)
        pc, gc, mc, vc = p[start:end], g[start:end], state.m[start:end], state.v[start:end]
        a, b = s1[:end - start], s2[:end - start]
        mc *= b1
        np.multiply(1.0 - b1, gc, out=a)
        mc += a
        vc *= b2
        np.multiply(1.0 - b2, gc, out=a)
        a *= gc
        vc += a
        np.sqrt(vc, out=b)
        b += eps_hat
        np.multiply(alpha, mc, out=a)
        a /= b
        pc -= a


"""Twin VAEs over skeleton features and fused text features, cross-wired.

Each modality has an encoder MLP that emits a concatenated (mu, log_var)
pair and a decoder MLP from latent space back to its feature space. One
training step evaluates, per modality, the reparameterized self-
reconstruction ELBO, plus the cross reconstructions used by the alignment
loss: g_s_t = text_decoder(mu_skeleton) and g_t_s = skeleton_decoder(
mu_text). Cross reconstructions are decoded from posterior MEANS; sampling
only feeds the ELBO path. The stage-2 objective is

    total = elbo_skeleton + elbo_text + align_weight * alignment

and every gradient (all four networks plus both input feature blocks) is
assembled by hand so the whole step can be checked against finite
differences with frozen noise and frozen negatives.

Each decoder runs once per step over [self latents; cross latents], and
its (2B, d) output is also the block its backward pass reads: the ELBO
writes its reconstruction gradient over the first B rows and the
alignment loss writes align_weight times its cross-reconstruction
gradient over the last B. No separate decoder gradient block is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses, numkit
from .numkit import Array, MlpParams


@dataclass(frozen=True)
class LatentGaussian:
    """Diagonal Gaussian posterior: mean and log variance, same shape."""

    mu: Array
    log_var: Array

    def __post_init__(self) -> None:
        if np.shape(self.mu) != np.shape(self.log_var):
            raise ValueError("mu/log_var shapes disagree")
        numkit.check_finite("mu", np.asarray(self.mu))
        numkit.check_finite("log_var", np.asarray(self.log_var))


MODALITIES = ("skeleton", "text")


@dataclass
class VaeParams:
    """Both encoder/decoder pairs plus the shared latent width."""

    skel_encoder: MlpParams
    text_encoder: MlpParams
    skel_decoder: MlpParams
    text_decoder: MlpParams
    latent_dim: int

    def __post_init__(self) -> None:
        ld = self.latent_dim
        if self.skel_encoder.out_dim != 2 * ld or self.text_encoder.out_dim != 2 * ld:
            raise ValueError("encoders must emit 2 * latent_dim (mu and log_var)")
        if self.skel_decoder.in_dim != ld or self.text_decoder.in_dim != ld:
            raise ValueError("decoders must consume latent_dim")
        if self.skel_decoder.out_dim != self.skel_encoder.in_dim:
            raise ValueError("skeleton decoder must reproduce the skeleton feature dim")
        if self.text_decoder.out_dim != self.text_encoder.in_dim:
            raise ValueError("text decoder must reproduce the text feature dim")

    @property
    def skel_dim(self) -> int:
        return self.skel_encoder.in_dim

    @property
    def text_dim(self) -> int:
        return self.text_encoder.in_dim

    def nets(self) -> tuple[MlpParams, MlpParams, MlpParams, MlpParams]:
        return (self.skel_encoder, self.text_encoder,
                self.skel_decoder, self.text_decoder)

    def param_arrays(self) -> list[Array]:
        """Stable flat order: skel_enc, text_enc, skel_dec, text_dec."""
        out: list[Array] = []
        for net in self.nets():
            out.extend(net.param_arrays())
        return out

    def with_arrays(self, arrays: list[Array]) -> "VaeParams":
        nets = []
        k = 0
        for net in self.nets():
            n = len(net.param_arrays())
            nets.append(net.with_arrays(arrays[k:k + n]))
            k += n
        if k != len(arrays):
            raise ValueError("array count mismatch")
        return VaeParams(*nets, self.latent_dim)


def init_vae_params(skel_dim: int, text_dim: int, latent_dim: int,
                    rng: np.random.Generator,
                    hidden: tuple[int, ...] = (128, 128)) -> VaeParams:
    """Fresh networks; draw order is fixed so a seed pins every weight."""
    h = tuple(hidden)
    return VaeParams(
        skel_encoder=numkit.init_mlp((skel_dim, *h, 2 * latent_dim), rng),
        text_encoder=numkit.init_mlp((text_dim, *h, 2 * latent_dim), rng),
        skel_decoder=numkit.init_mlp((latent_dim, *h, skel_dim), rng),
        text_decoder=numkit.init_mlp((latent_dim, *h, text_dim), rng),
        latent_dim=latent_dim,
    )


def encode(params: VaeParams, modality: str, x: Array) -> LatentGaussian:
    """Posterior for one modality; x is (d,) or (B, d)."""
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    net = params.skel_encoder if modality == "skeleton" else params.text_encoder
    out, _ = numkit.mlp_forward(net, x)
    ld = params.latent_dim
    return LatentGaussian(out[..., :ld], out[..., ld:])


# ---- stage-2 objective with full hand backprop ----


def stage2_loss(params: VaeParams, f_s: Array, f_t: Array, labels: Array,
                negatives: Array, eps_s: Array, eps_t: Array,
                cfg: losses.LossConfig, align_loss: str = "calibrated",
                grads_out: list[Array] | None = None, feature_grads: bool = True):
    """Evaluate the joint objective and all gradients for one batch.

    Returns (breakdown, param_grads, grad_f_s, grad_f_t) where breakdown
    holds the scalar pieces, param_grads matches params.param_arrays()
    order, and the feature gradients let a caller chain further back (for
    trainable frequency weights under the skeleton features).

    grads_out, if given, holds one array per params.param_arrays() entry,
    and every parameter gradient is written into its array. With
    feature_grads=False the encoders skip their input gradients and the
    alignment loss its anchor gradients, and both feature gradients come
    back as None.
    """
    f_s = np.asarray(f_s, dtype=np.float64)
    f_t = np.asarray(f_t, dtype=np.float64)
    b = f_s.shape[0]
    ld = params.latent_dim
    outs: list = [None] * 4
    if grads_out is not None:  # split per network, in param_arrays() order
        outs, k = [], 0
        for net in params.nets():
            outs.append(grads_out[k:k + 2 * len(net.weights)])
            k += 2 * len(net.weights)

    out_s, cache_enc_s = numkit.mlp_forward(params.skel_encoder, f_s)
    out_t, cache_enc_t = numkit.mlp_forward(params.text_encoder, f_t)
    mu_s, lv_s = out_s[:, :ld], out_s[:, ld:]
    mu_t, lv_t = out_t[:, :ld], out_t[:, ld:]

    # sigma * eps, kept for the reparameterization gradient
    noise_s = np.exp(0.5 * lv_s)
    noise_s *= eps_s
    noise_t = np.exp(0.5 * lv_t)
    noise_t *= eps_t

    # one pass per decoder over [self-reconstruction latents; cross latents]
    dec_s, cache_dec_s = numkit.mlp_forward(params.skel_decoder,
                                            np.concatenate([mu_s + noise_s, mu_t]))
    dec_t, cache_dec_t = numkit.mlp_forward(params.text_decoder,
                                            np.concatenate([mu_t + noise_t, mu_s]))

    # the losses overwrite each decoder output with its gradient, row block by row block
    a = cfg.align_weight
    elbo_s = losses.elbo(f_s, dec_s[:b], mu_s, lv_s, cfg.kl_weight,
                         in_place=True, x_grad=False)
    elbo_t = losses.elbo(f_t, dec_t[:b], mu_t, lv_t, cfg.kl_weight,
                         in_place=True, x_grad=False)
    batch = losses.AlignmentBatch(f_t, f_s, dec_t[b:], dec_s[b:], labels, negatives,
                                  anchor_grads=feature_grads)
    align = losses.alignment_loss(batch, align_loss, cfg, grad_scale=a, in_place=True)

    vae_value = elbo_s.value + elbo_t.value
    total = losses.total_objective(vae_value, align.value, a)
    if not math.isfinite(total):
        raise ValueError(f"stage-2 loss is not finite ({total})")

    # decoders: the self-reconstruction rows came from z, the cross rows from mu
    g_dec_s, d_dec_s = numkit.mlp_backward(params.skel_decoder, cache_dec_s, dec_s, outs[2])
    g_dec_t, d_dec_t = numkit.mlp_backward(params.text_decoder, cache_dec_t, dec_t, outs[3])
    dz_s, d_mu_t_cross = d_dec_s[:b], d_dec_s[b:]
    dz_t, d_mu_s_cross = d_dec_t[:b], d_dec_t[b:]

    # reparameterization: dz/dmu = 1, dz/dlog_var = sigma * eps / 2
    noise_s *= 0.5
    noise_s *= dz_s
    noise_t *= 0.5
    noise_t *= dz_t
    d_mu_s = elbo_s.grads["mu"] + dz_s
    d_mu_s += d_mu_s_cross
    d_mu_t = elbo_t.grads["mu"] + dz_t
    d_mu_t += d_mu_t_cross

    g_enc_s, d_in_s = numkit.mlp_backward(
        params.skel_encoder, cache_enc_s,
        np.concatenate([d_mu_s, elbo_s.grads["log_var"] + noise_s], axis=1),
        outs[0], feature_grads)
    g_enc_t, d_in_t = numkit.mlp_backward(
        params.text_encoder, cache_enc_t,
        np.concatenate([d_mu_t, elbo_t.grads["log_var"] + noise_t], axis=1),
        outs[1], feature_grads)
    d_f_s = d_f_t = None
    if feature_grads:
        # into the encoders' input gradients; the ELBO's target gradient is
        # minus its reconstruction gradient, still in the decoder rows
        d_f_s, d_f_t = d_in_s, d_in_t
        d_f_s -= dec_s[:b]
        d_f_s += align.grads["f_s"]
        d_f_t -= dec_t[:b]
        d_f_t += align.grads["f_t"]

    param_grads = [*g_enc_s, *g_enc_t, *g_dec_s, *g_dec_t]
    breakdown = {
        "total": total,
        "vae": vae_value,
        "vae_skel": elbo_s.value,
        "vae_text": elbo_t.value,
        "align": align.value,
    }
    return breakdown, param_grads, d_f_s, d_f_t


def sample_class_latents(params: VaeParams, fused_text: Array, n: int,
                         rng: np.random.Generator | None = None,
                         eps: Array | None = None) -> Array:
    """Draw n latents from the text posterior of one class's fused vector."""
    if n < 1:
        raise ValueError("need at least one sample")
    latent = encode(params, "text", np.asarray(fused_text, dtype=np.float64))
    mu = np.broadcast_to(latent.mu, (n, params.latent_dim))
    lv = np.broadcast_to(latent.log_var, (n, params.latent_dim))
    if eps is None:
        if rng is None:
            raise ValueError("need rng or explicit eps")
        eps = rng.standard_normal((n, params.latent_dim))
    return mu + np.exp(0.5 * lv) * eps


# ---- checkpoint codec ----


def mlp_to_dict(net: MlpParams) -> dict:
    return {
        "activation": net.activation,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_dict(obj: dict) -> MlpParams:
    return MlpParams([np.asarray(w, dtype=np.float64) for w in obj["weights"]],
                     [np.asarray(b, dtype=np.float64) for b in obj["biases"]],
                     obj["activation"])


def vae_to_dict(params: VaeParams) -> dict:
    return {
        "latent_dim": params.latent_dim,
        "skel_encoder": mlp_to_dict(params.skel_encoder),
        "text_encoder": mlp_to_dict(params.text_encoder),
        "skel_decoder": mlp_to_dict(params.skel_decoder),
        "text_decoder": mlp_to_dict(params.text_decoder),
    }


def vae_from_dict(obj: dict) -> VaeParams:
    return VaeParams(
        skel_encoder=mlp_from_dict(obj["skel_encoder"]),
        text_encoder=mlp_from_dict(obj["text_encoder"]),
        skel_decoder=mlp_from_dict(obj["skel_decoder"]),
        text_decoder=mlp_from_dict(obj["text_decoder"]),
        latent_dim=int(obj["latent_dim"]),
    )

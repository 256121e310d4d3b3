"""Twin VAEs over skeleton features and fused text features, cross-wired.

Each modality has an encoder MLP that emits a concatenated (mu, log_var)
pair and a decoder MLP from latent space back to its feature space. One
training step evaluates, per modality, the reparameterized self-
reconstruction ELBO, plus the cross reconstructions used by the alignment
loss: g_s_t = text_decoder(mu_skeleton) and g_t_s = skeleton_decoder(
mu_text). Cross reconstructions are decoded from posterior MEANS; sampling
only feeds the ELBO path. The stage-2 objective is

    total = elbo_skeleton + elbo_text + align_weight * alignment

and every gradient (all four networks plus the skeleton feature block,
the one a caller chains further back) is assembled by hand so the whole
step can be checked against finite differences with frozen noise and
frozen negatives.

Each decoder runs once per step over [self latents; cross latents], and
its (2B, d) output is also the block its backward pass reads: the ELBO
writes its reconstruction gradient over the first B rows and the
alignment loss writes align_weight times its cross-reconstruction
gradient over the last B. No separate decoder gradient block is built.

VaeParams and its MlpParams are also the checkpoint format: cli writes
and reads them field by field.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import losses, numkit
from .numkit import Array, MlpParams

if TYPE_CHECKING:
    from .cli import RunConfig


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

    # the networks' names, in the one order of every flat layout of their arrays
    NETS: ClassVar[tuple[str, ...]] = ("skel_encoder", "text_encoder",
                                       "skel_decoder", "text_decoder")

    def nets(self) -> dict[str, MlpParams]:
        return {name: getattr(self, name) for name in self.NETS}

    def param_arrays(self) -> list[Array]:
        """Each network's param_arrays(), in NETS order."""
        return [a for net in self.nets().values() for a in net.param_arrays()]

    def with_arrays(self, arrays: list[Array]) -> "VaeParams":
        rest = iter(arrays)  # in param_arrays() order
        nets = {name: net.with_arrays(list(itertools.islice(rest, 2 * len(net.weights))))
                for name, net in self.nets().items()}
        if next(rest, None) is not None:
            raise ValueError("array count mismatch")
        return VaeParams(**nets, latent_dim=self.latent_dim)


def init_vae_params(skel_dim: int, text_dim: int, latent_dim: int,
                    rng: np.random.Generator, hidden: tuple[int, ...]) -> VaeParams:
    """Fresh networks with the given hidden widths; draw order is fixed so a
    seed pins every weight."""
    h = tuple(hidden)
    return VaeParams(
        skel_encoder=numkit.init_mlp((skel_dim, *h, 2 * latent_dim), rng),
        text_encoder=numkit.init_mlp((text_dim, *h, 2 * latent_dim), rng),
        skel_decoder=numkit.init_mlp((latent_dim, *h, skel_dim), rng),
        text_decoder=numkit.init_mlp((latent_dim, *h, text_dim), rng),
        latent_dim=latent_dim,
    )


def _forward(params: VaeParams, net: str, x: Array):
    """mlp_forward through the named network; an input it refuses names it."""
    try:
        return numkit.mlp_forward(getattr(params, net), x)
    except ValueError as exc:
        raise ValueError(f"{net} {exc}") from None


def posterior(params: VaeParams, net: str, x: Array) -> tuple[Array, Array]:
    """(mu, log_var) of the named encoder over a (B, d) batch, each checked finite."""
    out, _ = _forward(params, net, x)
    ld = params.latent_dim
    mu, log_var = out[:, :ld], out[:, ld:]
    numkit.check_finite("mu", mu)
    numkit.check_finite("log_var", log_var)
    return mu, log_var


# ---- stage-2 objective with full hand backprop ----


def stage2_loss(params: VaeParams, f_s: Array, f_t: Array, labels: Array,
                negatives: Array, eps_s: Array, eps_t: Array, cfg: RunConfig,
                grads: VaeParams, feature_grads: bool):
    """The joint objective under cfg's loss knobs, and all its gradients, for one batch.

    grads is shaped like params, and every parameter gradient is written
    into its array. Returns (breakdown, d_f_s): breakdown holds the scalar
    pieces and d_f_s is the gradient w.r.t. the skeleton features, which lets
    a caller chain further back (to trainable frequency weights). The
    alignment loss computes only the skeleton anchor's gradient, the one
    d_f_s needs, and with feature_grads=False the skeleton encoder skips its
    input gradient, the alignment loss that anchor gradient too, and d_f_s
    is None.
    """
    f_s = np.asarray(f_s, dtype=np.float64)
    f_t = np.asarray(f_t, dtype=np.float64)
    b = f_s.shape[0]
    ld = params.latent_dim

    out_s, cache_enc_s = _forward(params, "skel_encoder", f_s)
    out_t, cache_enc_t = _forward(params, "text_encoder", f_t)
    mu_s, lv_s = out_s[:, :ld], out_s[:, ld:]
    mu_t, lv_t = out_t[:, :ld], out_t[:, ld:]

    # sigma * eps, kept for the reparameterization gradient
    noise_s = np.exp(0.5 * lv_s)
    noise_s *= eps_s
    noise_t = np.exp(0.5 * lv_t)
    noise_t *= eps_t

    # one pass per decoder over [self-reconstruction latents; cross latents]
    dec_s, cache_dec_s = _forward(params, "skel_decoder",
                                  np.concatenate([mu_s + noise_s, mu_t]))
    dec_t, cache_dec_t = _forward(params, "text_decoder",
                                  np.concatenate([mu_t + noise_t, mu_s]))

    # the losses overwrite each decoder output with its gradient, row block by row block
    a = cfg.align_weight
    elbo_s = losses.elbo(f_s, dec_s[:b], mu_s, lv_s, cfg.kl_weight)
    elbo_t = losses.elbo(f_t, dec_t[:b], mu_t, lv_t, cfg.kl_weight)
    batch = losses.AlignmentBatch(f_t, f_s, dec_t[b:], dec_s[b:], labels, negatives,
                                  anchor_grads=("f_s",) if feature_grads else ())
    align = losses.alignment_loss(batch, cfg, a)

    vae_value = elbo_s.value + elbo_t.value
    total = float(vae_value + a * align.value)
    if not math.isfinite(total):
        raise ValueError(f"stage-2 loss is not finite ({total})")

    # decoders: the self-reconstruction rows came from z, the cross rows from mu
    d_dec_s = numkit.mlp_backward(params.skel_decoder, cache_dec_s, dec_s,
                                  grads.skel_decoder, grad_in=True)
    d_dec_t = numkit.mlp_backward(params.text_decoder, cache_dec_t, dec_t,
                                  grads.text_decoder, grad_in=True)
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

    d_f_s = numkit.mlp_backward(
        params.skel_encoder, cache_enc_s,
        np.concatenate([d_mu_s, elbo_s.grads["log_var"] + noise_s], axis=1),
        grads.skel_encoder, grad_in=feature_grads)
    numkit.mlp_backward(
        params.text_encoder, cache_enc_t,
        np.concatenate([d_mu_t, elbo_t.grads["log_var"] + noise_t], axis=1),
        grads.text_encoder, grad_in=False)
    if feature_grads:
        # the ELBO's target gradient is minus its reconstruction gradient,
        # still in the decoder rows
        d_f_s -= dec_s[:b]
        d_f_s += align.grads["f_s"]

    breakdown = {
        "total": total,
        "vae": vae_value,
        "vae_skel": elbo_s.value,
        "vae_text": elbo_t.value,
        "align": align.value,
    }
    return breakdown, d_f_s


def sample_class_latents(params: VaeParams, fused_text: Array, n: int,
                         rng: np.random.Generator) -> Array:
    """Draw n latents from the text posterior of one class's fused vector."""
    mu, log_var = posterior(params, "text_encoder",
                            np.asarray(fused_text, dtype=np.float64)[None, :])
    eps = rng.standard_normal((n, params.latent_dim))
    z = mu + np.exp(0.5 * log_var) * eps
    numkit.check_finite("sampled latents", z)
    return z

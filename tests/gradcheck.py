"""Central-difference gradient checkers for the test suite.

pytest does not collect this module (its name has no test_ prefix); test
modules import it by name. Relative error is |a - n| / max(|a|, |n|, floor)
for an analytic value a and its central difference n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative error between analytic and central-difference gradients."""

    max_rel_error: float
    step: float

    def ok(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def _rel_error(a: float, n: float, floor: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), floor)


def grad_check(loss_fn, params: list[Array], step: float = 1e-5,
               floor: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central differences, entry by entry.

    loss_fn(params) must return (loss, grads) with grads in params order and
    must be deterministic; a second evaluation at the base point verifies
    that.
    """
    base = [p.copy() for p in params]
    loss0, grads0 = loss_fn(base)
    loss1, _ = loss_fn([p.copy() for p in base])
    if loss0 != loss1:
        raise ValueError("loss_fn is not deterministic across calls")
    worst = 0.0
    for k, p in enumerate(base):
        analytic = np.asarray(grads0[k], dtype=np.float64)
        flat = p.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lo_plus, _ = loss_fn(base)
            flat[idx] = orig - step
            lo_minus, _ = loss_fn(base)
            flat[idx] = orig
            numeric = (lo_plus - lo_minus) / (2.0 * step)
            worst = max(worst, _rel_error(analytic.reshape(-1)[idx], numeric, floor))
    return GradCheckReport(worst, step)


def directional_check(loss_fn, x: Array, directions, step: float = 1e-5,
                      floor: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of a flat vector against central
    differences along each of `directions`.

    loss_fn(x) must return (loss, grad) with grad shaped like x; it is read
    once, at x. Per direction d the analytic value is grad . d and the
    numeric one (L(x + step d) - L(x - step d)) / (2 step). Cheap at any
    size: two evaluations per direction, however long x is.
    """
    x = np.array(x, dtype=np.float64)
    _, grad = loss_fn(x.copy())
    grad = np.array(grad, dtype=np.float64)
    worst = 0.0
    for d in directions:
        lo_plus, _ = loss_fn(x + step * d)
        lo_minus, _ = loss_fn(x - step * d)
        numeric = (lo_plus - lo_minus) / (2.0 * step)
        worst = max(worst, _rel_error(float(grad @ d), numeric, floor))
    return GradCheckReport(worst, step)


def unit_directions(rng: np.random.Generator, size: int, count: int,
                    support: slice = slice(None)) -> list[Array]:
    """count random unit vectors of length size, zero outside support."""
    out = []
    for _ in range(count):
        d = np.zeros(size)
        d[support] = rng.standard_normal(d[support].size)
        out.append(d / np.linalg.norm(d))
    return out

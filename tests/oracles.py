"""Shared test oracles: finite differences and error metrics, and a
gradients stand-in for driving the optimizer without a tape.

These deliberately use only forward evaluations and plain Python
arithmetic so they stay independent of the tape's backward pass.
"""

import numpy as np


def fd_grad(f, arrays, index, h=1e-5):
    """Central finite differences of scalar f(arrays) w.r.t. arrays[index]."""
    target = arrays[index]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        saved = target[idx]
        target[idx] = saved + h
        plus = f(arrays)
        target[idx] = saved - h
        minus = f(arrays)
        target[idx] = saved
        grad[idx] = (plus - minus) / (2.0 * h)
    return grad


def rel_err(a, b):
    """Max absolute difference over the joint magnitude scale."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def entrywise_rel_err(a, b, floor=1e-6):
    """Per-entry relative errors with an absolute floor on the denominator."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def adam_trajectory(grad_fn, w0, steps, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam reference, written out longhand from the update rule."""
    import math

    w, m, v = float(w0), 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = float(grad_fn(w))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(w)
    return history


class DenseGradients:
    """Stand-in for ``tensor.Gradients`` with the one read ``Adam.step``
    makes: ``parts(key)`` hands out ``gradient(key)`` as the dense piece,
    with no product; None reads as zeros."""

    def __init__(self, gradient):
        self.gradient = gradient

    def parts(self, key):
        return self.gradient(key), None, None

"""Adam optimizer with per-parameter moment state keyed by name."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam", "check_adam_settings"]


def check_adam_settings(lr, beta1, beta2, epsilon):
    """Raise ValueError unless lr is finite and > 0, beta1 and beta2 lie in
    [0, 1) and epsilon > 0. NaN fails every test; an infinite lr makes the
    first step's update NaN wherever a moment is 0."""
    if not 0 < lr < float("inf"):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ValueError(f"beta1 and beta2 must be in [0, 1), got {beta1}, {beta2}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")


class Adam:
    """Adam with bias-corrected first and second moment estimates.

    Update per parameter: ``p -= lr * m_hat / (sqrt(v_hat) + epsilon)``
    where ``m_hat = m / (1 - beta1^t)`` and ``v_hat = v / (1 - beta2^t)``.
    Moments are stored per parameter name so optimizer state can be
    checkpointed and restored bit-exactly.
    """

    def __init__(self, named_params, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
        check_adam_settings(lr, beta1, beta2, epsilon)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.params = list(named_params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

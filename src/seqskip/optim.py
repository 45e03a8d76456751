"""Adam optimizer over a named parameter collection."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor


class Adam:
    """Bias-corrected Adam over live tensors, with per-parameter moments kept in place."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        for name, val in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 < val < 1.0:
                raise ConfigurationError(f"{name} must lie in (0,1), got {val}")
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.lr = lr
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.params = dict(params)
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.step_count = 0

    @property
    def lr(self) -> float:
        return self._lr

    @lr.setter
    def lr(self, value: float) -> None:
        if value <= 0:
            raise ConfigurationError(f"lr must be positive, got {value}")
        self._lr = value

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using each tensor's accumulated gradient.

        A parameter whose gradient is unset only has its moments decayed,
        which matches a dense Adam step with a zero gradient.
        """
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            m, v, g = self.m[name], self.v[name], p.grad
            if g is not None and g.shape != p.data.shape:
                raise ConfigurationError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}"
                )
            m *= b1
            v *= b2
            if g is not None:
                m += (1.0 - b1) * g
                v += (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            value = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
            p.data = value.astype(p.data.dtype, copy=False)

"""Adam optimizer over one flat parameter vector."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError


def positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    return value


class Adam:
    """Bias-corrected Adam that updates ``vector`` in place. The moments and
    one scratch buffer are allocated once; the consumed gradient is the
    second scratch, so a step makes no temporaries."""

    def __init__(
        self,
        vector: np.ndarray,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        for name, val in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 < val < 1.0:
                raise ConfigurationError(f"{name} must lie in (0,1), got {val}")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.epsilon = positive("epsilon", epsilon)
        self.vector = vector
        self.m, self.v, self._scratch = (np.zeros_like(vector) for _ in range(3))
        self.step_count = 0

    @property
    def lr(self) -> float:
        return self._lr

    @lr.setter
    def lr(self, value: float) -> None:
        self._lr = positive("lr", value)

    def step(self, grad: np.ndarray) -> None:
        """Apply one update with the flat gradient ``grad``, laid out like the vector.

        The step overwrites ``grad``: once the moments have read it, it
        holds scratch values."""
        if grad.shape != self.vector.shape or grad.dtype != self.vector.dtype:
            raise ConfigurationError(
                f"gradient shape {grad.shape} {grad.dtype} != parameter vector shape "
                f"{self.vector.shape} {self.vector.dtype}"
            )
        self.step_count += 1
        t, b1, b2 = self.step_count, self.beta1, self.beta2
        m, v, a, b = self.m, self.v, self._scratch, grad
        # m = b1·m + (1-b1)·g;  v = b2·v + (1-b2)·(g·g)
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=a)
        v *= b2
        v += np.multiply(np.multiply(grad, grad, out=b), 1.0 - b2, out=b)
        # vector -= lr·m_hat / (sqrt(v_hat) + epsilon)
        np.multiply(np.divide(m, 1.0 - b1**t, out=a), self.lr, out=a)
        np.sqrt(np.divide(v, 1.0 - b2**t, out=b), out=b)
        b += self.epsilon
        self.vector -= np.divide(a, b, out=a)

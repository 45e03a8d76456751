"""Sanity checks on the finite-difference suite itself."""

import numpy as np
import pytest

from seqskip import tensor as T
from seqskip.gradcheck import (
    CASES,
    DEFAULT_TRIALS,
    EPS,
    TOLERANCE,
    max_relative_error,
    run_case,
    run_suite,
)

CORE_CASES = {
    "matmul",
    "matmul_batched",
    "matmul_4d",
    "linear",
    "conv_causal_d1",
    "conv_causal_d2",
    "conv_causal_d4",
    "conv_noncausal_d1",
    "conv_noncausal_d2",
    "conv_noncausal_d4",
    "instance_norm",
    "channel_norm",
    "highway",
    "glu",
    "gated_level_highway",
    "gated_level_glu",
    "pair_linear",
    "relation_logits",
    "softmax",
    "attention_1head",
    "attention_8head",
    "bce",
    "mse",
}


def test_pinned_constants():
    assert TOLERANCE == 1e-4
    assert DEFAULT_TRIALS == 25
    assert EPS == 1e-6


def test_registry_covers_core_ops():
    assert CORE_CASES <= set(CASES)


@pytest.mark.parametrize("name", ["arith", "matmul", "linear", "softmax", "highway", "glu", "bce"])
def test_fast_cases_under_tolerance(name):
    assert run_case(name, trials=3, seed=7) < TOLERANCE


def test_run_suite_reports_every_case():
    results = run_suite(trials=1, seed=0)
    assert set(results) == set(CASES)
    assert all(err < TOLERANCE for err in results.values())


def test_detects_wrong_gradient():
    # f(x) = sum(x * stop_grad(x)) evaluates to sum(x^2), so central
    # differences see 2x while the tape reports x: the checker must
    # flag the mismatch (rel err 1/3) despite the denominator floor.
    x = np.array([0.5, -1.0, 2.0, -0.75])

    def fn(xx):
        return T.reduce_sum(T.mul(xx, T.Tensor(xx.data)))

    err = max_relative_error(fn, [x])
    assert err > 0.3
    assert err > TOLERANCE


def test_correct_gradient_same_function_shape():
    # Same value function without the stop-gradient: error collapses.
    x = np.array([0.5, -1.0, 2.0, -0.75])

    def fn(xx):
        return T.reduce_sum(T.mul(xx, xx))

    assert max_relative_error(fn, [x]) < TOLERANCE

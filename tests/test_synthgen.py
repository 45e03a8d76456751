"""Synthetic corpus generator: determinism, rates, and rule structure.

The label rules are re-derived here from the stored files (plus the
seeding scheme) rather than by calling back into the generator's
internals, so these act as independent oracles.
"""

import numpy as np
import pytest

from seqskip.dataio import load_corpus
from seqskip.errors import ConfigurationError
from seqskip.rng import rng_stream
from seqskip.synthgen import RULES, SynthConfig, generate


def _gen(tmp_path, **kw):
    cfg = SynthConfig(**kw)
    generate(cfg, tmp_path)
    return load_corpus(tmp_path)


def _session_rates(sessions) -> np.ndarray:
    """Each session's skip rate."""
    return np.add.reduceat(sessions.labels.astype(np.float64), sessions.starts) / sessions.lengths


def _seek_by_label(sessions) -> dict:
    seek = sessions.columns["seek_fwd_count"]
    return {y: seek[sessions.labels == y] for y in (0, 1)}


def test_byte_identical_regeneration(tmp_path):
    cfg = SynthConfig(n_sessions=40, rule="markov", seed=3)
    a = generate(cfg, tmp_path / "a")
    b = generate(cfg, tmp_path / "b")
    for key in ("sessions", "features", "schema"):
        assert a[key].read_bytes() == b[key].read_bytes()


def test_seed_changes_content(tmp_path):
    a = generate(SynthConfig(n_sessions=20, seed=0), tmp_path / "a")
    b = generate(SynthConfig(n_sessions=20, seed=1), tmp_path / "b")
    assert a["sessions"].read_bytes() != b["sessions"].read_bytes()


def test_output_parses_and_respects_bounds(tmp_path):
    schema, sessions, features = _gen(
        tmp_path, n_sessions=50, length_low=12, length_high=14,
        feature_dim=5, n_tracks=80)
    assert len(sessions) == 50
    assert schema.feature_dim == 5
    assert np.all((sessions.lengths >= 12) & (sessions.lengths <= 14))
    assert len(features.index) == 80
    assert features.matrix.shape == (80, 5)


def test_default_track_count_floor():
    assert SynthConfig(n_sessions=5).track_count == 64
    assert SynthConfig(n_sessions=3000).track_count == 3000
    assert SynthConfig(n_sessions=90_000).track_count == 50_000
    assert SynthConfig(n_sessions=5, n_tracks=7).track_count == 7


def test_config_validation():
    for kw in (
        {"n_sessions": 0},
        {"n_sessions": 1, "rule": "cosine"},
        {"n_sessions": 1, "noise": 0.5},
        {"n_sessions": 1, "noise": -0.1},
        {"n_sessions": 1, "length_low": 9},
        {"n_sessions": 1, "length_high": 21},
        {"n_sessions": 1, "length_low": 15, "length_high": 12},
        {"n_sessions": 1, "feature_dim": 0},
        {"n_sessions": 1, "pref_q_low": 0.0},
        {"n_sessions": 1, "pref_q_low": 0.8, "pref_q_high": 0.4},
    ):
        with pytest.raises(ConfigurationError):
            SynthConfig(**kw)


def test_all_rules_generate(tmp_path):
    for rule in RULES:
        _, sessions, _ = _gen(tmp_path / rule, n_sessions=12, rule=rule)
        assert len(sessions) == 12


def test_threshold_labels_match_rederived_rule(tmp_path):
    cfg = dict(n_sessions=400, rule="threshold", noise=0.1, seed=2)
    schema, sessions, features = _gen(tmp_path, **cfg)
    w = rng_stream(2, "synth", "rule_w").standard_normal(schema.feature_dim)
    w /= np.linalg.norm(w)
    clean = features.matrix[features.rows(sessions.track_ids)] @ w > 0
    flips = int((clean != sessions.labels.astype(bool)).sum())
    assert abs(flips / len(clean) - 0.1) < 0.02  # mismatches are exactly the noise


def test_threshold_rate_is_balanced(tmp_path):
    _, sessions, _ = _gen(tmp_path, n_sessions=400, rule="threshold",
                          noise=0.05, seed=0)
    assert abs(sessions.labels.mean() - 0.5) < 0.02


def test_preference_rates_spread_by_quantile(tmp_path):
    _, sessions, _ = _gen(tmp_path, n_sessions=400, rule="preference",
                          noise=0.0, seed=1)
    rates = _session_rates(sessions)
    # session rate approximates 1 - q with q ~ U(0.25, 0.75)
    assert abs(rates.mean() - 0.5) < 0.03
    assert rates.std() > 0.08
    assert np.all((rates > 0.05) & (rates < 0.95))


def test_preference_narrow_band_tightens_rates(tmp_path):
    _, sessions, _ = _gen(tmp_path, n_sessions=300, rule="preference",
                          noise=0.0, seed=1, pref_q_low=0.49, pref_q_high=0.51)
    rates = _session_rates(sessions)
    assert rates.std() < 0.15  # only the L-dependent cut granularity left


def test_markov_consecutive_labels_carry_information(tmp_path):
    _, sessions, _ = _gen(tmp_path, n_sessions=400, rule="markov",
                          noise=0.1, seed=0)
    joint = np.zeros((2, 2))
    within = np.ones(len(sessions.labels) - 1, dtype=bool)
    within[sessions.starts[1:] - 1] = False  # pairs that would span two sessions
    np.add.at(joint, (sessions.labels[:-1][within], sessions.labels[1:][within]), 1)
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    mi = float((joint[nz] * np.log2(joint[nz] / (px @ py)[nz])).sum())
    assert mi > 0.05  # bits; iid labels would give ~0


def test_log_leak_encodes_label_in_seek_count(tmp_path):
    _, sessions, _ = _gen(tmp_path, n_sessions=300, rule="log_leak",
                          noise=0.05, seed=0)
    seek = _seek_by_label(sessions)
    gap = np.mean(seek[1]) - np.mean(seek[0])
    assert gap > 0.8  # seek count = label + coin, so the means differ by ~1


def test_non_leak_rules_keep_logs_independent(tmp_path):
    _, sessions, _ = _gen(tmp_path, n_sessions=300, rule="threshold",
                          noise=0.05, seed=0)
    seek = _seek_by_label(sessions)
    assert abs(np.mean(seek[1]) - np.mean(seek[0])) < 0.1

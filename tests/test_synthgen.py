"""Synthetic corpus generator: determinism, rates, and rule structure.

The label rules are re-derived here from the stored files (plus the
seeding scheme) rather than by calling back into the generator's
internals, so these act as independent oracles.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from handmade import reference_generate
from hypothesis import given
from hypothesis import strategies as st

from seqskip.dataio import load_corpus
from seqskip.errors import ConfigurationError
from seqskip.rng import rng_stream
from seqskip.synthgen import (
    PREF_Q_HIGH,
    PREF_Q_LOW,
    RULES,
    SynthConfig,
    _row_quantiles,
    generate,
)

FILES = ("sessions", "features", "schema")


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
        {"n_sessions": 1, "n_tracks": 0},
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


# SHA-256 of (sessions.csv, features.csv, schema.json), made by the
# per-session generator that ``handmade.reference_generate`` keeps.
# Every criterion's figure rests on these bytes; a change here is a new
# corpus, not a refactor.
PINNED = [
    ('threshold-s11', {'n_sessions': 120, 'rule': 'threshold', 'seed': 11},
     ('4e9c2efaa1427bb1343f8806f6e74b92a225cebdcff8a20a917cb66441cffe1a',
      '6966375efcaab5d2be5672878b3697823d5cc7d0b6cdc502805d944e52f13162',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('threshold-s2^32+5', {'n_sessions': 120, 'rule': 'threshold', 'seed': 2**32 + 5},
     ('6ce2a31905b9d7ede80339c4c4cc851cea78abc8c8df28f71ed996d46f3c247b',
      '29d30a09756a65e895edc6562cb05d6982769ef3c9bda56b7223f942f54c5b84',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('preference-s11', {'n_sessions': 120, 'rule': 'preference', 'seed': 11},
     ('29b63a901f647e29d93a83defa5524bcfdb42e6c163c6ce9b69657ad8244c4dc',
      '6966375efcaab5d2be5672878b3697823d5cc7d0b6cdc502805d944e52f13162',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('preference-s2^32+5', {'n_sessions': 120, 'rule': 'preference', 'seed': 2**32 + 5},
     ('9d25452bedc0070a171f0e56e597dd4197de4ce4647341b381d426fdde0bd684',
      '29d30a09756a65e895edc6562cb05d6982769ef3c9bda56b7223f942f54c5b84',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('markov-s11', {'n_sessions': 120, 'rule': 'markov', 'seed': 11},
     ('6ef01e5590a25f3527761aff3ee1053f220d48ae8e751f3aba30389860966a5c',
      '6966375efcaab5d2be5672878b3697823d5cc7d0b6cdc502805d944e52f13162',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('markov-s2^32+5', {'n_sessions': 120, 'rule': 'markov', 'seed': 2**32 + 5},
     ('68ddc6f8d58184c2fc26c7209e77a0a443d37bc0f38f5e165d72d0229f8618b8',
      '29d30a09756a65e895edc6562cb05d6982769ef3c9bda56b7223f942f54c5b84',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('log_leak-s11', {'n_sessions': 120, 'rule': 'log_leak', 'seed': 11},
     ('7941b18143fc64006ec87c027ee15ea4674dbe7b9c6ca5e92ffac1eba7b836ca',
      '6966375efcaab5d2be5672878b3697823d5cc7d0b6cdc502805d944e52f13162',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('log_leak-s2^32+5', {'n_sessions': 120, 'rule': 'log_leak', 'seed': 2**32 + 5},
     ('3e3a7f3c4acc94fef4e18c07529c426a09f63041fa0b26e8c61e1a3f05ae2758',
      '29d30a09756a65e895edc6562cb05d6982769ef3c9bda56b7223f942f54c5b84',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('markov-dim5', {'n_sessions': 100, 'rule': 'markov', 'seed': 4, 'feature_dim': 5},
     ('41835c92bd00d0ed67dec498710157c020dffa85560c1c801bb5610e9c4229db',
      'b35f108e0f612e3ad03b2877cee46166a88709ee342af1f0cfc78da0d7545f7b',
      '5e3c38a3be55f272bc564708926c6a3de503ca4bde78836ad74c3004a0b0e7d1')),
    ('preference-q0.1-0.9', {'n_sessions': 100, 'rule': 'preference', 'seed': 6, 'pref_q_low': 0.1, 'pref_q_high': 0.9},
     ('b1aba1db0fcff69594074f7f4f45ab7d28f2dc2467b8814205319e1f74bc1cf7',
      '9fc4662f30e2014dab78322272f63415bc3159c6b6d86e08e82ce840327cce7e',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('log_leak-len13', {'n_sessions': 100, 'rule': 'log_leak', 'seed': 8, 'length_low': 13, 'length_high': 13},
     ('ef0b9aa5b9750a42484ffcd2ffa481f0d494e4a83fa9a95ed22e2a99012fd509',
      '0104f6cc1ab88a049f6ae4e81694ce1e9f0aa58cd09575d5b4651f7d571a507b',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('threshold-noise0', {'n_sessions': 100, 'rule': 'threshold', 'seed': 9, 'noise': 0.0},
     ('0e2a693a059ceff0fe4e792b75ae9f22406d528f0556b793ade8cbd959951923',
      '78c4c2e9eec98e7c392ebe38389eeeb4fd91b42c4e0a038e7d5bf7670c5d5fae',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
    ('preference-tracks64', {'n_sessions': 300, 'rule': 'preference', 'seed': 10, 'n_tracks': 64},
     ('bcb1489eac887aa36ecac1e374f8d5c98815b5c33de662bc79756f2cd5c2ec80',
      'b9d86279af7e516aaae9c6641fff49644a3852f1f8cc0f8ed1f41e71d0f1092b',
      'df2bf4cd95a65f077796c73ad5095a9358f746ac9284c321213fb299ab35ba85')),
]


@pytest.mark.parametrize("name,kw,digests", PINNED, ids=[p[0] for p in PINNED])
def test_corpus_bytes_are_pinned(tmp_path, name, kw, digests):
    paths = generate(SynthConfig(**kw), tmp_path)
    got = tuple(hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in FILES)
    assert got == digests


@st.composite
def synth_configs(draw):
    low = draw(st.integers(10, 20))
    q_low = draw(st.floats(0.01, 0.99))
    return SynthConfig(
        n_sessions=draw(st.integers(1, 120)),
        rule=draw(st.sampled_from(RULES)),
        noise=draw(st.floats(0.0, 0.49)),
        seed=draw(st.integers(0, 2**40)),
        feature_dim=draw(st.integers(1, 24)),
        length_low=low,
        length_high=draw(st.integers(low, 20)),
        n_tracks=draw(st.none() | st.integers(1, 200)),
        pref_q_low=q_low,
        pref_q_high=draw(st.floats(q_low, 0.99)),
    )


@given(synth_configs())
def test_generate_writes_the_per_session_reference_bytes(config):
    with tempfile.TemporaryDirectory() as d:
        got = generate(config, Path(d) / "got")
        want = reference_generate(config, Path(d) / "want")
        for key in FILES:
            assert got[key].read_bytes() == want[key].read_bytes(), key


@pytest.mark.parametrize("rule", RULES)
def test_a_smaller_corpus_is_a_prefix_of_a_larger_one(tmp_path, rule):
    # No state (markov history, a preference cut's rows) crosses sessions
    # or reads padded positions: session i's rows depend on i alone.
    small = generate(SynthConfig(n_sessions=50, rule=rule, seed=5, n_tracks=64), tmp_path / "s")
    large = generate(SynthConfig(n_sessions=80, rule=rule, seed=5, n_tracks=64), tmp_path / "l")
    small_rows = small["sessions"].read_text().splitlines()
    large_rows = large["sessions"].read_text().splitlines()
    assert large_rows[: len(small_rows)] == small_rows
    assert large_rows[len(small_rows)].startswith("s000050,")
    assert small["features"].read_bytes() == large["features"].read_bytes()


def test_row_quantiles_equal_numpy_quantile_bit_for_bit():
    # Against the installed numpy, so a change to np.quantile shows here
    # rather than as silently different corpora.
    rng = np.random.default_rng(0)
    n = 3000
    lengths = rng.integers(10, 21, size=n)
    values = rng.standard_normal((n, 20))
    values[::3] = rng.choice(rng.standard_normal(4), size=(n, 20))[::3]  # ties
    values[np.arange(20) >= lengths[:, None]] = 1e9  # padding must not be read
    q = rng.uniform(PREF_Q_LOW, PREF_Q_HIGH, size=n)
    q[1::4] = rng.uniform(0.01, 0.99, size=len(q[1::4]))
    q[::5] = np.resize([PREF_Q_LOW, 0.5, PREF_Q_HIGH], len(q[::5]))
    got = _row_quantiles(values, lengths, q)
    want = np.array([np.quantile(v[:length], float(c)) for v, length, c in zip(values, lengths, q)])
    assert got.tobytes() == want.tobytes()

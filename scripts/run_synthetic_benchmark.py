#!/usr/bin/env python3
"""Train the model zoo across synthetic rules and tabulate validation MAA.

Each rule routes label information through a different channel, so the
table makes the family trade-offs visible: sequence models should win on
markov, metric models on preference, and the teacher on log_leak.

Example:
    python scripts/run_synthetic_benchmark.py --rules markov preference \
        --n 8000 --epochs 3 --width 32 --out /tmp/bench
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from seqskip.dataio import load_corpus, split_session
from seqskip.metrics import BASELINES, SessionPrediction, baseline, corpus_maa
from seqskip.models import KINDS, default_config
from seqskip.synthgen import RULES, SynthConfig, generate
from seqskip.trainer import TrainConfig, split_train_val, train

DEFAULT_MODELS = {
    "threshold": ["seq1HL", "rnbc2_ue"],
    "preference": ["rnb1", "rnb2_ue", "rnbc2_ue", "seq1HL"],
    "markov": ["seq1HL", "seq1eH", "rnbc2_ue"],
    "log_leak": ["seq1HL", "teacher"],
}


def baseline_maa(kind: str, sessions) -> float:
    # Baselines need no preprocessing stats beyond episode splitting.
    preds = []
    for rec in sessions:
        t_s = len(split_session(rec.length)[0])
        truth = rec.labels[t_s:]
        guess = baseline(kind, rec.labels[:t_s], truth.size)
        preds.append(SessionPrediction(rec.session_id, guess, truth))
    return corpus_maa(preds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rules", nargs="+", choices=RULES, default=list(RULES))
    ap.add_argument("--models", nargs="+", choices=KINDS, default=None,
                    help="override the per-rule model selection")
    ap.add_argument("--n", type=int, default=8000)
    ap.add_argument("--noise", type=float, default=None,
                    help="label flip probability (default: per-rule)")
    ap.add_argument("--feature-dim", type=int, default=16)
    ap.add_argument("--width", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=5)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--length-low", type=int, default=10)
    ap.add_argument("--q-low", type=float, default=0.25)
    ap.add_argument("--q-high", type=float, default=0.75)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="/tmp/seqskip_bench")
    args = ap.parse_args()

    per_rule_noise = {"threshold": 0.05, "preference": 0.05, "markov": 0.1, "log_leak": 0.05}
    rows = []
    for rule in args.rules:
        noise = args.noise if args.noise is not None else per_rule_noise[rule]
        data_dir = Path(args.out) / (
            f"{rule}_n{args.n}_noise{noise}_f{args.feature_dim}"
            f"_l{args.length_low}_q{args.q_low}-{args.q_high}_s{args.seed}"
        )
        if not (data_dir / "sessions.csv").exists():
            t0 = time.time()
            generate(
                SynthConfig(
                    n_sessions=args.n,
                    rule=rule,
                    noise=noise,
                    seed=args.seed,
                    feature_dim=args.feature_dim,
                    length_low=args.length_low,
                    pref_q_low=args.q_low,
                    pref_q_high=args.q_high,
                ),
                data_dir,
            )
            print(f"[{rule}] generated {args.n} sessions in {time.time() - t0:.1f}s")
        schema, sessions, features = load_corpus(data_dir)

        _, val_sessions = split_train_val(sessions, 0.8, args.seed)
        for bkind in BASELINES:
            maa = baseline_maa(bkind, val_sessions)
            rows.append((rule, f"baseline:{bkind}", maa, 0.0))
            print(f"[{rule}] baseline {bkind:>18s}: val MAA {maa:.4f}")

        for kind in args.models or DEFAULT_MODELS[rule]:
            cfg = TrainConfig(
                model=default_config(kind, width=args.width, seed=args.seed),
                batch_size=args.batch_size,
                base_lr=args.lr,
                max_epochs=args.epochs,
                seed=args.seed,
            )
            t0 = time.time()
            result = train(cfg, sessions, features, schema,
                           log=lambda s: print(f"[{rule}/{kind}] {s}"))
            dt = time.time() - t0
            rows.append((rule, kind, result.best_val_maa, dt))
            print(f"[{rule}] {kind:>18s}: val MAA {result.best_val_maa:.4f} ({dt:.0f}s)")

    print("\nrule            model                   val MAA   train s")
    for rule, kind, maa, dt in rows:
        print(f"{rule:<15s} {kind:<22s} {maa:.4f}    {dt:6.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

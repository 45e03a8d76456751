"""Command-line entry point: gen-data / fit / evaluate / predict / grad-check.

Every artifact-producing run writes a JSON manifest with the fully
resolved arguments; re-running the subcommand with ``--from-manifest``
on that file reproduces the run (other flags are then ignored).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import load_corpus, load_features, load_schema, load_sessions, read_utf8
from .errors import SeqskipError, ValidationError
from .gradcheck import DEFAULT_TRIALS, TOLERANCE, run_suite
from .metrics import (
    SessionPrediction,
    binarize,
    corpus_maa,
    per_session_aa,
    read_predictions,
    write_predictions,
)
from .models import GATES, KINDS, default_config
from .synthgen import RULES, SynthConfig, generate
from .trainer import (
    LOSS_SCOPES,
    TrainConfig,
    build_episodes,
    evaluate_episodes,  # noqa: F401  unused here; perfbench traces it by this name
    load_model,
    predict_corpus,
    score_episodes,
    train,
)

_SKIP_MANIFEST_KEYS = ("func", "from_manifest", "started")
# Products split their rows among BLAS threads, so output bits can depend on these.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _manifest_args(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _SKIP_MANIFEST_KEYS}


def _write_manifest(path, command: str, args: argparse.Namespace, artifacts: dict) -> None:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    payload = {
        "version": __version__,
        "command": command,
        "args": _manifest_args(args),
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "run": {"wall_s": round(time.perf_counter() - args.started, 6), "numpy": np.__version__,
                "peak_rss_mb": rss / (2**20 if sys.platform == "darwin" else 2**10),
                "cpu_count": os.cpu_count(),
                **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _reparse(path, action: argparse.Action, value):
    """A stored manifest value as its flag parses it from the command line."""
    if value is None and action.default is None and not action.required:
        return None
    where = f"manifest {path} argument {'/'.join(action.option_strings)}"
    parse = action.type or str
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"{where}: invalid value {value!r}")
    try:
        parsed = parse(str(value))
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: invalid {parse.__name__} value {value!r}") from None
    if action.choices is not None and parsed not in action.choices:
        raise ValidationError(f"{where}: invalid choice {value!r}")
    return parsed


def _maybe_load_manifest(args: argparse.Namespace, command: str) -> argparse.Namespace:
    if not getattr(args, "from_manifest", None):
        return args
    try:
        payload = json.loads(read_utf8(args.from_manifest))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read manifest {args.from_manifest}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("args"), dict):
        raise ValidationError(f"manifest {args.from_manifest} has no 'args' object")
    if payload.get("command") != command:
        raise ValidationError(
            f"manifest is for {payload.get('command')!r}, not {command!r}"
        )
    stored = dict(payload["args"])
    missing = sorted(set(_manifest_args(args)) - set(stored) - {"command"})
    if missing:
        raise ValidationError(f"manifest {args.from_manifest} lacks arguments {missing}")
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    for action in commands.choices[command]._actions:
        if action.dest in stored:
            stored[action.dest] = _reparse(args.from_manifest, action, stored[action.dest])
    stored.update(func=args.func, from_manifest=None, started=args.started)
    return argparse.Namespace(**stored)


# -- subcommands -------------------------------------------------------


def cmd_gen_data(args) -> int:
    args = _maybe_load_manifest(args, "gen-data")
    config = SynthConfig(
        n_sessions=args.n,
        rule=args.rule,
        noise=args.noise,
        seed=args.seed,
        feature_dim=args.feature_dim,
        length_low=args.length_low,
        length_high=args.length_high,
        n_tracks=args.tracks,
    )
    paths = generate(config, args.out)
    _write_manifest(Path(args.out) / "gen_manifest.json", "gen-data", args, paths)
    for name, p in paths.items():
        print(f"wrote {name}: {p}")
    return 0


def cmd_fit(args) -> int:
    args = _maybe_load_manifest(args, "fit")
    schema, sessions, features = load_corpus(args.data)
    model_cfg = default_config(args.model, width=args.width, seed=args.seed, gate=args.gate)
    out = Path(args.out) if args.out else Path(args.data) / f"model_{args.model}.ckpt"
    train_cfg = TrainConfig(
        model=model_cfg,
        train_fraction=args.train_fraction,
        batch_size=args.batch_size,
        base_lr=args.lr,
        anneal_factor=args.anneal,
        max_epochs=args.epochs,
        seed=args.seed,
        loss_scope=args.loss_scope,
        checkpoint_path=str(out),
        grad_clip=args.grad_clip,
    )
    result = train(train_cfg, sessions, features, schema, log=print)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"), "fit", args, {"checkpoint": out}
    )
    print(f"best val_maa={result.best_val_maa:.6f} at epoch {result.best_epoch}")
    print(f"wrote checkpoint: {out}")
    return 0


def _truth_by_session(data_dir, schema):
    sessions = load_sessions(Path(data_dir) / "sessions.csv", schema)
    cuts = (sessions.starts + sessions.t_support).tolist()  # first query row
    ends = (sessions.starts + sessions.lengths).tolist()
    return {sid: sessions.labels[a:b] for sid, a, b in zip(sessions.ids, cuts, ends)}


def _model_and_episodes(checkpoint, data: Path):
    """A checkpoint's model and the episodes of a data directory's sessions, which must
    hold at least one session."""
    model, stats, schema, _ = load_model(checkpoint)
    sessions = load_sessions(data / "sessions.csv", schema)
    if not len(sessions):
        raise ValidationError(f"session file {data / 'sessions.csv'} holds no sessions")
    features = load_features(data / "features.csv", schema)
    return model, build_episodes(sessions, features, stats, schema, model.config.kind)


def cmd_evaluate(args) -> int:
    args = _maybe_load_manifest(args, "evaluate")
    data = Path(args.data)
    if args.checkpoint:
        model, episodes = _model_and_episodes(args.checkpoint, data)
        preds = score_episodes(model, episodes, batch_size=args.batch_size)
    else:
        # Scoring wire predictions needs the query labels only: one parse
        # of sessions.csv, none of features.csv.
        truth = _truth_by_session(data, load_schema(data / "schema.json"))
        wire = read_predictions(args.predictions)
        preds, seen = [], set()
        for sid, bits in wire:
            if sid not in truth:
                raise ValidationError(f"prediction for unknown session {sid!r}")
            if sid in seen:
                raise ValidationError(f"repeated prediction for session {sid!r}")
            seen.add(sid)
            preds.append(SessionPrediction(sid, bits, truth[sid]))
        # MAA is over the corpus: a session left out would drop out of the mean.
        missing = [sid for sid in truth if sid not in seen]
        if missing:
            raise ValidationError(
                f"{len(missing)} corpus sessions have no prediction, first {missing[0]!r}"
            )
    if not args.per_session:
        print(f"MAA={corpus_maa(preds):.9f}")
        return 0
    aa = per_session_aa(preds)  # once: the MAA printed is the mean of the lines written
    print(f"MAA={aa.mean():.9f}")
    lines = [f"{sp.session_id},{v:.9f}" for sp, v in zip(preds, aa)]
    out = Path(args.per_session)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out.with_suffix(".manifest.json"), "evaluate", args, {"per_session": out})
    print(f"wrote per-session AA: {args.per_session}")
    return 0


def cmd_predict(args) -> int:
    args = _maybe_load_manifest(args, "predict")
    model, episodes = _model_and_episodes(args.checkpoint, Path(args.data))
    rows = [
        (sid, binarize(probs))
        for sid, probs in predict_corpus(model, episodes, batch_size=args.batch_size)
    ]
    write_predictions(args.out, rows)
    _write_manifest(
        Path(args.out).with_suffix(".manifest.json"), "predict", args, {"predictions": args.out}
    )
    print(f"wrote predictions: {args.out}")
    return 0


def cmd_grad_check(args) -> int:
    results = run_suite(trials=args.trials, seed=args.seed)
    for name in sorted(results):
        print(f"{name}: {results[name]:.3e}")
    worst = max(results.values())
    print(f"max_rel_err={worst:.6e} tolerance={TOLERANCE:g}")
    if worst >= TOLERANCE:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    return 0


# -- parser ------------------------------------------------------------


def _add_manifest_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--from-manifest",
        default=None,
        help="re-run with the arguments stored in a previous run's manifest",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqskip",
        description="Session skip prediction: synthetic data, training, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus")
    g.add_argument("--rule", choices=RULES, default="threshold")
    g.add_argument("--n", type=int, required=True, help="number of sessions")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=float, default=0.1, help="label flip probability")
    g.add_argument("--feature-dim", type=int, default=16)
    g.add_argument("--length-low", type=int, default=10)
    g.add_argument("--length-high", type=int, default=20)
    g.add_argument("--tracks", type=int, default=None, help="track pool size")
    g.add_argument("--out", required=True, help="output directory")
    _add_manifest_flag(g)
    g.set_defaults(func=cmd_gen_data)

    f = sub.add_parser("fit", help="train a model on a data directory")
    f.add_argument("--data", required=True)
    f.add_argument("--model", choices=KINDS, required=True)
    f.add_argument("--width", type=int, default=32)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--epochs", type=int, default=5)
    f.add_argument("--batch-size", type=int, default=64)
    f.add_argument("--lr", type=float, default=1e-3)
    f.add_argument("--anneal", type=float, default=0.7)
    f.add_argument("--train-fraction", type=float, default=0.8)
    f.add_argument("--loss-scope", choices=LOSS_SCOPES, default="query_only")
    f.add_argument("--gate", choices=GATES, default="highway")
    f.add_argument("--grad-clip", type=float, default=None)
    f.add_argument("--out", default=None, help="checkpoint path")
    _add_manifest_flag(f)
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("evaluate", help="score a checkpoint or a prediction file")
    e.add_argument("--data", required=True)
    src = e.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint")
    src.add_argument("--predictions")
    e.add_argument("--batch-size", type=int, default=64)
    e.add_argument("--per-session", default=None, help="write per-session AA lines here")
    _add_manifest_flag(e)
    e.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write predictions in the wire format")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", required=True)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_predict)

    c = sub.add_parser("grad-check", help="run the finite-difference suite")
    c.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except (SeqskipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Where the traced run wraps the program, and how spans become layer metrics.

Each site is a public function at the name its caller looks it up, so
the span sits on the boundary between two layers. Per-layer metrics are
summed over the spans of one closed-loop pass (one root span) and the
run reports their median across traced passes.
"""

from __future__ import annotations

import importlib

from spans import (
    MB,
    Tracer,
    children_of,
    count_len,
    file_bytes,
    median,
    quantile,
    self_seconds,
    tape_hook,
)

# (module, attribute path, span name, hook). An attribute path with a dot
# names a method on a class of that module.
SITES = [
    ("seqskip.cli", "generate", "cli.generate", None),
    ("seqskip.cli", "load_corpus", "cli.load_corpus", None),
    ("seqskip.cli", "load_sessions", "cli.load_sessions", None),
    ("seqskip.cli", "load_features", "cli.load_features", None),
    ("seqskip.dataio", "load_sessions", "dataio.load_sessions", None),
    ("seqskip.dataio", "load_features", "dataio.load_features", None),
    ("seqskip.cli", "load_model", "cli.load_model", None),
    ("seqskip.cli", "train", "cli.train", None),
    ("seqskip.cli", "build_episodes", "cli.build_episodes", count_len("episodes")),
    ("seqskip.cli", "predict_corpus", "cli.predict_corpus", None),
    ("seqskip.cli", "evaluate_episodes", "cli.evaluate_episodes", None),
    ("seqskip.cli", "corpus_maa", "cli.corpus_maa", None),
    ("seqskip.cli", "per_session_aa", "cli.per_session_aa", None),
    ("seqskip.cli", "read_predictions", "cli.read_predictions", None),
    ("seqskip.cli", "write_predictions", "cli.write_predictions", None),
    ("seqskip.trainer", "fit_stats", "trainer.fit_stats", None),
    ("seqskip.trainer", "build_episodes", "trainer.build_episodes", count_len("episodes")),
    ("seqskip.trainer", "make_batches", "trainer.make_batches", count_len("batches")),
    ("seqskip.trainer", "batch_loss", "trainer.batch_loss", tape_hook),
    ("seqskip.trainer", "evaluate_episodes", "trainer.evaluate_episodes", None),
    ("seqskip.trainer", "predict_corpus", "trainer.predict_corpus", None),
    ("seqskip.trainer", "corpus_maa", "trainer.corpus_maa", None),
    ("seqskip.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", file_bytes),
    ("seqskip.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", file_bytes),
    ("seqskip.tensor", "Tensor.backward", "Tensor.backward", None),
    ("seqskip.optim", "Adam.step", "Adam.step", None),
    ("seqskip.models", "Model.query_probs", "Model.query_probs", None),
    ("seqskip.models", "Model.forward_sequence", "Model.forward_sequence", None),
    ("seqskip.models", "Model.forward_metric", "Model.forward_metric", None),
]

LOAD = {"cli.load_corpus", "cli.load_sessions", "cli.load_features",
        "dataio.load_sessions", "dataio.load_features"}
PARSES = LOAD - {"cli.load_corpus"}
EPISODES = {"cli.build_episodes", "trainer.build_episodes"}
AA = {"cli.corpus_maa", "cli.per_session_aa", "trainer.corpus_maa"}
FORWARD = {"Model.forward_sequence", "Model.forward_metric"}

# Commands the workloads run, named as their spans ``cli.<label>``.
COMMANDS = ("gen-data", "fit", "predict", "evaluate", "evaluate-wire")

# Layer metric -> unit, in the order the run reports them.
UNITS = {
    "synthgen.generate_s": "s",
    "dataio.load_s": "s",
    "dataio.load_calls": "count",
    "dataio.fit_stats_s": "s",
    "dataio.episodes_s": "s",
    "dataio.episodes": "count",
    "dataio.batch_s": "s",
    "dataio.batches": "count",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p90": "ms",
    "trainer.steps": "count",
    "trainer.val_eval_s": "s",
    "models.forward_s": "s",
    "models.infer_s": "s",
    "tensor.backward_s": "s",
    "tensor.tape_nodes": "count",
    "tensor.tape_mb": "MB",
    "optim.adam_s": "s",
    "metrics.aa_s": "s",
    "metrics.aa_calls": "count",
    "metrics.wire_write_s": "s",
    "metrics.wire_read_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "bytes",
    **{f"cli.self_s.{c}": "s" for c in COMMANDS},
}


def register_sites(tracer: Tracer) -> None:
    for module_name, path, name, hook in SITES:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *cls, attr = path.split(".")
        if owner is not None and cls:
            owner = vars(owner).get(cls[0])
        tracer.site(owner, attr, name, hook)


def pass_metrics(spans) -> dict[str, float]:
    """Layer metrics of one closed-loop pass, from the spans under its root."""
    kids = children_of(spans)
    by_id = {s.sid: s for s in spans}

    def total(names):
        return sum(s.seconds for s in spans if s.name in names)

    def outermost(names):
        return sum(s.seconds for s in spans if s.name in names
                   and (s.parent is None or by_id[s.parent].name not in names))

    under_infer = set()
    for s in spans:
        if s.name == "Model.query_probs":
            under_infer.update(c.sid for c in kids.get(s.sid, ()))

    steps = []
    loss_start = None
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "trainer.batch_loss":
            loss_start = s.start
        elif s.name == "Adam.step" and loss_start is not None:
            steps.append((s.end - loss_start) / 1e6)
            loss_start = None

    tapes = [s.attrs for s in spans if s.name == "trainer.batch_loss" and s.attrs]
    saved = [s.attrs["bytes"] for s in spans
             if s.name.startswith("checkpoint.") and "bytes" in s.attrs]
    out = {
        "dataio.load_s": outermost(LOAD),
        "dataio.load_calls": sum(1 for s in spans if s.name in PARSES),
        "dataio.fit_stats_s": total({"trainer.fit_stats"}),
        "dataio.episodes_s": total(EPISODES),
        "dataio.episodes": sum(s.attrs.get("episodes", 0) for s in spans if s.name in EPISODES),
        "dataio.batch_s": total({"trainer.make_batches"}),
        "dataio.batches": sum(s.attrs.get("batches", 0) for s in spans
                              if s.name == "trainer.make_batches"),
        "trainer.step_ms_p50": quantile(steps, 0.5),
        "trainer.step_ms_p90": quantile(steps, 0.9),
        "trainer.steps": len(steps),
        "trainer.val_eval_s": total({"trainer.evaluate_episodes"}),
        "models.forward_s": sum(s.seconds for s in spans
                                if s.name in FORWARD and s.sid not in under_infer),
        "models.infer_s": total({"Model.query_probs"}),
        "tensor.backward_s": total({"Tensor.backward"}),
        "tensor.tape_nodes": median(t["tape_nodes"] for t in tapes),
        "tensor.tape_mb": max((t["tape_bytes"] for t in tapes), default=0) / MB,
        "optim.adam_s": total({"Adam.step"}),
        "metrics.aa_s": total(AA),
        "metrics.aa_calls": sum(1 for s in spans if s.name in AA),
        "metrics.wire_write_s": total({"cli.write_predictions"}),
        "metrics.wire_read_s": total({"cli.read_predictions"}),
        "checkpoint.save_s": total({"checkpoint.save_checkpoint"}),
        "checkpoint.load_s": total({"checkpoint.load_checkpoint"}),
        "checkpoint.bytes": max(saved, default=0),
        "synthgen.generate_s": total({"cli.generate"}),
    }
    for command in COMMANDS:
        out[f"cli.self_s.{command}"] = sum(
            self_seconds(s, kids) for s in spans if s.name == f"cli.{command}"
        )
    return out


def group_by_root(spans) -> dict[int, list]:
    out: dict[int, list] = {}
    for s in spans:
        out.setdefault(s.root, []).append(s)
    return out

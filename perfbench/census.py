"""Zoo census: tape size and forward/backward time of every model kind.

Each kind runs its training loss forward and backward on one fixed
batch: 64 sessions of a seed-0 ``threshold`` corpus at width 32, so the
figures compare kinds with each other and one commit with the next,
whatever the workload seed.
"""

from __future__ import annotations

import time
from pathlib import Path

from spans import MB, TAPE_WALK, median, tape_size

BATCH = 64
WIDTH = 32
REPEATS = 3  # timed passes per kind, after one warm-up pass

# The kinds named in the program's documentation; the census reports each.
KINDS = ("rnb1", "rnb2_ue", "rnbc2_ue", "seq1eH", "seq1HL", "att_pair",
         "transformer", "snail", "teacher")

FIELDS = {"tape_nodes": "count", "tape_mb": "MB", "forward_ms": "ms", "backward_ms": "ms"}


def units() -> dict[str, str]:
    return {f"census.{k}.{f}": u for k in KINDS for f, u in FIELDS.items()}


def run_census(work: Path) -> tuple[dict[str, float], list[str]]:
    """Metrics for every kind, plus the errors of kinds that could not run.

    The census calls the program's library API directly; a kind whose
    API has moved reports an error and zeros instead of stopping the run.
    """
    out = {name: 0.0 for name in units()}
    errors = []
    try:
        from seqskip import dataio, models, synthgen, trainer

        corpus = work / "census"
        synthgen.generate(synthgen.SynthConfig(n_sessions=BATCH, rule="threshold", seed=0), corpus)
        schema, sessions, features = dataio.load_corpus(corpus)
        stats = dataio.fit_stats(sessions, features, schema)
    except (ImportError, AttributeError, TypeError) as exc:
        return out, [f"census set-up: {exc!r}"]
    for kind in KINDS:
        try:
            model = models.build(models.default_config(kind, width=WIDTH, seed=0),
                                 schema.full_width)
            episodes = trainer.build_episodes(sessions, features, stats, schema, kind)
            batch = dataio.make_batch(episodes)
            forward, backward = [], []
            for rep in range(1 + REPEATS):
                t0 = time.perf_counter_ns()
                loss = trainer.batch_loss(model, batch)
                t1 = time.perf_counter_ns()
                loss.backward()
                t2 = time.perf_counter_ns()
                if rep:
                    forward.append((t1 - t0) / 1e6)
                    backward.append((t2 - t1) / 1e6)
                for p in model.params.values():
                    p.zero_grad()
            size = tape_size(loss)
        except (AttributeError, TypeError, KeyError, ValueError) as exc:
            errors.append(f"{kind}: {exc!r}")
            continue
        if size is None:
            errors.append(f"{kind}: {TAPE_WALK} not found; tape figures read 0")
            size = (0, 0)
        nodes, nbytes = size
        out[f"census.{kind}.tape_nodes"] = nodes
        out[f"census.{kind}.tape_mb"] = nbytes / MB
        out[f"census.{kind}.forward_ms"] = median(forward)
        out[f"census.{kind}.backward_ms"] = median(backward)
    return out, errors

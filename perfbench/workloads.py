"""The three workloads: set-up, one closed-loop pass, and output checks.

Every command goes through the program's user entry point,
``seqskip.cli.main(argv)``, with the argv a user would type. Checks read
only what a user can see: exit codes, printed ``MAA=`` / ``val_maa=``
values and the files the commands write. Truth labels and the label
baselines come from the benchmark's own parse of ``sessions.csv``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Pinned rather than left to the CLI defaults, so a later default change
# cannot silently change a workload's shape.
TRAIN_FRACTION = 0.8
BATCH_SIZE = 64

# -- operation accounting -------------------------------------------------


@dataclass
class Ops:
    """Commands and output checks attempted, and those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class Command:
    label: str
    ok: bool
    stdout: str
    seconds: float


class Runner:
    """Runs CLI commands in-process; records a span per command when traced."""

    def __init__(self, cli_main, ops: Ops):
        self.cli_main = cli_main
        self.ops = ops
        self.tracer = None

    def __call__(self, label: str, argv: list[str]) -> Command:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{label}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a crash is one failed command
                traceback.print_exc(file=err)
                code = -1
        seconds = time.perf_counter() - t0
        ok = self.ops.check(code == 0, f"{label} exits 0 (got {code})")
        if not ok:
            sys.stderr.write(f"[perfbench] {' '.join(argv)} failed:\n{err.getvalue()}\n")
        return Command(label, ok, out.getvalue(), seconds)


@dataclass
class Sample:
    """One closed-loop pass: timed commands and the quality they reported."""

    sessions: int  # sessions processed, summed over the timed commands
    seconds: float  # wall time of the timed commands
    maa: float
    commands: dict  # label -> (sessions, seconds)

    @property
    def rate(self) -> float:
        return self.sessions / self.seconds


# -- benchmark-owned truth and scoring ------------------------------------


def read_labels(corpus: Path) -> dict[str, list[int]]:
    """session id -> skip labels in position order, sessions in file order."""
    schema = json.loads((corpus / "schema.json").read_text(encoding="utf-8"))
    sid_col, pos_col, y_col = schema["session_id"], schema["position"], schema["skip_label"]
    rows: dict[str, list[tuple[int, int]]] = {}
    with open(corpus / "sessions.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row[sid_col], []).append((int(row[pos_col]), int(row[y_col])))
    return {sid: [y for _, y in sorted(pairs)] for sid, pairs in rows.items()}


def support_len(length: int) -> int:
    """The support set is the first ceil(L/2) tracks; the rest are queries."""
    return math.ceil(length / 2)


def read_truth(corpus: Path) -> dict[str, list[int]]:
    """session id -> query labels."""
    return {sid: y[support_len(len(y)) :] for sid, y in read_labels(corpus).items()}


def average_accuracy(pred, truth) -> float:
    """sum_i A(i) * L(i) / T, with A(i) the accuracy of the first i guesses."""
    correct = 0
    total = 0.0
    for i, (p, t) in enumerate(zip(pred, truth), start=1):
        if p == t:
            correct += 1
            total += correct / i
    return total / len(truth)


def baselines(corpus: Path) -> dict[str, float]:
    """MAA of the all-skip, all-no-skip and carry-last-support guesses."""
    guesses = {
        "all_skip": lambda last, n: [1] * n,
        "all_no_skip": lambda last, n: [0] * n,
        "carry_last_support": lambda last, n: [last] * n,
    }
    sessions = list(read_labels(corpus).values())
    out = {}
    for name, guess in guesses.items():
        total = 0.0
        for y in sessions:
            t_s = support_len(len(y))
            total += average_accuracy(guess(y[t_s - 1], len(y) - t_s), y[t_s:])
        out[name] = total / len(sessions)
    return out


_MAA = re.compile(r"^MAA=([0-9.]+)$", re.M)
_BEST = re.compile(r"best val_maa=([0-9.]+)")
_EPOCH_VALUES = re.compile(r"(?:train_loss|val_maa)=[-0-9.e+]+")


def _maa_line(stdout: str) -> str | None:
    found = _MAA.findall(stdout)
    return found[-1] if found else None


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# -- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class FitWorkload:
    """gen-data once per set-up, then ``fit`` repeated with the same seed."""

    name: str
    why: str
    rule: str
    model: str
    width: int
    epochs: int
    n: dict  # corpus sessions per size
    beat_baselines: bool
    train_fraction: float = TRAIN_FRACTION

    def setup(self, run: Runner, work: Path, seed: int, size: str) -> dict:
        corpus = work / "corpus"
        run("gen-data", ["gen-data", "--rule", self.rule, "--noise", "0.1",
                         "--n", str(self.n[size]), "--seed", str(seed), "--out", str(corpus)])
        return {"corpus": corpus, "seed": seed, "size": size, "ckpt": work / "model.ckpt"}

    def prepare(self, state: dict) -> dict:
        # Models trained on the tiny self-test corpora learn nothing, so the
        # quality checks apply at full size only.
        quality = self.beat_baselines and state["size"] == "full"
        state["baselines"] = baselines(state["corpus"]) if quality else {}
        state["log"] = None
        return state

    def iteration(self, run: Runner, state: dict, ops: Ops) -> Sample:
        cmd = run("fit", [
            "fit", "--data", str(state["corpus"]), "--model", self.model,
            "--width", str(self.width), "--epochs", str(self.epochs),
            "--train-fraction", str(self.train_fraction), "--batch-size", str(BATCH_SIZE),
            "--seed", str(state["seed"]), "--out", str(state["ckpt"]),
        ])
        best = _BEST.findall(cmd.stdout)
        maa = float(best[-1]) if best else float("nan")
        ops.check(bool(best), "fit prints best val_maa")
        # The printed values have 6 decimals; the checkpoint holds the
        # parameters and the full-precision best val MAA.
        log = (best, _EPOCH_VALUES.findall(cmd.stdout), _sha256(state["ckpt"]))
        if state["log"] is None:
            state["log"] = log
        else:
            ops.check(log == state["log"], "fit val_maa, losses and checkpoint repeat bit for bit")
        for name, value in state["baselines"].items():
            ops.check(maa > value, f"fit val_maa {maa} beats {name} baseline {value:.6f}")
        sessions = int(self.n[state["size"]] * self.train_fraction) * self.epochs
        return Sample(sessions, cmd.seconds, maa,
                      {"fit": (sessions, cmd.seconds)})


class ScoreWorkload:
    """Score a fixed checkpoint: predict, evaluate the wire file, evaluate the checkpoint."""

    name = "score"
    why = ("no tape, backward or Adam: CSV parsing, transform, AA and the wire "
           "format dominate; the fits' model paths are bypassed")
    n = {"full": 2500, "tiny": 60}
    n_train = {"full": 2000, "tiny": 60}

    def setup(self, run: Runner, work: Path, seed: int, size: str) -> dict:
        corpus, train_corpus, ckpt = work / "corpus", work / "train", work / "model.ckpt"
        common = ["--rule", "threshold", "--noise", "0.1", "--seed", str(seed)]
        run("gen-data", ["gen-data", *common, "--n", str(self.n[size]), "--out", str(corpus)])
        run("gen-data", ["gen-data", *common, "--n", str(self.n_train[size]),
                         "--out", str(train_corpus)])
        run("fit", ["fit", "--data", str(train_corpus), "--model", "transformer",
                    "--width", "32", "--epochs", "1", "--train-fraction", str(TRAIN_FRACTION),
                    "--batch-size", str(BATCH_SIZE), "--seed", str(seed), "--out", str(ckpt)])
        return {"corpus": corpus, "ckpt": ckpt, "work": work, "size": size}

    def prepare(self, state: dict) -> dict:
        state["truth"] = read_truth(state["corpus"])
        state["baselines"] = baselines(state["corpus"]) if state["size"] == "full" else {}
        return state

    def iteration(self, run: Runner, state: dict, ops: Ops, tamper=None) -> Sample:
        data, ckpt, work = str(state["corpus"]), str(state["ckpt"]), state["work"]
        preds, per_session = work / "preds.txt", work / "per_session.txt"
        truth = state["truth"]
        n = len(truth)
        for stale in (preds, per_session):  # a failed command must not pass on old output
            stale.unlink(missing_ok=True)

        predict = run("predict", ["predict", "--data", data, "--checkpoint", ckpt,
                                  "--batch-size", str(BATCH_SIZE), "--out", str(preds)])
        if tamper is not None:
            tamper(preds)
        wire = run("evaluate-wire", ["evaluate", "--data", data, "--predictions", str(preds)])
        full = run("evaluate", ["evaluate", "--data", data, "--checkpoint", ckpt,
                                "--batch-size", str(BATCH_SIZE),
                                "--per-session", str(per_session)])

        wire_maa, full_maa = _maa_line(wire.stdout), _maa_line(full.stdout)
        ops.check(wire_maa is not None and wire_maa == full_maa,
                  f"checkpoint MAA {full_maa} equals wire MAA {wire_maa}")
        own = check_predictions(preds, truth, ops)
        maa = float(full_maa) if full_maa else float("nan")
        if own is not None:
            ops.check(abs(own - maa) <= 1e-9, f"own MAA of the predictions {own!r} equals {maa}")
        check_per_session(per_session, truth, maa, ops)
        for name, value in state["baselines"].items():
            ops.check(maa > value, f"score MAA {maa} beats {name} baseline {value:.6f}")

        timed = (predict, wire, full)
        return Sample(len(timed) * n, sum(c.seconds for c in timed), maa,
                      {c.label: (n, c.seconds) for c in timed})


def check_predictions(path: Path, truth: dict, ops: Ops) -> float | None:
    """One line per session with one bit per query track; returns own MAA."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        ops.check(False, f"predictions file readable: {exc}")
        return None
    seen = {}
    shape_ok = True
    for line in lines:
        sid, _, bits = line.rpartition(",")
        if sid not in truth or sid in seen or len(bits) != len(truth[sid]) or bits.strip("01"):
            shape_ok = False
            break
        seen[sid] = [int(c) for c in bits]
    shape_ok = shape_ok and len(seen) == len(truth)
    ops.check(shape_ok, "predictions file has one line per session, one bit per query track")
    if not shape_ok:
        return None
    return sum(average_accuracy(seen[sid], t) for sid, t in truth.items()) / len(truth)


def check_per_session(path: Path, truth: dict, maa: float, ops: Ops) -> None:
    """One ``session_id,accuracy`` line per session; their mean equals MAA."""
    try:
        pairs = [line.rsplit(",", 1) for line in path.read_text(encoding="utf-8").splitlines()]
        values = {sid: float(v) for sid, v in pairs}
    except (OSError, ValueError) as exc:
        ops.check(False, f"per-session file parses: {exc}")
        return
    ops.check(set(values) == set(truth) and len(pairs) == len(truth),
              "per-session file has one line per session")
    mean = sum(values.values()) / max(len(values), 1)
    # Each line and MAA are printed to 9 decimals, so they agree within 1e-9.
    ops.check(abs(mean - maa) <= 1e-9, f"mean per-session AA {mean!r} equals MAA {maa}")


WORKLOADS = {
    "fit-seq": FitWorkload(
        "fit-seq",
        "hundreds of small tape nodes per forward: per-op overhead and backward "
        "dominate; data path is a small share",
        rule="markov", model="seq1HL", width=32, epochs=2,
        n={"full": 2000, "tiny": 60}, beat_baselines=True,
    ),
    "fit-metric": FitWorkload(
        "fit-metric",
        "few but large tape nodes (relation pairs at width 256): pair forward, "
        "backward and memory dominate",
        rule="preference", model="rnbc2_ue", width=256, epochs=1,
        n={"full": 1200, "tiny": 40}, beat_baselines=False,
        # 300 train sessions keep a pass short; the other 900 make the
        # validation MAA steady across seeds.
        train_fraction=0.25,
    ),
    "score": ScoreWorkload(),
}

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Run from the root of a source checkout. It checks that the untraced and
the traced runs emit every metric ``BENCHMARK.json`` names, with its
unit; that a corrupted predictions file raises the failed-operation
count instead of crashing the run; and that traced spans nest, each with
a self time of at least zero.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from layers import group_by_root, pass_metrics, register_sites  # noqa: E402
from spans import TAPE_WALK, Tracer, children_of, self_seconds, tape_hook  # noqa: E402
from workloads import WORKLOADS, Ops, Runner  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@contextmanager
def _workdir(name: str):
    work = ROOT / ".bench_out" / f"selftest-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_with_its_unit():
    spec = _spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], float), (workload, name, m)
            if trace and workload == "fit-seq":
                assert result["metrics"]["tensor.tape_nodes"]["value"] > 0, result
                assert result["metrics"]["census.seq1HL.tape_nodes"]["value"] > 0, result


def test_missing_tape_walk_is_reported():
    tracer = Tracer()
    owner = types.SimpleNamespace(batch_loss=lambda: object())  # a loss with no graph
    tracer.site(owner, "batch_loss", "trainer.batch_loss", tape_hook)
    with tracer.installed(), tracer.span("pass"):
        owner.batch_loss()
        owner.batch_loss()
    assert tracer.missing == [TAPE_WALK], tracer.missing
    assert "tape_nodes" not in tracer.spans[1].attrs


def _score_pass(tamper) -> Ops:
    ops = Ops()
    runner = Runner(run.import_program(), ops)
    score = WORKLOADS["score"]
    with _workdir("corrupt") as work:
        state = score.prepare(score.setup(runner, work, 5, "tiny"))
        assert ops.failed == 0, ops.failures
        before = ops.attempted
        score.iteration(runner, state, ops, tamper=tamper)
        assert ops.attempted > before
    return ops


def test_corrupted_predictions_count_as_failed_ops():
    def flip_to_garbage(path: Path):
        lines = path.read_text(encoding="utf-8").splitlines()
        sid, _, bits = lines[0].rpartition(",")
        lines[0] = f"{sid},{'x' * len(bits)}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def drop_a_session(path: Path):
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")

    def flip_one_bit(path: Path):
        lines = path.read_text(encoding="utf-8").splitlines()
        sid, _, bits = lines[0].rpartition(",")
        lines[0] = f"{sid},{'1' if bits[0] == '0' else '0'}{bits[1:]}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert _score_pass(None).failed == 0
    for tamper in (flip_to_garbage, drop_a_session, flip_one_bit):
        ops = _score_pass(tamper)
        assert ops.failed >= 1, (tamper.__name__, ops)


def test_spans_nest_with_nonnegative_self_time():
    import seqskip.cli as cli_module

    original = cli_module.load_sessions
    tracer = Tracer()
    register_sites(tracer)
    assert tracer.missing == [], tracer.missing
    ops = Ops()
    runner = Runner(run.import_program(), ops)
    for name in ("fit-seq", "score"):
        workload = WORKLOADS[name]
        with _workdir(f"spans-{name}") as work:
            state = workload.prepare(workload.setup(runner, work, 7, "tiny"))
            runner.tracer = tracer
            with tracer.installed(), tracer.span("pass"):
                workload.iteration(runner, state, ops)
            runner.tracer = None
    assert ops.failed == 0, ops.failures
    assert cli_module.load_sessions is original, "wrappers must be removed after a traced pass"

    by_id = {s.sid: s for s in tracer.spans}
    kids = children_of(tracer.spans)
    assert len(tracer.spans) > 20
    for s in tracer.spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (parent.name, s.name)
            assert s.root == parent.root
        else:
            assert s.root == s.sid
        assert self_seconds(s, kids) >= 0, s.name
    for spans in group_by_root(tracer.spans).values():
        metrics = pass_metrics(spans)
        assert all(v >= 0 for v in metrics.values()), metrics


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

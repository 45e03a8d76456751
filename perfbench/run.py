#!/usr/bin/env python3
"""Benchmark of the seqskip pipeline, driven through ``seqskip.cli.main``.

    python3 perfbench/run.py --workload fit-seq --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run sets up its workload (timed several times), then runs
the workload's commands as a closed loop for ``--seconds`` seconds and
checks every output. Each timed set-up and pass is divided by the
host's slowdown at that moment (see ``hostspeed.py``). With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer
metrics, the tracing overhead and the zoo census.
The last line of standard output is one JSON object; the full result,
with the environment, goes to ``.bench_out/results/``.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
from envinfo import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import census  # noqa: E402
import envinfo  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, median  # noqa: E402
from workloads import WORKLOADS, Ops, Runner  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "sessions_per_s": "sessions/s", "maa": "MAA", "peak_rss_mb": "MB"}

# Per-command rates under the names the workload table uses.
COMMAND_METRICS = {
    "fit": "fit_sessions_per_s",
    "predict": "predict_sessions_per_s",
    "evaluate": "evaluate_sessions_per_s",
    "evaluate-wire": "evaluate_wire_sessions_per_s",
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``seqskip.cli`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "seqskip"
    if not (package / "cli.py").is_file():
        raise ProgramMissing(f"no program source under {package}")
    sys.path.insert(0, str(SRC))
    import seqskip.cli

    if Path(seqskip.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"seqskip imported from {seqskip.cli.__file__}, not {package}")
    return seqskip.cli.main


def per_layer_units() -> dict[str, str]:
    return {**layers.UNITS, "trace_overhead": "ratio", **census.units()}


def closed_loop(seconds: float, one_pass, ops: Ops, min_passes: int) -> list:
    """Run passes back to back for ``seconds`` seconds; ``[(result, slowdown)]``.

    A further pass starts only if a pass of median length still fits,
    so a run ends close to its budget. A pass with a failed operation
    ends the loop: its failures are counted, and repeating a broken
    command only inflates the count. Host-speed probes bracket every
    pass and are not part of its time.
    """
    results, lengths = [], []
    bracket = hostspeed.Bracketed()
    start = time.perf_counter()
    while len(results) < min_passes or (
        time.perf_counter() - start + median(lengths) <= seconds
    ):
        failed = ops.failed
        result, length, slowdown = bracket.run(lambda: one_pass(len(results)))
        results.append((result, slowdown))
        lengths.append(length)
        if ops.failed > failed:
            break
    return results


def timed_setups(workload, runner, work, seed, size):
    """The last set-up's state, and each set-up's wall time and host slowdown."""
    bracket = hostspeed.Bracketed()
    state = None
    times, slowdowns = [], []
    for _ in range(SETUP_REPEATS):
        state, seconds, slowdown = bracket.run(lambda: workload.setup(runner, work, seed, size))
        times.append(seconds)
        slowdowns.append(slowdown)
    return state, times, slowdowns


def untraced(workload, runner, ops, work, args) -> dict:
    state, setup_times, setup_slowdowns = timed_setups(workload, runner, work, args.seed,
                                                       args.size)
    passes = []
    if not ops.failed:
        state = workload.prepare(state)
        passes = closed_loop(args.seconds, lambda i: workload.iteration(runner, state, ops),
                             ops, min_passes=2)
        passes = passes[1:] or passes  # the first pass warms the process up
    samples = [s for s, _ in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = [t / h for t, h in zip(setup_times, setup_slowdowns)]
    metrics = {
        "setup_s": median(setup_s),
        "sessions_per_s": median(s.rate * h for s, h in passes),
        "maa": median(s.maa for s in samples),
        "peak_rss_mb": rss_mb,
    }
    detail = {"setup_s": ("s", setup_s)}
    for label, name in COMMAND_METRICS.items():
        rates = [s.commands[label][0] / s.commands[label][1] * h for s, h in passes
                 if label in s.commands]
        if rates:
            detail[name] = ("sessions/s", rates)
    maa_name = "score_maa" if workload.name == "score" else "fit_val_maa"
    detail[maa_name] = ("MAA", [s.maa for s in samples])
    detail["peak_rss_mb"] = ("MB", [rss_mb])
    detail["failed_ops"] = ("failed/attempted", [ops.failed / max(ops.attempted, 1)])
    # Wall figures before the host-speed correction, for reference.
    detail["wall_setup_s"] = ("s", setup_times)
    detail["wall_sessions_per_s"] = ("sessions/s", [s.rate for s in samples])
    detail["host_slowdown"] = ("ratio", setup_slowdowns + [h for _, h in passes])
    return {"metrics": metrics, "detail": detail,
            "samples": [{**vars(s), "slowdown": h} for s, h in passes]}


def traced(workload, runner, ops, work, args) -> dict:
    tracer = Tracer()
    layers.register_sites(tracer)
    runner.tracer = tracer
    with tracer.installed(), tracer.span("setup"):
        state = workload.setup(runner, work, args.seed, args.size)
    runner.tracer = None

    def one_pass(i):
        # Pass 0 warms the process up; then traced and untraced passes alternate.
        if i % 2 == 0:
            return "plain" if i else "warm-up", workload.iteration(runner, state, ops)
        runner.tracer = tracer
        try:
            with tracer.installed(), tracer.span("pass"):
                return "traced", workload.iteration(runner, state, ops)
        finally:
            runner.tracer = None

    passes = []
    if not ops.failed:
        state = workload.prepare(state)
        passes = closed_loop(args.seconds, one_pass, ops, min_passes=3)
    census_metrics, census_errors = census.run_census(work)

    roots = layers.group_by_root(tracer.spans)
    per_pass = [layers.pass_metrics(spans) for spans in roots.values()
                if spans[0].name == "pass"]
    metrics = {name: median(p[name] for p in per_pass) for name in layers.UNITS}
    setup_spans = next((s for s in roots.values() if s[0].name == "setup"), [])
    setup_metrics = layers.pass_metrics(setup_spans)
    for name in ("synthgen.generate_s", "cli.self_s.gen-data"):
        metrics[name] = setup_metrics[name]
    plain = [s.seconds / h for (kind, s), h in passes if kind == "plain"]
    timed = [s.seconds / h for (kind, s), h in passes if kind == "traced"]
    metrics["trace_overhead"] = median(timed) / median(plain) if plain and timed else 0.0
    metrics.update(census_metrics)
    units = per_layer_units()
    detail = {name: (units[name], [p[name] for p in per_pass]) for name in layers.UNITS}
    detail.update({name: (units[name], [metrics[name]])
                   for name in ("synthgen.generate_s", "cli.self_s.gen-data", "trace_overhead",
                                *census_metrics)})
    return {"metrics": metrics, "detail": detail, "missing_sites": tracer.missing,
            "census_errors": census_errors, "trace": tracer.to_json(),
            "passes": [{"kind": k, **vars(s), "slowdown": h} for (k, s), h in passes]}


def report(detail: dict) -> None:
    print(f"{'metric':36} {'median':>14}  {'unit':16} n")
    for name, (unit, values) in detail.items():
        print(f"{name:36} {median(values):14.6g}  {unit:16} {len(values)}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same shapes on a few dozen sessions (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli_main = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ops = Ops()
    runner = Runner(cli_main, ops)
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        measure = traced if args.trace else untraced
        result = measure(workload, runner, ops, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    report(result["detail"])
    for name in result.get("missing_sites", ()):
        print(f"perfbench: {name} not found; the metrics it feeds read 0", file=sys.stderr)
    for err in result.get("census_errors", ()):
        print(f"perfbench: census {err}", file=sys.stderr)
    for failure in ops.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace = result.pop("trace", None)
    if trace is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(trace) + "\n", encoding="utf-8")
    record = {
        "workload": args.workload,
        "why": workload.why,
        "args": vars(args),
        "environment": envinfo.collect(ROOT, args.seed),
        "failures": ops.failures,
        **result,
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

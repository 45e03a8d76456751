"""Smoke runs of the scripts under ``scripts/``, which import the package's API."""

import importlib.util
from pathlib import Path

import numpy as np

from seqskip.dataio import load_corpus
from seqskip.metrics import average_accuracy, baseline

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_benchmark_runs_on_a_tiny_corpus(tmp_path, capsys):
    bench = _script("run_synthetic_benchmark")
    argv = ["--rules", "markov", "--models", "seq1eH", "--n", "60", "--width", "8",
            "--epochs", "1", "--batch-size", "16", "--out", str(tmp_path)]
    assert bench.main(argv) == 0
    table = capsys.readouterr().out.split("rule            model")[1].splitlines()[1:]
    assert [line.split()[:2] for line in table] == [
        ["markov", f"baseline:{kind}"] for kind in ("all_skip", "all_no_skip",
                                                    "carry_last_support")
    ] + [["markov", "seq1eH"]]
    assert all(0.0 <= float(line.split()[2]) <= 1.0 for line in table)

    # The baselines' MAA is the mean of each session's AA against its guess.
    (data,) = tmp_path.iterdir()
    _, sessions, _ = load_corpus(data)
    for kind in ("all_skip", "carry_last_support"):
        want = []
        for start, n, ts in zip(sessions.starts, sessions.lengths, sessions.t_support):
            labels = sessions.labels[start : start + n]
            want.append(average_accuracy(baseline(kind, labels[:ts], n - ts), labels[ts:]))
        assert bench.baseline_maa(kind, sessions) == np.mean(want)

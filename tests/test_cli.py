"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` so exit codes and printed output
are exercised exactly as a shell user would see them.
"""

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from handmade import corpus_order_predictions

from seqskip import cli, trainer
from seqskip.checkpoint import load_checkpoint, save_checkpoint
from seqskip.cli import main
from seqskip.dataio import load_corpus
from seqskip.metrics import read_predictions
from seqskip.synthgen import SynthConfig, generate


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _maa_from(out: str) -> float:
    m = re.search(r"^MAA=(\d\.\d{9})$", out, re.M)
    assert m, f"no MAA line in output: {out!r}"
    return float(m.group(1))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_corpus")
    rc = main(
        [
            "gen-data",
            "--rule",
            "threshold",
            "--n",
            "40",
            "--seed",
            "3",
            "--noise",
            "0.1",
            "--feature-dim",
            "4",
            "--out",
            str(d),
        ]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def checkpoint(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ckpt") / "model.ckpt"
    rc = main(
        [
            "fit",
            "--data",
            str(corpus_dir),
            "--model",
            "rnb1",
            "--width",
            "8",
            "--epochs",
            "1",
            "--batch-size",
            "16",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "seqskip" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_model_choice_is_usage_error(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(corpus_dir), "--model", "perceptron"])
    assert exc.value.code == 2


def test_gen_data_writes_corpus_and_manifest(corpus_dir):
    for name in ("sessions.csv", "features.csv", "schema.json"):
        assert (corpus_dir / name).exists()
    manifest = json.loads((corpus_dir / "gen_manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["args"]["n"] == 40
    assert manifest["args"]["seed"] == 3
    assert set(manifest["artifacts"]) == {"sessions", "features", "schema"}


def test_gen_data_reproducible_from_manifest(corpus_dir, tmp_path, capsys):
    before = {n: _sha(corpus_dir / n) for n in ("sessions.csv", "features.csv")}
    (corpus_dir / "sessions.csv").write_text("corrupted\n")
    # Flags other than --from-manifest must be ignored in favour of the
    # stored arguments, including --out.
    rc = main(
        [
            "gen-data",
            "--n",
            "1",
            "--out",
            str(tmp_path / "elsewhere"),
            "--from-manifest",
            str(corpus_dir / "gen_manifest.json"),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    after = {n: _sha(corpus_dir / n) for n in ("sessions.csv", "features.csv")}
    assert after == before
    assert not (tmp_path / "elsewhere").exists()


def test_from_manifest_wrong_command(corpus_dir, tmp_path, capsys):
    rc = main(
        [
            "predict",
            "--data",
            str(corpus_dir),
            "--checkpoint",
            "unused",
            "--out",
            str(tmp_path / "p.txt"),
            "--from-manifest",
            str(corpus_dir / "gen_manifest.json"),
        ]
    )
    assert rc == 1
    assert "manifest is for" in capsys.readouterr().err


def test_from_manifest_unreadable(tmp_path, capsys):
    rc = main(
        [
            "gen-data",
            "--n",
            "1",
            "--out",
            str(tmp_path),
            "--from-manifest",
            str(tmp_path / "no_such.json"),
        ]
    )
    assert rc == 1
    assert "cannot read manifest" in capsys.readouterr().err


def test_from_manifest_missing_args(corpus_dir, tmp_path, capsys):
    # A manifest is outside input: a missing key is an error line, not a traceback.
    stored = json.loads((corpus_dir / "gen_manifest.json").read_text())["args"]
    path = tmp_path / "m.json"
    for payload, want in (
        ({"command": "gen-data"}, "has no 'args' object"),
        (["gen-data"], "has no 'args' object"),
        ({"command": "gen-data", "args": {"n": 5}},
         "lacks arguments ['feature_dim', 'length_high', 'length_low', 'noise', 'out', "
         "'rule', 'seed', 'tracks']"),
        ({"command": "gen-data", "args": {k: v for k, v in stored.items() if k != "rule"}},
         "lacks arguments ['rule']"),
    ):
        path.write_text(json.dumps(payload))
        rc = main(["gen-data", "--n", "1", "--out", str(tmp_path / "out"),
                   "--from-manifest", str(path)])
        assert rc == 1
        assert f"error: manifest {path} {want}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_from_manifest_bad_values(corpus_dir, tmp_path, capsys):
    # Stored values are parsed as their flags parse them: a wrong type or an
    # unknown choice is an error line naming the flag, not a traceback.
    stored = json.loads((corpus_dir / "gen_manifest.json").read_text())["args"]
    path = tmp_path / "m.json"
    for key, value, want in (
        ("n", "abc", "argument --n: invalid int value 'abc'"),
        ("n", 2.5, "argument --n: invalid int value 2.5"),
        ("n", None, "argument --n: invalid value None"),
        ("noise", [0.1], "argument --noise: invalid value [0.1]"),
        ("rule", "majority", "argument --rule: invalid choice 'majority'"),
    ):
        args = dict(stored, out=str(tmp_path / "out"), **{key: value})
        path.write_text(json.dumps({"command": "gen-data", "args": args}))
        rc = main(["gen-data", "--n", "1", "--out", str(tmp_path / "out"),
                   "--from-manifest", str(path)])
        assert rc == 1
        assert f"error: manifest {path} {want}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tracks", ["0", "-3"])
def test_gen_data_rejects_an_empty_track_pool(tmp_path, capsys, tracks):
    out = tmp_path / "out"
    rc = main(["gen-data", "--n", "5", "--tracks", tracks, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [f"error: n_tracks must be positive, got {tracks}"]
    assert "Traceback" not in err
    assert not (out / "sessions.csv").exists()


def test_fit_writes_checkpoint_and_manifest(checkpoint):
    assert checkpoint.exists()
    manifest_path = checkpoint.parent / "model.ckpt.manifest.json"
    assert manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "fit"
    assert manifest["args"]["model"] == "rnb1"
    assert manifest["artifacts"]["checkpoint"] == str(checkpoint)


def test_fit_default_checkpoint_path(corpus_dir, capsys):
    rc = main(
        [
            "fit",
            "--data",
            str(corpus_dir),
            "--model",
            "rnb1",
            "--width",
            "8",
            "--epochs",
            "1",
            "--batch-size",
            "16",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert (corpus_dir / "model_rnb1.ckpt").exists()
    assert "best val_maa=" in out
    assert "wrote checkpoint:" in out


def test_evaluate_checkpoint_prints_maa(corpus_dir, checkpoint, capsys):
    rc = main(
        ["evaluate", "--data", str(corpus_dir), "--checkpoint", str(checkpoint)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    maa = _maa_from(out)
    assert 0.0 <= maa <= 1.0


def test_predict_then_evaluate_matches_checkpoint_eval(
    corpus_dir, checkpoint, tmp_path, capsys
):
    rc = main(
        ["evaluate", "--data", str(corpus_dir), "--checkpoint", str(checkpoint)]
    )
    assert rc == 0
    direct = _maa_from(capsys.readouterr().out)

    preds = tmp_path / "preds.txt"
    rc = main(
        [
            "predict",
            "--data",
            str(corpus_dir),
            "--checkpoint",
            str(checkpoint),
            "--out",
            str(preds),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert preds.exists()
    assert (tmp_path / "preds.manifest.json").exists()
    rows = read_predictions(preds)
    assert len(rows) == 40
    assert all(set(bits) <= {0, 1} for _, bits in rows)

    rc = main(
        ["evaluate", "--data", str(corpus_dir), "--predictions", str(preds)]
    )
    assert rc == 0
    assert _maa_from(capsys.readouterr().out) == direct


def test_evaluate_predictions_needs_no_feature_file(
    corpus_dir, checkpoint, tmp_path, capsys
):
    preds = tmp_path / "preds.txt"
    rc = main(["predict", "--data", str(corpus_dir), "--checkpoint", str(checkpoint),
               "--out", str(preds)])
    assert rc == 0
    rc = main(["evaluate", "--data", str(corpus_dir), "--predictions", str(preds)])
    assert rc == 0
    full = _maa_from(capsys.readouterr().out)

    # Scoring predictions reads the schema and the query labels only.
    bare = tmp_path / "no_features"
    bare.mkdir()
    for name in ("schema.json", "sessions.csv"):
        (bare / name).write_bytes((corpus_dir / name).read_bytes())
    rc = main(["evaluate", "--data", str(bare), "--predictions", str(preds)])
    assert rc == 0
    assert _maa_from(capsys.readouterr().out) == full


def test_evaluate_per_session_file(corpus_dir, checkpoint, tmp_path, capsys):
    per = tmp_path / "per_session.csv"
    rc = main(
        [
            "evaluate",
            "--data",
            str(corpus_dir),
            "--checkpoint",
            str(checkpoint),
            "--per-session",
            str(per),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = per.read_text().splitlines()
    assert len(lines) == 40
    values = [float(line.rsplit(",", 1)[1]) for line in lines]
    assert all(0.0 <= v <= 1.0 for v in values)
    # Corpus MAA is by definition the mean of the per-session values.
    assert abs(np.mean(values) - _maa_from(out)) < 1e-7


def test_manifests_record_the_run(corpus_dir, checkpoint, tmp_path, capsys):
    preds, per = tmp_path / "preds.txt", tmp_path / "per.csv"
    assert main(["predict", "--data", str(corpus_dir), "--checkpoint", str(checkpoint),
                 "--out", str(preds)]) == 0
    assert main(["evaluate", "--data", str(corpus_dir), "--checkpoint", str(checkpoint),
                 "--per-session", str(per)]) == 0
    manifests = {
        "fit": checkpoint.parent / "model.ckpt.manifest.json",
        "predict": tmp_path / "preds.manifest.json",
        "evaluate": tmp_path / "per.manifest.json",
    }
    for command, path in manifests.items():
        manifest = json.loads(path.read_text())
        assert set(manifest) == {"version", "command", "args", "artifacts", "run"}, command
        assert manifest["command"] == command
        run = manifest["run"]
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert set(run) == {"wall_s", "peak_rss_mb", "numpy", "cpu_count", *blas}, command
        assert isinstance(run["wall_s"], float) and 0 < run["wall_s"] < 600, command
        assert isinstance(run["peak_rss_mb"], float) and 1 < run["peak_rss_mb"] < 1e5, command
        assert run["numpy"] == np.__version__
        assert run["cpu_count"] == os.cpu_count()
        assert [run[var] for var in blas] == [os.environ.get(var) for var in blas], command
    assert json.loads(manifests["evaluate"].read_text())["artifacts"] == {"per_session": str(per)}

    # --from-manifest reads the arguments only: the run block changes nothing
    first = per.read_bytes()
    per.unlink()
    capsys.readouterr()
    assert main(["evaluate", "--data", "elsewhere", "--predictions", "none",
                 "--from-manifest", str(manifests["evaluate"])]) == 0
    assert per.read_bytes() == first
    assert "MAA=" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["transformer", "seq1HL"])
def test_length_bucketed_files_match_corpus_order_batching(
    corpus_dir, tmp_path, monkeypatch, kind
):
    # Batches of 8 over 40 sessions of mixed length: sorted by length,
    # they hold other sessions than in corpus order.
    assert np.any(np.diff(load_corpus(corpus_dir)[1].lengths) < 0)
    ckpt_path = tmp_path / f"{kind}.ckpt"
    assert main(["fit", "--data", str(corpus_dir), "--model", kind, "--width", "8",
                 "--epochs", "1", "--batch-size", "16", "--out", str(ckpt_path)]) == 0

    def files(tag):
        pred, per = tmp_path / f"{tag}.pred", tmp_path / f"{tag}.per"
        common = ["--data", str(corpus_dir), "--checkpoint", str(ckpt_path), "--batch-size", "8"]
        assert main(["predict", *common, "--out", str(pred)]) == 0
        assert main(["evaluate", *common, "--per-session", str(per)]) == 0
        return pred.read_bytes(), per.read_bytes()

    bucketed = files("bucketed")
    monkeypatch.setattr(trainer, "predict_corpus", corpus_order_predictions)
    monkeypatch.setattr(cli, "predict_corpus", corpus_order_predictions)
    assert files("corpus_order") == bucketed


def test_evaluate_sources_mutually_exclusive(corpus_dir, checkpoint, tmp_path):
    preds = tmp_path / "p.txt"
    preds.write_text("s,1\n")
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "evaluate",
                "--data",
                str(corpus_dir),
                "--checkpoint",
                str(checkpoint),
                "--predictions",
                str(preds),
            ]
        )
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--data", str(corpus_dir)])
    assert exc.value.code == 2


def test_evaluate_unknown_session_in_predictions(corpus_dir, tmp_path, capsys):
    preds = tmp_path / "bad.txt"
    preds.write_text("no_such_session,101\n")
    rc = main(
        ["evaluate", "--data", str(corpus_dir), "--predictions", str(preds)]
    )
    assert rc == 1
    assert "unknown session" in capsys.readouterr().err


def test_evaluate_rejects_repeated_and_missing_sessions(
    corpus_dir, checkpoint, tmp_path, capsys
):
    full = tmp_path / "preds.txt"
    assert main(["predict", "--data", str(corpus_dir), "--checkpoint", str(checkpoint),
                 "--out", str(full)]) == 0
    lines = full.read_text().splitlines()
    assert len(lines) == 40
    capsys.readouterr()

    # Three sessions, the second one twice: the repeat is named first.
    partial = tmp_path / "partial.txt"
    partial.write_text("\n".join(lines[:2] + lines[1:3]) + "\n")
    rc = main(["evaluate", "--data", str(corpus_dir), "--predictions", str(partial)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"repeated prediction for session {lines[1].split(',')[0]!r}" in err

    # Every line once, but sessions 5 and 9 left out.
    gaps = tmp_path / "gaps.txt"
    gaps.write_text("\n".join(l for i, l in enumerate(lines) if i not in (5, 9)) + "\n")
    rc = main(["evaluate", "--data", str(corpus_dir), "--predictions", str(gaps)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"2 corpus sessions have no prediction, first {lines[5].split(',')[0]!r}" in err


def test_scoring_checks_bits_at_most_once_per_corpus(
    corpus_dir, checkpoint, tmp_path, capsys, monkeypatch
):
    # Bits are checked once per corpus, never session by session: predict
    # in write_predictions (one _as_binary call), evaluate in per_session_aa.
    from seqskip import metrics

    checks = []
    check = metrics._as_binary
    monkeypatch.setattr(metrics, "_as_binary", lambda *a: checks.append(1) or check(*a))
    preds = tmp_path / "preds.txt"
    for argv, want in (
        (["predict", "--checkpoint", str(checkpoint), "--out", str(preds)], 1),
        (["evaluate", "--checkpoint", str(checkpoint)], 0),
        (["evaluate", "--predictions", str(preds)], 0),
    ):
        checks.clear()
        assert main([argv[0], "--data", str(corpus_dir), *argv[1:]]) == 0
        assert len(checks) == want, argv[0]
    capsys.readouterr()


def test_evaluate_rejects_bad_bits_lengths_and_labels(
    corpus_dir, checkpoint, tmp_path, capsys
):
    # Scoring checks no bit twice: the wire reader and the session loader
    # reject bad input with its file:line, and lengths are still compared.
    full = tmp_path / "preds.txt"
    assert main(["predict", "--data", str(corpus_dir), "--checkpoint", str(checkpoint),
                 "--out", str(full)]) == 0
    lines = full.read_text().splitlines()
    capsys.readouterr()

    bad_bit = tmp_path / "bad_bit.txt"
    sid, bits = lines[2].rsplit(",", 1)
    bad_bit.write_text("\n".join(lines[:2] + [f"{sid},2{bits[1:]}"] + lines[3:]) + "\n")
    assert main(["evaluate", "--data", str(corpus_dir), "--predictions", str(bad_bit)]) == 1
    assert f"{bad_bit}:3: prediction string '2{bits[1:]}' is not binary" in capsys.readouterr().err

    short = tmp_path / "short.txt"
    short.write_text("\n".join(lines[:2] + [f"{sid},{bits[1:]}"] + lines[3:]) + "\n")
    assert main(["evaluate", "--data", str(corpus_dir), "--predictions", str(short)]) == 1
    assert f"session {sid!r}: prediction length" in capsys.readouterr().err

    bad_label = tmp_path / "bad_label"
    bad_label.mkdir()
    for name in ("schema.json", "features.csv"):
        (bad_label / name).write_bytes((corpus_dir / name).read_bytes())
    rows = (corpus_dir / "sessions.csv").read_text().splitlines()
    col = rows[0].split(",").index("skipped")
    cells = rows[5].split(",")
    cells[col] = "maybe"
    rows[5] = ",".join(cells)
    sessions = bad_label / "sessions.csv"
    sessions.write_text("\n".join(rows) + "\n")
    for source in (["--predictions", str(full)], ["--checkpoint", str(checkpoint)]):
        assert main(["evaluate", "--data", str(bad_label), *source]) == 1
        err = capsys.readouterr().err
        assert f"{sessions}:6: column 'skipped' has non-boolean value 'maybe'" in err


def test_predict_to_a_directory_reports_error(corpus_dir, checkpoint, tmp_path, capsys):
    rc = main(["predict", "--data", str(corpus_dir), "--checkpoint", str(checkpoint),
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_missing_data_dir_reports_error(tmp_path, capsys):
    preds = tmp_path / "p.txt"
    preds.write_text("s,1\n")
    rc = main(
        [
            "evaluate",
            "--data",
            str(tmp_path / "absent"),
            "--predictions",
            str(preds),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _with_byte_e9(path, line):
    """Copy of ``path`` with the byte 0xE9 at the end of its ``line``-th line."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xe9"
    out = path.with_name(f"e9_{path.name}")
    out.write_bytes(b"\n".join(lines))
    return out


@pytest.mark.parametrize("kind", ["sessions.csv", "features.csv", "schema.json",
                                  "predictions", "manifest"])
def test_a_byte_that_is_not_utf8_is_one_error_line(corpus_dir, checkpoint, tmp_path, capsys,
                                                   kind):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("sessions.csv", "features.csv", "schema.json"):
        (data / name).write_bytes((corpus_dir / name).read_bytes())
    preds = tmp_path / "p.txt"
    assert main(["predict", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(preds)]) == 0
    capsys.readouterr()
    line = 1 if kind == "predictions" else 3
    if kind in ("sessions.csv", "features.csv", "schema.json"):
        bad = _with_byte_e9(data / kind, line).replace(data / kind)
    else:
        bad = _with_byte_e9(preds if kind == "predictions" else corpus_dir / "gen_manifest.json",
                            line)
    argv = {
        "predictions": ["evaluate", "--data", str(data), "--predictions", str(bad)],
        "manifest": ["gen-data", "--n", "1", "--out", str(tmp_path / "out"),
                     "--from-manifest", str(bad)],
        "schema.json": ["evaluate", "--data", str(data), "--predictions", str(preds)],
    }.get(kind, ["predict", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "p2.txt")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}:{line}: byte 0xe9 is not UTF-8\n"


@pytest.mark.parametrize("kind", ["sessions.csv", "features.csv"])
def test_a_cell_past_the_csv_field_limit_is_one_error_line(corpus_dir, tmp_path, capsys, kind):
    # csv.reader rejects a field longer than csv.field_size_limit() (131,072
    # characters by default); a quoted one sends the file down that path.
    data = tmp_path / "data"
    data.mkdir()
    for name in ("sessions.csv", "features.csv", "schema.json"):
        (data / name).write_bytes((corpus_dir / name).read_bytes())
    lines = (data / kind).read_text().split("\n")
    cells = lines[3].split(",")
    cells[-1] = '"' + "x" * 200_000 + '"'
    lines[3] = ",".join(cells)
    (data / kind).write_text("\n".join(lines))
    assert main(["fit", "--data", str(data), "--model", "rnb1", "--epochs", "1",
                 "--out", str(tmp_path / "m.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data / kind}:4: field larger than field limit (131072)\n"


def test_predict_on_a_corpus_without_sessions_fails(corpus_dir, checkpoint, tmp_path, capsys):
    for name in ("features.csv", "schema.json"):
        (tmp_path / name).write_bytes((corpus_dir / name).read_bytes())
    header = (corpus_dir / "sessions.csv").read_text().splitlines()[0]
    (tmp_path / "sessions.csv").write_text(header + "\n")
    out = tmp_path / "p.txt"
    rc = main(["predict", "--data", str(tmp_path), "--checkpoint", str(checkpoint),
               "--out", str(out)])
    assert rc == 1 and not out.exists() and not out.with_suffix(".manifest.json").exists()
    assert capsys.readouterr().err == (
        f"error: session file {tmp_path / 'sessions.csv'} holds no sessions\n")


def _vocabulary_of_five(schema):
    cols = [dict(c, vocabulary=5) if c["kind"] == "categorical" else c for c in schema["columns"]]
    return dict(schema, columns=cols)


SCHEMA_FAULTS = {
    # name: (malformed schema from the generated one, what the error names)
    "not_an_object": (lambda schema: [], "must be a JSON object, got list"),
    "column_not_an_object": (lambda schema: dict(schema, columns=["a"]), "key 'columns'"),
    "feature_dim_not_a_number": (lambda schema: dict(schema, feature_dim="x"),
                                 "key 'feature_dim' must be an integer, got 'x'"),
    "vocabulary_not_a_list": (_vocabulary_of_five, "key 'vocabulary' must be a list in column"),
}


@pytest.mark.parametrize("fault", sorted(SCHEMA_FAULTS))
def test_malformed_schema_reports_file_and_key(corpus_dir, tmp_path, capsys, fault):
    # A malformed schema.json is an error line naming the file and the key, not a traceback.
    corrupt, want = SCHEMA_FAULTS[fault]
    schema = json.loads((corpus_dir / "schema.json").read_text())
    (tmp_path / "schema.json").write_text(json.dumps(corrupt(schema)))
    (tmp_path / "sessions.csv").write_bytes((corpus_dir / "sessions.csv").read_bytes())
    preds = tmp_path / "p.txt"
    preds.write_text("s,1\n")
    rc = main(["evaluate", "--data", str(tmp_path), "--predictions", str(preds)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: schema file {tmp_path / 'schema.json'}") and want in err


def test_checkpoint_with_malformed_schema_names_the_checkpoint(
    corpus_dir, checkpoint, tmp_path, capsys
):
    params, meta = load_checkpoint(checkpoint)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, params, dict(meta, schema=[]))
    rc = main(["predict", "--data", str(corpus_dir), "--checkpoint", str(bad),
               "--out", str(tmp_path / "p.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: checkpoint {bad} schema must be a JSON")


META_FAULTS = {
    # name: (meta edit, what the error names)
    "width": (lambda meta: dict(meta, model=dict(meta["model"], width="x")),
              "meta key 'model': invalid literal for int() with base 10: 'x'"),
    "in_dim": (lambda meta: dict(meta, in_dim="y"),
               "meta key 'in_dim': invalid literal for int() with base 10: 'y'"),
    "acoustic_mean": (lambda meta: dict(meta, stats=dict(meta["stats"], acoustic_mean="z")),
                      "meta key 'stats': could not convert string to float: 'z'"),
}


@pytest.mark.parametrize("fault", sorted(META_FAULTS))
def test_checkpoint_with_malformed_meta_names_the_checkpoint_and_key(
    corpus_dir, checkpoint, tmp_path, capsys, fault
):
    edit, want = META_FAULTS[fault]
    params, meta = load_checkpoint(checkpoint)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, params, edit(meta))
    rc = main(["predict", "--data", str(corpus_dir), "--checkpoint", str(bad),
               "--out", str(tmp_path / "p.txt")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {bad} {want}\n"


def test_predict_rejects_a_non_finite_parameter(tmp_path, capsys):
    # One NaN in the rnbc2_ue pin: without the check, predict exits 0 and
    # writes a probability of zero for every query.
    pin = Path(__file__).parent / "data" / "rnbc2_ue_pair_concat.ckpt"
    corpus = json.loads((pin.parent / "metric_pair_concat_probs.json").read_text())["corpus"]
    data = tmp_path / "corpus"
    generate(SynthConfig(**corpus), data)
    params, meta = load_checkpoint(pin)
    params["rn.out.w"][0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, params, meta)
    capsys.readouterr()
    rc = main(["predict", "--data", str(data), "--checkpoint", str(bad),
               "--out", str(tmp_path / "p.txt")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {bad} parameter 'rn.out.w' has non-finite values\n")
    assert not (tmp_path / "p.txt").exists()


def test_fit_rejects_a_nan_grad_clip(corpus_dir, tmp_path, capsys):
    rc = main(["fit", "--data", str(corpus_dir), "--model", "rnb1", "--width", "8",
               "--epochs", "1", "--grad-clip", "nan", "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == "error: grad_clip must be positive and finite, got nan\n"
    assert not (tmp_path / "m.ckpt").exists()


def test_grad_check_subcommand(capsys):
    rc = main(["grad-check", "--trials", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "matmul:" in out
    assert "max_rel_err=" in out
    assert "tolerance=0.0001" in out

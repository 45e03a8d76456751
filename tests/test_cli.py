"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` so exit codes and printed output
are exercised exactly as a shell user would see them.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from seqskip.cli import main
from seqskip.metrics import read_predictions


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


def test_grad_check_subcommand(capsys):
    rc = main(["grad-check", "--trials", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "matmul:" in out
    assert "max_rel_err=" in out
    assert "tolerance=0.0001" in out

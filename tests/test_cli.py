"""Tests for the command-line interface."""

import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.storage import DiskTable
from repro.tree import tree_from_json


@pytest.fixture
def generated_table(tmp_path):
    path = str(tmp_path / "t.tbl")
    code = main(
        [
            "generate", path,
            "--n", "5000", "--function", "1", "--noise", "0.05", "--seed", "3",
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_creates_table(self, generated_table):
        table = DiskTable.open(generated_table)
        assert len(table) == 5000

    def test_output_message(self, tmp_path, capsys):
        main(["generate", str(tmp_path / "g.tbl"), "--n", "1000"])
        assert "wrote 1000 tuples" in capsys.readouterr().out


class TestBuild:
    def test_builds_and_saves_tree(self, generated_table, tmp_path, capsys):
        out = str(tmp_path / "tree.json")
        code = main(
            [
                "build", generated_table, out,
                "--sample-size", "1000", "--bootstraps", "6",
                "--min-split", "50", "--min-leaf", "10", "--max-depth", "5",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "scans=2" in stdout
        tree = tree_from_json(open(out).read())
        assert tree.depth <= 5

    def test_quest_method(self, generated_table, tmp_path):
        out = str(tmp_path / "qtree.json")
        code = main(
            [
                "build", generated_table, out,
                "--method", "quest",
                "--sample-size", "1000", "--bootstraps", "6",
                "--min-split", "100", "--min-leaf", "25", "--max-depth", "4",
            ]
        )
        assert code == 0
        assert json.load(open(out))["root"]

    def test_quest_checkpoint_is_a_library_error(
        self, generated_table, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        code = main(
            [
                "build", generated_table, str(tmp_path / "q.json"),
                "--method", "quest", "--sample-size", "1000",
                "--checkpoint", str(ckpt),
            ]
        )
        assert code == 1
        assert "QUEST" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag", ["--checkpoint", "--resume"])
    def test_sql_pushdown_refuses_checkpoints(
        self, generated_table, tmp_path, capsys, flag
    ):
        """Even over a flat ``.tbl``, where the pushdown itself would not
        apply, ``--sql-pushdown`` with a checkpoint is refused: a clean
        error, exit 1 (``test_sql_differential`` covers a ``.db``)."""
        ckpt = tmp_path / "ckpt"
        out = tmp_path / "o.json"
        code = main(
            ["build", generated_table, str(out), "--sql-pushdown", flag, str(ckpt)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: sql_pushdown cannot be combined with checkpoint_dir"
        )
        assert not ckpt.exists() and not out.exists()

    def test_missing_table_errors(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "nope.tbl"), str(tmp_path / "o.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEvaluateAndShow:
    @pytest.fixture
    def built_tree(self, generated_table, tmp_path):
        out = str(tmp_path / "tree.json")
        main(
            [
                "build", generated_table, out,
                "--sample-size", "1000", "--bootstraps", "6",
                "--min-split", "50", "--min-leaf", "10", "--max-depth", "5",
            ]
        )
        return out

    def test_evaluate(self, built_tree, generated_table, capsys):
        code = main(["evaluate", built_tree, generated_table])
        assert code == 0
        assert "misclassification rate" in capsys.readouterr().out

    def test_evaluate_schema_mismatch(self, built_tree, tmp_path, capsys):
        other = str(tmp_path / "other.tbl")
        main(["generate", other, "--n", "100", "--extra", "2"])
        code = main(["evaluate", built_tree, other])
        assert code == 2

    def test_show_ascii(self, built_tree, capsys):
        code = main(["show", built_tree, "--max-depth", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DecisionTree(" in out
        assert "age" in out  # F1 splits on age

    def test_show_dot(self, built_tree, capsys):
        code = main(["show", built_tree, "--dot"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out


@pytest.fixture
def built_tree(generated_table, tmp_path):
    out = str(tmp_path / "tree.json")
    main(
        [
            "build", generated_table, out,
            "--sample-size", "1000", "--bootstraps", "6",
            "--min-split", "50", "--min-leaf", "10", "--max-depth", "5",
        ]
    )
    return out


class TestPredict:
    def test_predict_writes_labels(
        self, built_tree, generated_table, tmp_path, capsys
    ):
        out = str(tmp_path / "labels.txt")
        code = main(["predict", built_tree, generated_table, "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "predicted 5000 rows" in stdout
        assert "compiled kernel" in stdout
        labels = [int(line) for line in open(out).read().split()]
        assert len(labels) == 5000
        # Exact agreement with the offline recursive path.
        tree = tree_from_json(open(built_tree).read())
        table = DiskTable.open(generated_table)
        expected = np.concatenate([tree.predict(b) for b in table.scan()])
        assert labels == [int(v) for v in expected]

    def test_predict_proba_output(
        self, built_tree, generated_table, tmp_path
    ):
        out = str(tmp_path / "proba.txt")
        code = main(
            [
                "predict", built_tree, generated_table,
                "--out", out, "--proba", "--batch-rows", "1024",
            ]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 5000
        first = [float(v) for v in lines[0].split()]
        assert len(first) == 2
        assert sum(first) == pytest.approx(1.0)

    def test_predict_without_out_just_reports(
        self, built_tree, generated_table, capsys
    ):
        assert main(["predict", built_tree, generated_table]) == 0
        assert "rows/s" in capsys.readouterr().out

    def test_predict_schema_mismatch(self, built_tree, tmp_path):
        other = str(tmp_path / "other.tbl")
        main(["generate", other, "--n", "100", "--extra", "2"])
        assert main(["predict", built_tree, other]) == 2


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServe:
    def test_serve_smoke(self, built_tree, capsys):
        """Start the server, drive one HTTP request, exit via --max-requests."""
        port = free_port()
        codes: list[int] = []

        def run() -> None:
            codes.append(
                main(
                    [
                        "serve", built_tree,
                        "--port", str(port),
                        "--max-delay-ms", "1",
                        "--max-requests", "1",
                    ]
                )
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 30
        health = None
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(base + "/healthz", timeout=2) as r:
                    health = json.loads(r.read())
                break
            except OSError:
                time.sleep(0.05)
        assert health == {"status": "ok", "version": 1}
        request = urllib.request.Request(
            base + "/predict",
            data=json.dumps(
                {"records": [{
                    "salary": 50_000.0, "commission": 0.0, "age": 30.0,
                    "elevel": 1, "car": 3, "zipcode": 4, "hvalue": 150_000.0,
                    "hyears": 10.0, "loan": 100_000.0,
                }]}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            body = json.loads(response.read())
        assert body["rows"] == 1
        assert body["labels"][0] in (0, 1)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [0]
        stdout = capsys.readouterr().out
        assert "served 1 requests" in stdout

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import gaussian_clusters, write_libsvm

from slidesvm import admm, cli, data, model, tuning
from slidesvm.cli import main
from slidesvm.data import parse_libsvm, widen
from slidesvm.loss import SlideParams, prox_thresholds
from slidesvm.model import (
    Model,
    SupportSet,
    accuracy,
    confusion_counts,
    load_model,
    predict_dataset,
    save_model,
)
from slidesvm.tuning import grid_configs, grid_search


@pytest.fixture()
def data_files(tmp_path):
    train = tmp_path / "train.svm"
    test = tmp_path / "test.svm"
    train.write_text(write_libsvm(gaussian_clusters(80, seed=30, center=2.5)))
    test.write_text(write_libsvm(gaussian_clusters(40, seed=31, center=2.5)))
    return train, test


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def solves(monkeypatch):
    """Every solve a command runs in this process, train's and the grid's."""
    calls = []

    def counting(ds, cfg, **kwargs):
        calls.append(ds.m)
        return admm.train(ds, cfg, **kwargs)

    monkeypatch.setattr(cli, "train", counting)
    monkeypatch.setattr(tuning, "train", counting)
    return calls


class TestTrainCommand:
    def test_writes_model_and_diagnostics(self, data_files, tmp_path, capsys):
        train, _ = data_files
        model_path = tmp_path / "model.txt"
        diag_path = tmp_path / "diag.csv"
        status = run(
            ["train", "--data", train, "--C", "1", "--delta", "1", "--v", "1.0",
             "--eps", "0.1", "--out", model_path, "--diagnostics", diag_path]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "converged=true" in out
        mdl = load_model(model_path)
        assert mdl.converged and mdl.n == 2
        header, *rows = read_csv(diag_path)
        assert header == ["k", "working_set_size", "e1", "e2", "e3", "e4", "objective"]
        # every float cell reads back as the in-process history, bit for bit
        cfg = admm.TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0))
        _, diag = admm.train(parse_libsvm(train.read_bytes()), cfg, history=True)
        assert [row[:2] for row in rows] == [
            [str(k), str(size)] for k, (size, _, _) in enumerate(diag.history, start=1)
        ]
        assert [[float(cell) for cell in row[2:]] for row in rows] == [
            [*dataclasses.astuple(res), obj] for _, res, obj in diag.history
        ]

    def test_eps_defaults_to_tenth_of_v(self, data_files, tmp_path):
        train, _ = data_files
        model_path = tmp_path / "model.txt"
        assert run(["train", "--data", train, "--v", "0.5", "--out", model_path]) == 0
        assert load_model(model_path).slide == SlideParams(0.05, 0.5)

    def test_missing_data_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--out", tmp_path / "m.txt"])
        assert exc.value.code == 2

    def test_eps_not_below_v_rejected_before_training(self, data_files, tmp_path, capsys):
        train, _ = data_files
        status = run(
            ["train", "--data", train, "--v", "0.5", "--eps", "0.5",
             "--out", tmp_path / "m.txt"]
        )
        assert status == 2
        assert "epsilon" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_unreadable_data_fails(self, tmp_path, capsys):
        status = run(["train", "--data", tmp_path / "missing.svm", "--out", tmp_path / "m.txt"])
        assert status == 1
        assert "cannot read" in capsys.readouterr().err

    def test_oversized_index_fails_with_its_line(self, tmp_path, capsys):
        data = tmp_path / "wide.svm"
        data.write_text("+1 3000000000:1\n")
        model_path = tmp_path / "m.txt"
        assert run(["train", "--data", data, "--out", model_path]) == 1
        captured = capsys.readouterr()
        assert f"error: {data}: line 1: index 3000000000 exceeds 2147483647" in captured.err
        assert captured.out == "" and not model_path.exists()

    def test_matrix_too_large_fails_in_train_and_eval(self, data_files, tmp_path, monkeypatch, capsys):
        train, _ = data_files
        model_path = tmp_path / "m.txt"
        assert run(["train", "--data", train, "--out", model_path]) == 0
        huge = tmp_path / "huge.svm"
        huge.write_text("+1 1234567890:1\n")
        monkeypatch.setattr(data, "_memory_bytes", lambda: 1 << 30)
        capsys.readouterr()
        message = (
            f"error: {huge}: dense matrix of m=1 rows and n=1234567890 features needs "
            "9876543120 bytes, more than the 1073741824 bytes of memory"
        )
        assert run(["train", "--data", huge, "--out", tmp_path / "huge.txt"]) == 1
        assert run(["eval", "--model", model_path, "--data", huge]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message, message] and captured.out == ""
        assert not (tmp_path / "huge.txt").exists()

    def test_non_finite_feature_fails_without_training(self, tmp_path, capsys):
        data = tmp_path / "nan.svm"
        data.write_text("+1 1:0.5\n-1 1:nan\n+1 1:0.7\n-1 1:-0.2\n")
        model_path = tmp_path / "m.txt"
        status = run(["train", "--data", data, "--out", model_path])
        assert status == 1
        captured = capsys.readouterr()
        assert "line 2: non-finite value nan" in captured.err
        assert captured.out == "" and not model_path.exists()

    def test_byte_that_is_not_utf8_fails_with_its_path_and_line(self, tmp_path, capsys):
        data = tmp_path / "latin1.svm"
        data.write_bytes(b"+1 1:0.5\n-1 1:1 # caf\xe9\n+1 1:0.7\n")
        model_path = tmp_path / "m.txt"
        assert run(["train", "--data", data, "--out", model_path]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {data}: line 2: byte 0xe9 is not UTF-8\n"
        assert not model_path.exists()

    def test_label_only_file_fits_the_bias_alone(self, tmp_path, capsys):
        data = tmp_path / "labels.svm"
        data.write_text("+1\n-1\n+1\n")
        model_path = tmp_path / "m.txt"
        assert run(["train", "--data", data, "--out", model_path]) == 0
        assert "on 3 samples, 0 features: converged=true" in capsys.readouterr().out
        assert load_model(model_path).n == 0
        assert run(["eval", "--model", model_path, "--data", data]) == 0
        assert capsys.readouterr().out == "accuracy 0.6667\ntp 2 fp 1 tn 0 fn 0\n"
        assert run(["grid", "--data", data, "--folds", "2", "--repeats", "1",
                    "--c-values", "1", "--delta-values", "1", "--v-values", "1"]) == 0

    def test_nonconvergence_still_exits_zero(self, data_files, tmp_path, capsys):
        train, _ = data_files
        model_path = tmp_path / "model.txt"
        status = run(
            ["train", "--data", train, "--v", "0.3", "--eps", "0.1",
             "--max-iter", "30", "--out", model_path]
        )
        assert status == 0
        assert "converged=false" in capsys.readouterr().out
        assert load_model(model_path).converged is False


class TestEvalCommand:
    def test_round_trip_matches_in_process_accuracy(self, data_files, tmp_path, capsys):
        train, test = data_files
        model_path = tmp_path / "model.txt"
        run(["train", "--data", train, "--eps", "0.1", "--out", model_path])
        assert run(["eval", "--model", model_path, "--data", test]) == 0
        printed = capsys.readouterr().out.splitlines()[-2:]
        mdl = load_model(model_path)
        ds = parse_libsvm(test.read_text())
        assert printed[0] == f"accuracy {accuracy(mdl, ds):.4f}"
        assert printed[1].startswith("tp ")

    def test_constant_positive_model_counts_positive_fraction(self, tmp_path, capsys):
        ds = gaussian_clusters(50, seed=32)
        data = tmp_path / "d.svm"
        data.write_text(write_libsvm(ds))
        sup = SupportSet(*(np.empty(0, dtype=np.int64), np.empty(0)) * 2)
        mdl = Model(
            w=np.zeros(2), b=1.0, slide=SlideParams(0.1, 1.0), C=1.0, delta=1.0,
            support=sup, converged=True, iterations=1,
        )
        model_path = tmp_path / "m.txt"
        save_model(mdl, model_path)
        assert run(["eval", "--model", model_path, "--data", data]) == 0
        frac = float(np.mean(ds.y > 0))
        assert f"accuracy {frac:.4f}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_line, message",
        [(None, "header"), ("w 0:abc", "malformed weight entry '0:abc'"),
         ("w x:1", "malformed weight entry 'x:1'"), ("w 3", "malformed weight entry '3'"),
         ("support_t1 1:zz", "malformed support entry '1:zz'"),
         ("w -1:7.0", "negative index in weight entry '-1:7.0'"),
         ("support_t1 -3:-0.5", "negative index in support entry '-3:-0.5'"),
         ("w 99999999999999999999:1.0",
          f"index above {2**63 - 1} in weight entry '99999999999999999999:1.0'"),
         ("support_t1 99999999999999999999:-0.5",
          f"index above {2**63 - 1} in support entry '99999999999999999999:-0.5'")],
        ids=["header", "w-value", "w-index", "w-no-colon", "support-value", "w-negative-index",
             "support-negative-index", "w-index-above-int64", "support-index-above-int64"],
    )
    def test_corrupt_model_fails(self, data_files, tmp_path, capsys, bad_line, message):
        _, test = data_files
        bad = tmp_path / "bad.txt"
        if bad_line is None:
            bad.write_text("not a model\n")
        else:
            sup = SupportSet(np.array([0]), np.array([-0.5]), np.empty(0, dtype=np.int64), np.empty(0))
            mdl = Model(
                w=np.array([1.0, 2.0]), b=0.5, slide=SlideParams(0.1, 1.0), C=1.0,
                delta=1.0, support=sup, converged=True, iterations=1,
            )
            save_model(mdl, bad)
            tag = bad_line.split()[0]
            lines = [bad_line if ln.split()[:1] == [tag] else ln
                     for ln in bad.read_text().splitlines()]
            bad.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--model", bad, "--data", test]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: " in captured.err and message in captured.err

    @pytest.mark.parametrize(
        "n, message",
        [("-1", "{model}: negative dimension n=-1"),
         ("501", "{model}: weight vector of n=501 features needs 4008 bytes, "
                 "more than the 4000 bytes of memory"),
         ("400", "dense matrix of m=40 rows and n=400 features needs 128000 bytes, "
                 "more than the 4000 bytes of memory")],
        ids=["negative", "weights-too-large", "widened-data-too-large"],
    )
    def test_model_dimension_is_checked(self, data_files, tmp_path, monkeypatch, capsys, n, message):
        train, test = data_files
        model_path = tmp_path / "m.txt"
        assert run(["train", "--data", train, "--out", model_path]) == 0
        text = model_path.read_text()
        model_path.write_text(text.replace("n=2\n", f"n={n}\n"))
        monkeypatch.setattr(data, "_memory_bytes", lambda: 4000)
        capsys.readouterr()
        assert run(["eval", "--model", model_path, "--data", test]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(model=model_path)}\n"
        assert captured.out == ""

    def test_dimension_mismatch_fails(self, tmp_path, capsys):
        wide = tmp_path / "wide.svm"
        wide.write_text("+1 9:1.0\n")
        narrow = tmp_path / "narrow.svm"
        narrow.write_text(write_libsvm(gaussian_clusters(10, seed=33)))
        model_path = tmp_path / "m.txt"
        run(["train", "--data", narrow, "--eps", "0.1", "--out", model_path])
        assert run(["eval", "--model", model_path, "--data", wide]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_narrower_data_is_zero_padded(self, data_files, tmp_path, monkeypatch, capsys):
        train, _ = data_files
        model_path = tmp_path / "m.txt"
        run(["train", "--data", train, "--eps", "0.1", "--out", model_path])
        slim = tmp_path / "slim.svm"
        slim.write_text("+1 1:0.5\n-1 1:-0.5\n")
        capsys.readouterr()
        parsed = []

        def counting_parse(*args, **kwargs):
            parsed.append(args)
            return parse_libsvm(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_libsvm", counting_parse)
        assert run(["eval", "--model", model_path, "--data", slim]) == 0
        assert len(parsed) == 1  # widened in memory, not parsed again
        mdl = load_model(model_path)
        ds = widen(parse_libsvm(slim.read_text()), mdl.n)
        tp, fp, tn, fn = confusion_counts(mdl, ds)
        assert capsys.readouterr().out == (
            f"accuracy {accuracy(mdl, ds):.4f}\ntp {tp} fp {fp} tn {tn} fn {fn}\n"
        )

    def test_the_data_is_predicted_once(self, data_files, tmp_path, monkeypatch):
        # the accuracy line is (tp + tn) / m from the counts, not a second
        # prediction of every row; the tests above pin its bytes to accuracy()
        train, test = data_files
        model_path = tmp_path / "m.txt"
        run(["train", "--data", train, "--eps", "0.1", "--out", model_path])
        predicted = []

        def counting_predict(mdl, ds):
            predicted.append(ds.m)
            return predict_dataset(mdl, ds)

        monkeypatch.setattr(model, "predict_dataset", counting_predict)
        assert run(["eval", "--model", model_path, "--data", test]) == 0
        assert predicted == [40]

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_files_read_as_lines(self, data_files, tmp_path, capsys, end):
        train, test = data_files
        model_path = tmp_path / "m.txt"
        run(["train", "--data", train, "--eps", "0.1", "--out", model_path])
        capsys.readouterr()
        assert run(["eval", "--model", model_path, "--data", test]) == 0
        expected = capsys.readouterr().out
        other = tmp_path / "other.svm"
        other.write_bytes(test.read_bytes().replace(b"\n", end.encode()))
        assert run(["eval", "--model", model_path, "--data", other]) == 0
        assert capsys.readouterr().out == expected
        other.write_bytes(b"+1 1:1" + end.encode() + b"-1 1:x" + end.encode())
        assert run(["eval", "--model", model_path, "--data", other]) == 1
        assert "line 2: malformed token '1:x'" in capsys.readouterr().err

    @pytest.mark.parametrize("at", [0, 40])
    def test_model_byte_that_is_not_utf8_fails_with_its_path(self, data_files, tmp_path,
                                                            capsys, at):
        train, test = data_files
        model_path = tmp_path / "m.txt"
        run(["train", "--data", train, "--eps", "0.1", "--out", model_path])
        raw = model_path.read_bytes()
        model_path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        capsys.readouterr()
        assert run(["eval", "--model", model_path, "--data", test]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {model_path}: byte 0xff at offset {at} is not UTF-8\n"
        assert captured.out == ""

    def test_crlf_model_file_loads(self, data_files, tmp_path, capsys):
        train, test = data_files
        model_path = tmp_path / "m.txt"
        run(["train", "--data", train, "--eps", "0.1", "--out", model_path])
        capsys.readouterr()
        assert run(["eval", "--model", model_path, "--data", test]) == 0
        expected = capsys.readouterr().out
        model_path.write_bytes(model_path.read_bytes().replace(b"\n", b"\r\n"))
        assert run(["eval", "--model", model_path, "--data", test]) == 0
        assert capsys.readouterr().out == expected

    def test_non_finite_model_fails(self, data_files, tmp_path, capsys):
        train, test = data_files
        model_path = tmp_path / "m.txt"
        run(["train", "--data", train, "--eps", "0.1", "--out", model_path])
        text = model_path.read_text()
        b_line = next(ln for ln in text.splitlines() if ln.startswith("b="))
        model_path.write_text(text.replace(b_line, "b=nan"))
        capsys.readouterr()
        assert run(["eval", "--model", model_path, "--data", test]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite bias" in captured.err


class TestGridCommand:
    def test_single_config_override_with_test_row(self, data_files, tmp_path, capsys):
        train, test = data_files
        out = tmp_path / "grid.csv"
        status = run(
            ["grid", "--data", train, "--test", test, "--folds", "3", "--seed", "1",
             "--c-values", "1.0", "--delta-values", "1.0", "--v-values", "1.0",
             "--max-iter", "300", "--out", out]
        )
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "C,delta,v,epsilon,mean_acc,fold_accs,converged_folds"
        assert len(lines) == 3  # header, one config, test row
        assert lines[2].split(",")[5] == "test"
        assert "test accuracy" in capsys.readouterr().out

    def test_without_test_reports_repeated_cv(self, data_files, tmp_path, capsys):
        train, _ = data_files
        out = tmp_path / "grid.csv"
        status = run(
            ["grid", "--data", train, "--folds", "3", "--seed", "1", "--repeats", "2",
             "--c-values", "1.0", "--delta-values", "1.0", "--v-values", "1.0",
             "--max-iter", "300", "--out", out]
        )
        assert status == 0
        assert "repeated cv accuracy" in capsys.readouterr().out
        assert out.read_text().splitlines()[-1].split(",")[5] == "repeated_cv"

    def test_parallel_output_is_identical(self, data_files, tmp_path):
        train, test = data_files
        args = ["grid", "--data", train, "--test", test, "--folds", "3", "--seed", "2",
                "--c-values", "0.5,1.0", "--delta-values", "1.0", "--v-values", "0.5,1.0",
                "--max-iter", "200"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--parallel", "1", "--out", out1]) == 0
        assert run(args + ["--parallel", "4", "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "C,delta,v,epsilon,mean_acc,fold_accs,converged_folds"
        assert len(lines) == 1 + 4 + 1  # header, four configs, test row

    def test_repeated_cv_output_is_identical_in_parallel(self, data_files, tmp_path, capsys):
        # the repeats run as tasks of the search's pool
        train, _ = data_files
        args = ["grid", "--data", train, "--folds", "3", "--seed", "2", "--repeats", "3",
                "--c-values", "0.5,1.0", "--delta-values", "1.0", "--v-values", "0.5",
                "--max-iter", "200"]
        outs, stdouts = [], []
        for parallel in (1, 2):
            outs.append(tmp_path / f"p{parallel}.csv")
            assert run(args + ["--parallel", parallel, "--out", outs[-1]]) == 0
            stdouts.append(capsys.readouterr().out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert stdouts[0] == stdouts[1] and "repeated cv accuracy" in stdouts[0]
        assert read_csv(outs[0])[-1][5:] == ["repeated_cv", "3"]

    def test_cells_read_back_bit_for_bit(self, tmp_path):
        # overlapping clusters, so the accuracies are not short decimals
        train = tmp_path / "overlap.svm"
        train.write_text(write_libsvm(gaussian_clusters(80, seed=30, center=1.0)))
        out = tmp_path / "grid.csv"
        assert run(["grid", "--data", train, "--folds", "3", "--seed", "4", "--repeats", "1",
                    "--c-values", "0.5,1.0", "--delta-values", "1.0", "--v-values", "0.3,1.0",
                    "--max-iter", "200", "--out", out]) == 0
        configs = grid_configs((0.5, 1.0), (1.0,), (0.3, 1.0), K=200)
        [result] = grid_search(parse_libsvm(train.read_bytes()), configs, k=3, seed=4)
        rows = read_csv(out)[1:-1]
        assert [float(row[4]) for row in rows] == result.mean_accuracies.tolist()
        assert [
            [float(acc) for acc in row[5].split(";")] for row in rows
        ] == result.fold_accuracies.tolist()


class TestEmptyDataFile:
    @pytest.mark.parametrize("command, flag", [
        ("train", "--data"), ("eval", "--data"), ("grid", "--data"), ("grid", "--test"),
        ("flip", "--data"), ("flip", "--test"),
    ])
    def test_every_command_names_the_empty_file_before_any_solve(
        self, data_files, tmp_path, solves, capsys, command, flag
    ):
        # grid --test used to run the whole search and the final fit first
        train, test = data_files
        model_path = tmp_path / "model.txt"
        assert run(["train", "--data", train, "--max-iter", "50", "--out", model_path]) == 0
        solves.clear()
        capsys.readouterr()
        empty = tmp_path / "comments.svm"
        empty.write_text("# no samples\n\n")
        files = {"--data": train, "--test": test, "--model": model_path,
                 "--out": tmp_path / "out.txt"}
        wanted = {"train": ["--data", "--out"], "eval": ["--model", "--data"],
                  "grid": ["--data", "--test", "--out"],
                  "flip": ["--data", "--test", "--out"]}[command]
        argv = [command] + [a for f in wanted for a in (f, empty if f == flag else files[f])]
        if command in ("grid", "flip"):
            argv += ["--folds", "3", "--c-values", "0.5,1", "--delta-values", "1",
                     "--v-values", "1", "--max-iter", "50"]
        assert run(argv) == 1
        assert solves == []
        captured = capsys.readouterr()
        assert captured.err == f"error: {empty}: empty dataset, no samples\n"
        assert captured.out == "" and not files["--out"].exists()


class TestOutputPaths:
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--out"), ("train", "--diagnostics"), ("grid", "--out"), ("flip", "--out"),
        ("proxcheck", "--out"),
    ])
    def test_an_unwritable_output_fails_before_any_solve(
        self, data_files, tmp_path, solves, capsys, command, flag, where
    ):
        # grid --out used to run the whole search and print its result first
        train, test = data_files
        bad = tmp_path / "missing" / "out.csv" if where == "missing directory" else tmp_path
        # train's other output exists already and must keep its bytes
        kept = tmp_path / "kept.txt"
        kept.write_text("kept\n")
        other = {"--out": "--diagnostics", "--diagnostics": "--out"}[flag]
        argv = {
            "train": ["train", "--data", train, "--max-iter", "50", flag, bad, other, kept],
            "grid": ["grid", "--data", train, "--test", test, "--out", bad],
            "flip": ["flip", "--data", train, "--test", test, "--out", bad],
            # proxcheck used to draw every sample and print its summary first
            "proxcheck": ["proxcheck", "--samples", "50", "--out", bad],
        }[command]
        if command in ("grid", "flip"):
            argv += ["--folds", "3", "--c-values", "0.5,1", "--delta-values", "1",
                     "--v-values", "1", "--max-iter", "50"]
        assert run(argv) == 1
        assert solves == []
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {bad}: ")
        assert captured.out == "" and kept.read_text() == "kept\n"
        assert not (tmp_path / "missing").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "test.svm", "train.svm"]

    @pytest.mark.skipif(not Path("/dev/full").is_char_device(), reason="needs /dev/full")
    @pytest.mark.parametrize("command, flag", [
        ("train", "--out"), ("train", "--diagnostics"), ("grid", "--out"), ("flip", "--out"),
        ("proxcheck", "--out"),
    ])
    def test_a_write_that_fails_after_the_check_exits_1(
        self, data_files, tmp_path, capsys, command, flag
    ):
        # /dev/full passes the pre-check and fails each write with ENOSPC
        train, test = data_files
        argv = {
            "train": ["train", "--data", train, "--max-iter", "50"],
            "grid": ["grid", "--data", train, "--test", test],
            "flip": ["flip", "--data", train, "--test", test],
            "proxcheck": ["proxcheck", "--samples", "50"],
        }[command] + [flag, "/dev/full"]
        if flag == "--diagnostics":
            model_path = tmp_path / "model.txt"
            model_path.write_text("old\n")
            argv += ["--out", model_path]
        if command in ("grid", "flip"):
            argv += ["--folds", "3", "--c-values", "0.5,1", "--delta-values", "1",
                     "--v-values", "1", "--max-iter", "50"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write /dev/full: ")
        # the table commands print their result before they write their CSV
        assert bool(captured.out) == (command != "train")
        if flag == "--diagnostics":
            # the old model was replaced before the diagnostics failed
            assert load_model(model_path).n == 2


class TestFlipCommand:
    def test_zero_rate_baseline_only(self, data_files, tmp_path):
        train, test = data_files
        out = tmp_path / "flip.csv"
        status = run(
            ["flip", "--data", train, "--test", test, "--rates", "0", "--folds", "3",
             "--c-values", "1.0", "--delta-values", "1.0", "--v-values", "1.0",
             "--max-iter", "200", "--out", out]
        )
        assert status == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.0,")

    def test_three_row_table(self, data_files, tmp_path):
        train, test = data_files
        out = tmp_path / "flip.csv"
        status = run(
            ["flip", "--data", train, "--test", test, "--rates", "0.05,0.15",
             "--folds", "3", "--c-values", "1.0", "--delta-values", "1.0",
             "--v-values", "1.0", "--max-iter", "200", "--out", out]
        )
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rate,C,delta,v,epsilon,cv_acc,test_acc,converged"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.0", "0.05", "0.15"]

    def test_parallel_output_is_identical(self, data_files, tmp_path, capsys):
        # 3 rates x 3 configs x 3 folds = 27 tasks, which two workers cannot
        # share evenly
        train, test = data_files
        args = ["flip", "--data", train, "--test", test, "--rates", "0.05,0.15",
                "--folds", "3", "--c-values", "0.5,1.0,2.0", "--delta-values", "1.0",
                "--v-values", "0.5", "--max-iter", "100"]
        outs, stdouts = [], []
        for parallel in (1, 2, 3):
            outs.append(tmp_path / f"p{parallel}.csv")
            assert run(args + ["--parallel", parallel, "--out", outs[-1]]) == 0
            stdouts.append(capsys.readouterr().out)
        assert outs[1].read_bytes() == outs[0].read_bytes()
        assert outs[2].read_bytes() == outs[0].read_bytes()
        assert stdouts[1] == stdouts[0] and stdouts[2] == stdouts[0]
        assert len(read_csv(outs[0])) == 4

    def test_invalid_rate_rejected(self, data_files, tmp_path, capsys):
        train, test = data_files
        status = run(["flip", "--data", train, "--test", test, "--rates", "1.5"])
        assert status == 2
        assert "rate" in capsys.readouterr().err

    def test_an_empty_test_path_is_a_file_for_flip_and_none_for_grid(self, data_files, capsys):
        # flip's test file is required, so "" is a path that cannot be read;
        # grid's is optional, and "" names none
        train, _ = data_files
        flags = ["--data", train, "--test", "", "--folds", "3", "--c-values", "1",
                 "--delta-values", "1", "--v-values", "1", "--max-iter", "5"]
        assert run(["flip"] + flags) == 1
        assert capsys.readouterr().err.startswith("error: cannot read : ")
        assert run(["grid", "--repeats", "2"] + flags) == 0
        assert capsys.readouterr().out.startswith("repeated cv accuracy ")

    def test_missing_test_flag_is_usage_error(self, data_files):
        train, _ = data_files
        with pytest.raises(SystemExit) as exc:
            run(["flip", "--data", train])
        assert exc.value.code == 2


class TestProxcheckCommand:
    def test_single_sample_csv(self, tmp_path, capsys):
        out = tmp_path / "prox.csv"
        assert run(["proxcheck", "--samples", "1", "--seed", "3", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("s,gamma_c,epsilon,v,prox,oracle")
        assert "failures=0" in capsys.readouterr().out

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["proxcheck", "--samples", "300", "--seed", "4", "--out", a])
        run(["proxcheck", "--samples", "300", "--seed", "4", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_small_run_is_clean(self, capsys):
        assert run(["proxcheck", "--samples", "500", "--seed", "5"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_near_tie_ramp_draw_passes(self, monkeypatch, capsys):
        # just below the tie in the ramp regime the closed form shifts down
        # by th.shift; that is one of the two minimizers, not epsilon
        p, gamma_c = SlideParams(0.1, 1.0), 0.5
        th = prox_thresholds(gamma_c, p)
        assert th.ramp_regime
        monkeypatch.setattr(
            cli, "_draw_prox_case", lambda rng: (th.tie_point - 3e-7, gamma_c, p)
        )
        assert run(["proxcheck", "--samples", "1"]) == 0
        assert "failures=0" in capsys.readouterr().out

    @pytest.mark.parametrize("offset", [-3e-7, 0.0, 3e-7])
    @pytest.mark.parametrize("p", [SlideParams(0.1, 1.0), SlideParams(0.1, 0.3)])
    def test_near_tie_draws_pass_in_both_regimes(self, monkeypatch, capsys, p, offset):
        # at gamma_c = 0.5 the first is in the ramp regime, the second in
        # the pin regime, where the branch below the tie pins to epsilon
        th = prox_thresholds(0.5, p)
        monkeypatch.setattr(cli, "_draw_prox_case", lambda rng: (th.tie_point + offset, 0.5, p))
        assert run(["proxcheck", "--samples", "1"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_a_step_with_no_finite_grid_fails_naming_the_step(self, capsys):
        # (hi - lo) / step overflows: a data error, not a traceback
        assert run(["proxcheck", "--samples", "1", "--step", "1e-310"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step 1e-310" in err

    def test_an_infinite_limit_accepts_every_deviation(self, capsys):
        assert run(["proxcheck", "--samples", "50", "--seed", "6", "--limit", "inf"]) == 0
        assert "failures=0" in capsys.readouterr().out


class TestParser:
    @pytest.mark.parametrize(
        "command, flag, value",
        [("grid", "--folds", "1"), ("grid", "--repeats", "0"), ("grid", "--parallel", "-3"),
         ("grid", "--seed", "-1"),
         ("flip", "--folds", "1"), ("flip", "--parallel", "0"), ("flip", "--seed", "-1"),
         ("proxcheck", "--step", "0"), ("proxcheck", "--step", "nan"),
         ("proxcheck", "--step", "inf"),
         ("proxcheck", "--limit", "nan"), ("proxcheck", "--limit", "-1"),
         ("proxcheck", "--samples", "0"), ("proxcheck", "--seed", "-1")],
    )
    def test_out_of_range_flags_are_usage_errors(self, command, flag, value, tmp_path, capsys):
        # rejected before any data is read: the data files do not exist
        missing = {"grid": ["--data", tmp_path / "a.svm"], "proxcheck": [],
                   "flip": ["--data", tmp_path / "a.svm", "--test", tmp_path / "b.svm"]}
        with pytest.raises(SystemExit) as exc:
            run([command, flag, value] + missing[command])
        assert exc.value.code == 2
        assert f"argument {flag}: need " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [("train", "--C", "nan"), ("train", "--C", "inf"), ("train", "--delta", "inf"),
         ("train", "--delta", "nan"), ("train", "--tol", "nan"), ("train", "--tol", "inf"),
         ("grid", "--c-values", "nan"), ("grid", "--c-values", "-1"),
         ("grid", "--delta-values", "inf"), ("grid", "--tol", "nan"),
         ("flip", "--c-values", "nan"), ("flip", "--rates", "2"),
         ("flip", "--rates", "0.05,0.05"), ("flip", "--rates", ""),
         ("grid", "--c-values", ""), ("grid", "--eps-values", ","), ("flip", "--v-values", ""),
         ("train", "--delta", "1e-320"), ("grid", "--delta-values", "1e-320"),
         ("flip", "--delta-values", "1e-320")],
    )
    def test_bad_solver_settings_are_usage_errors(self, command, flag, value, tmp_path, capsys):
        # rejected before any data is read: the data files do not exist
        data = ["--data", tmp_path / "a.svm"]
        rest = {"train": ["--out", tmp_path / "m.txt"], "grid": [],
                "flip": ["--test", tmp_path / "b.svm"]}
        assert run([command, flag, value] + data + rest[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot read" not in err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("alias", ["same", "dot", "symlink", "hardlink"])
    def test_train_outputs_naming_one_file_are_a_usage_error(self, alias, tmp_path, capsys):
        # the diagnostics would overwrite the model; rejected before any data
        # is read (the data file does not exist), and no file is touched
        out = tmp_path / "m.txt"
        other = {"same": out, "dot": tmp_path / "." / "m.txt",
                 "symlink": tmp_path / "link.txt", "hardlink": tmp_path / "hard.txt"}[alias]
        if alias in ("symlink", "hardlink"):
            out.write_text("kept\n")
            (other.symlink_to if alias == "symlink" else other.hardlink_to)(out)
        before = sorted(tmp_path.iterdir())
        assert run(["train", "--data", tmp_path / "a.svm", "--out", out,
                    "--diagnostics", other, "--max-iter", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "same file" in err and "cannot read" not in err
        assert sorted(tmp_path.iterdir()) == before
        assert not out.exists() or out.read_text() == "kept\n"

    @pytest.mark.parametrize("command, output, source", [
        ("train", "--out", "--data"), ("train", "--diagnostics", "--data"),
        ("grid", "--out", "--data"), ("grid", "--out", "--test"),
        ("flip", "--out", "--data"), ("flip", "--out", "--test"),
    ])
    def test_an_output_naming_an_input_is_a_usage_error(
        self, data_files, tmp_path, solves, capsys, command, output, source
    ):
        # the write would replace the input; rejected before any data is
        # read, and the input keeps its bytes
        train, test = data_files
        named = {"--data": train, "--test": test}[source]
        before = {path: path.read_bytes() for path in data_files}
        argv = [command, "--data", train, output, named, "--max-iter", "5"]
        if command == "train" and output == "--diagnostics":
            argv += ["--out", tmp_path / "m.txt"]
        if command != "train":
            argv += ["--test", test, "--folds", "3", "--c-values", "1",
                     "--delta-values", "1", "--v-values", "1"]
        assert run(argv) == 2
        assert solves == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {source} and {output} name the same file: {named}\n"
        assert {path: path.read_bytes() for path in data_files} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.svm", "train.svm"]

    def test_inputs_may_name_one_file(self, data_files, tmp_path):
        # only an output that names another file is refused
        train, _ = data_files
        assert run(["grid", "--data", train, "--test", train, "--out", tmp_path / "g.csv",
                    "--folds", "3", "--c-values", "1", "--delta-values", "1",
                    "--v-values", "1", "--max-iter", "5"]) == 0

    def test_grid_flags_build_only_the_requested_configs(self, monkeypatch):
        # the stock values come from constants, not from building the stock
        # grid's 2250 configs, and each config is built once
        stock_v = tuning.STOCK_V_VALUES
        built = []
        post_init = admm.TrainConfig.__post_init__

        def counting(cfg):
            built.append((cfg.C, cfg.delta, cfg.slide.v))
            post_init(cfg)

        monkeypatch.setattr(admm.TrainConfig, "__post_init__", counting)
        parser = cli.build_parser()
        args = parser.parse_args(["grid", "--data", "a.svm", "--c-values", "1,2",
                                  "--delta-values", "1", "--v-values", "0.5"])
        cli._grid_from_args(args)
        assert built == [(1.0, 1.0, 0.5), (2.0, 1.0, 0.5)]
        built.clear()
        args = parser.parse_args(["flip", "--data", "a.svm", "--test", "b.svm",
                                  "--c-values", "1", "--delta-values", "1"])
        configs = cli._grid_from_args(args)
        assert built == [(1.0, 1.0, v) for v in stock_v]
        assert [cfg.slide.v for cfg in configs] == list(stock_v)

    def test_more_folds_than_rows_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "three.svm"
        data.write_text("+1 1:1\n-1 1:-1\n+1 1:2\n")
        assert run(["grid", "--data", data, "--folds", "4", "--c-values", "1",
                    "--delta-values", "1", "--v-values", "1"]) == 1
        assert "need 2 <= k <= m, got k=4, m=3" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "slidesvm" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, status, stream, text",
    [(["proxcheck", "--samples", "20"], 0, "stdout", "proxcheck: 20 samples, "),
     (["train", "--data", "missing.svm", "--out", "m.txt"], 1, "stderr", "error: cannot read"),
     (["grid", "--data", "missing.svm", "--folds", "1"], 2, "stderr", "--folds"),
     (["eval", "--model", "missing.txt", "--data", "missing.svm"], 1, "stderr",
      "error: cannot read missing.txt: "),
     (["grid", "--data", "missing.svm", "--c-values", "1,x"], 2, "stderr",
      "argument --c-values: bad float list '1,x'")],
)
def test_the_module_runs_as_a_process(argv, status, stream, text, tmp_path):
    # the __main__ guard and entrypoint turn main's status into the exit code
    done = run_process(argv, tmp_path)
    assert done.returncode == status, done.stderr
    assert text in getattr(done, stream)


def run_process(argv, cwd):
    src = Path(cli.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "slidesvm.cli", *argv], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )


def test_train_writes_no_model_that_eval_would_reject(tmp_path):
    # values near the largest float overflow the Gram of the w-system, with
    # a RuntimeWarning (so in a process of its own), and the solve ends with
    # b = nan; the model is refused before its file is opened. At C = 0.5
    # LAPACK alone would solve the infinite Gram to w = 0 and give a capped
    # model with b = 0; a non-finite Gram diagonal solves to w = nan instead
    (tmp_path / "wide.svm").write_text("+1 1:-1e308\n-1 1:1e308\n+1 1:0.5\n-1 1:0.25\n")
    for flags in ([], ["--C", "0.5"]):
        done = run_process(["train", "--data", "wide.svm", "--out", "model.txt", *flags], tmp_path)
        assert done.returncode == 1, flags
        assert "overflow" in done.stderr
        assert done.stderr.endswith("error: non-finite bias b=nan\n")
        assert done.stdout == "" and not (tmp_path / "model.txt").exists()

import csv
import dataclasses

import numpy as np
import pytest

from slidesvm import admm, cli, data
from slidesvm.cli import main
from slidesvm.data import gaussian_clusters, parse_libsvm, widen, write_libsvm
from slidesvm.loss import SlideParams, prox_thresholds
from slidesvm.model import (
    Model,
    SupportSet,
    accuracy,
    confusion_counts,
    load_model,
    save_model,
)
from slidesvm.tuning import Grid, grid_search


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
        _, diag = admm.train(parse_libsvm(train.read_bytes()), cfg)
        assert [row[:2] for row in rows] == [
            [str(k), str(size)] for k, size in enumerate(diag.working_set_sizes, start=1)
        ]
        assert [[float(cell) for cell in row[2:]] for row in rows] == [
            [*dataclasses.astuple(res), obj]
            for res, obj in zip(diag.residual_history, diag.objective_history)
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
        sup = SupportSet(*(np.empty(0, dtype=np.int64),) * 3, np.empty(0))
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
         ("w x:1", "malformed weight entry 'x:1'"),
         ("support_t1 1:zz", "malformed support entry '1:zz'"),
         ("w -1:7.0", "negative index in weight entry '-1:7.0'"),
         ("support_t1 -3:-0.5", "negative index in support entry '-3:-0.5'")],
        ids=["header", "w-value", "w-index", "support-value", "w-negative-index",
             "support-negative-index"],
    )
    def test_corrupt_model_fails(self, data_files, tmp_path, capsys, bad_line, message):
        _, test = data_files
        bad = tmp_path / "bad.txt"
        if bad_line is None:
            bad.write_text("not a model\n")
        else:
            sup = SupportSet(*(np.array([0]),) * 2, np.empty(0, dtype=np.int64), np.array([-0.5]))
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

    def test_cells_read_back_bit_for_bit(self, tmp_path):
        # overlapping clusters, so the accuracies are not short decimals
        train = tmp_path / "overlap.svm"
        train.write_text(write_libsvm(gaussian_clusters(80, seed=30, center=1.0)))
        out = tmp_path / "grid.csv"
        assert run(["grid", "--data", train, "--folds", "3", "--seed", "4", "--repeats", "1",
                    "--c-values", "0.5,1.0", "--delta-values", "1.0", "--v-values", "0.3,1.0",
                    "--max-iter", "200", "--out", out]) == 0
        grid = Grid(c_values=(0.5, 1.0), delta_values=(1.0,), v_values=(0.3, 1.0), K=200)
        result = grid_search(parse_libsvm(train.read_bytes()), grid, k=3, seed=4)
        rows = read_csv(out)[1:-1]
        assert [float(row[4]) for row in rows] == result.mean_accuracies.tolist()
        assert [
            [float(acc) for acc in row[5].split(";")] for row in rows
        ] == result.fold_accuracies.tolist()


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

    def test_invalid_rate_rejected(self, data_files, tmp_path, capsys):
        train, test = data_files
        status = run(["flip", "--data", train, "--test", test, "--rates", "1.5"])
        assert status == 2
        assert "rate" in capsys.readouterr().err

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

    def test_rejects_zero_samples(self, capsys):
        assert run(["proxcheck", "--samples", "0"]) == 2


class TestParser:
    @pytest.mark.parametrize(
        "command, flag, value",
        [("grid", "--folds", "1"), ("grid", "--repeats", "0"), ("grid", "--parallel", "-3"),
         ("flip", "--folds", "1"), ("flip", "--parallel", "0"),
         ("proxcheck", "--step", "0"), ("proxcheck", "--step", "nan")],
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
         ("flip", "--c-values", "nan"), ("flip", "--rates", "2")],
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

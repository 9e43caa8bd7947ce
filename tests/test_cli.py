import numpy as np
import pytest

from slidesvm import cli
from slidesvm.cli import main
from slidesvm.data import gaussian_clusters, parse_libsvm, write_libsvm
from slidesvm.loss import SlideParams
from slidesvm.model import (
    Model,
    SupportSet,
    accuracy,
    confusion_counts,
    load_model,
    save_model,
)


@pytest.fixture()
def data_files(tmp_path):
    train = tmp_path / "train.svm"
    test = tmp_path / "test.svm"
    train.write_text(write_libsvm(gaussian_clusters(80, seed=30, center=2.5)))
    test.write_text(write_libsvm(gaussian_clusters(40, seed=31, center=2.5)))
    return train, test


def run(argv):
    return main([str(a) for a in argv])


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
        lines = diag_path.read_text().splitlines()
        assert lines[0].startswith("k,working_set_size")
        assert len(lines) == mdl.iterations + 1

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

    def test_non_finite_feature_fails_without_training(self, tmp_path, capsys):
        data = tmp_path / "nan.svm"
        data.write_text("+1 1:0.5\n-1 1:nan\n+1 1:0.7\n-1 1:-0.2\n")
        model_path = tmp_path / "m.txt"
        status = run(["train", "--data", data, "--out", model_path])
        assert status == 1
        captured = capsys.readouterr()
        assert "line 2: non-finite value nan" in captured.err
        assert captured.out == "" and not model_path.exists()

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

    def test_corrupt_model_fails(self, data_files, tmp_path, capsys):
        _, test = data_files
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        assert run(["eval", "--model", bad, "--data", test]) == 1
        assert "header" in capsys.readouterr().err

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
        ds = parse_libsvm(slim.read_text(), n_features=mdl.n)
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
        rates = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        assert rates == ["0.0", "0.05", "0.15"]

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

    def test_rejects_zero_samples(self, capsys):
        assert run(["proxcheck", "--samples", "0"]) == 2


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "slidesvm" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

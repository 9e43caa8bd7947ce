"""Self-tests of the benchmark code: python3 -m pytest perfbench -q"""

import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402


def test_generator_is_a_function_of_the_seed(tmp_path):
    a = gen.write_files("splice", 5, str(tmp_path))[1]
    (tmp_path / "again").mkdir()
    b = gen.write_files("splice", 5, str(tmp_path / "again"))[1]
    c = gen.generate("splice", 6)
    assert a == b
    assert c["train"][0] != gen.generate("splice", 5)["train"][0]
    assert c["train"][1].shape == (1000, 60) and c["test"][1].shape == (2175, 60)


def _grid_output():
    header = "C,delta,v,epsilon,mean_acc,fold_accs,converged_folds\n"
    rows = [
        (0.5, 2.0, 0.2, 0.02, [0.5, 0.75, 1.0], 3),
        (2.0, 0.5, 1.0, 0.1, [1.0, 0.75, 0.5], 1),  # ties; the smaller C wins
        (2.0, 2.0, 1.0, 0.1, [0.5, 0.5, 0.75], 0),
    ]
    body = "".join(
        f"{c!r},{d!r},{v!r},{e!r},{float(np.mean(accs))!r},"
        f"{';'.join(repr(a) for a in accs)},{conv}\n"
        for c, d, v, e, accs, conv in rows
    )
    csv_text = header + body + "0.5,2.0,0.2,0.02,0.8125,test,1\n"
    stdout = (
        "test accuracy 0.8125\n"
        "best config: C=0.5 delta=2.0 v=0.2 epsilon=0.02 cv_acc=0.7500\n"
    )
    return csv_text, stdout


def test_grid_check_accepts_consistent_output_and_rejects_a_changed_mean():
    csv_text, stdout = _grid_output()
    errors, facts = check.check_grid(csv_text, stdout, folds=3)
    assert errors == []
    assert facts["cv_acc"] == 0.75 and facts["test_acc"] == 0.8125

    changed = csv_text.replace(",0.75,0.5;0.75;1.0,", ",0.7500001,0.5;0.75;1.0,")
    assert changed != csv_text
    errors, _ = check.check_grid(changed, stdout, folds=3)
    assert any("mean_acc" in e for e in errors)


def test_grid_check_rejects_a_printed_best_that_is_not_the_argmax():
    csv_text, stdout = _grid_output()
    wrong = stdout.replace("C=0.5 delta=2.0 v=0.2 epsilon=0.02", "C=2.0 delta=0.5 v=1.0 epsilon=0.1")
    errors, _ = check.check_grid(csv_text, wrong, folds=3)
    assert any("argmax" in e for e in errors)


def _model_text(w, b):
    weights = " ".join(f"{j}:{float(x)!r}" for j, x in enumerate(w) if x != 0.0)
    return (
        "slidesvm-model v1\nn=3\nC=1.0\ndelta=1.0\nepsilon=0.1\nv=1.0\n"
        f"converged=false\niterations=7\nb={b!r}\nw {weights}\n"
        "support_t1 \nsupport_t2 \n"
    )


def test_eval_check_rejects_a_model_whose_b_changed():
    rng = np.random.default_rng(0)
    X = rng.integers(1, 5, size=(200, 3)).astype(float)
    w = np.array([0.5, -1.0, 0.25])
    b = 0.8
    y = np.where(X @ w + b + rng.normal(0, 0.5, 200) > 0, 1, -1)
    (tp, fp, tn, fn), _ = check.confusion(w, b, X, y)
    stdout = f"accuracy {(tp + tn) / 200:.4f}\ntp {tp} fp {fp} tn {tn} fn {fn}\n"

    w_read, b_read, _ = check.parse_model(_model_text(w, b))
    assert check.check_eval(stdout, w_read, b_read, X, y)[0] == []

    w_read, b_read, _ = check.parse_model(_model_text(w, b + 3.0))
    assert check.check_eval(stdout, w_read, b_read, X, y)[0] != []


def test_self_time_of_a_span_tree_with_parallel_children():
    # root [0, 10] in pid 1; child a [1, 4] in pid 1 with its own child d
    # [2, 3]; children b [2, 6] and c [5, 8] in two workers overlap, so the
    # root's children cover [1, 8] once: root self = 10 - 7 = 3
    tree = [
        ["1:0", "tuning.grid_search", 0.0, 10.0, None, 1],
        ["1:1", "tuning._scaled_folds", 1.0, 4.0, "1:0", 1],
        ["1:2", "data.subset", 2.0, 3.0, "1:1", 1],
        ["2:0", "tuning._score_folds", 2.0, 6.0, "1:0", 2],
        ["3:0", "tuning._score_folds", 5.0, 8.0, "1:0", 3],
    ]
    assert report.self_times(tree) == {"1:0": 3.0, "1:1": 2.0, "1:2": 1.0, "2:0": 4.0, "3:0": 3.0}


def test_tracer_links_parents_and_folds_spans_inside_a_solve():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.enter("tuning.grid_search")  # t=0
    solve = tracer.enter("admm.train")  # t=1
    phase = tracer.enter("admm.compute_z")  # t=2
    tracer.exit("admm.compute_z", phase)  # t=3
    tracer.exit("admm.train", solve)  # t=4
    tracer.exit("tuning.grid_search", outer)  # t=5
    pid = os.getpid()
    assert tracer.spans == [
        [f"{pid}:1", "admm.train", 1.0, 4.0, f"{pid}:0", pid],
        [f"{pid}:0", "tuning.grid_search", 0.0, 5.0, None, pid],
    ]
    assert tracer.totals["admm.compute_z"] == [1, 1.0]


@pytest.mark.parametrize("n, pct", [(5, 100.0), (19, 100.0), (20, 50.0), (100, 90.0)])
def test_tail_percentile_keeps_ten_values_above_it(n, pct):
    values = list(range(1, n + 1))
    median, tail_value, got = report.tail(values)
    assert got == pct
    assert median == np.median(values)
    assert sum(v > tail_value for v in values) >= (10 if pct < 100 else 0)

"""Checks of the CLI's outputs, independent of the slidesvm package.

Each ``check_*`` function returns (errors, facts): a list of messages, empty
when the output passes, and the numbers the benchmark reports from it.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

# float summation order may differ between a row mean and numpy's axis mean
MEAN_TOL = 1e-12

GRID_HEADER = ["C", "delta", "v", "epsilon", "mean_acc", "fold_accs", "converged_folds"]
FLIP_HEADER = ["rate", "C", "delta", "v", "epsilon", "cv_acc", "test_acc", "converged"]
BEST_RE = re.compile(
    r"^best config: C=(\S+) delta=(\S+) v=(\S+) epsilon=(\S+) cv_acc=(\S+)$", re.M
)
TEST_RE = re.compile(r"^test accuracy (\S+)$", re.M)
RATE_RE = re.compile(
    r"^rate (\S+): test accuracy (\S+) \(C=(\S+) delta=(\S+) v=(\S+)\)$", re.M
)
TRAIN_RE = re.compile(
    r"^trained on (\d+) samples, (\d+) features: "
    r"converged=(true|false) iterations=(\d+) max_residual=(\S+)$",
    re.M,
)
EVAL_RE = re.compile(r"^accuracy (\S+)\ntp (\d+) fp (\d+) tn (\d+) fn (\d+)$", re.M)


def _rows(text: str, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"bad CSV header {rows[:1]}")
    return rows[1:]


def check_grid(csv_text: str, stdout: str, folds: int):
    """grid --test output: per-config rows, the test row, the printed lines."""
    errors = []
    try:
        rows = _rows(csv_text, GRID_HEADER)
        *configs, last = rows
        table = []
        for row in configs:
            c, delta, v, eps, mean = (float(x) for x in row[:5])
            accs = [float(a) for a in row[5].split(";")]
            conv = int(row[6])
            table.append((c, delta, v, eps, mean, accs, conv))
        test_row = [float(x) for x in last[:5]] + [last[5], int(last[6])]
    except (ValueError, IndexError) as exc:
        return [f"grid CSV does not parse: {exc}"], {}

    for c, delta, v, eps, mean, accs, conv in table:
        if len(accs) != folds:
            errors.append(f"config {(c, delta, v, eps)} has {len(accs)} folds")
        if not math.isclose(mean, float(np.mean(accs)), rel_tol=MEAN_TOL, abs_tol=MEAN_TOL):
            errors.append(f"mean_acc {mean!r} != mean of fold_accs for {(c, delta, v, eps)}")
        if not 0 <= conv <= folds:
            errors.append(f"converged_folds {conv} out of range")
    if not table:
        return errors + ["grid CSV has no configs"], {}

    # _pick_best: highest mean; ties go to the smaller C, delta, v, epsilon
    best = min(table, key=lambda r: (-r[4], r[0], r[1], r[2], r[3]))
    found = BEST_RE.search(stdout)
    if found is None:
        errors.append("no best config line")
    else:
        printed = tuple(float(x) for x in found.groups()[:4])
        if printed != best[:4]:
            errors.append(f"printed best {printed} is not the CSV argmax {best[:4]}")
        if found.group(5) != f"{best[4]:.4f}":
            errors.append(f"printed cv_acc {found.group(5)} != {best[4]:.4f}")
    if test_row[5] != "test" or tuple(test_row[:4]) != best[:4]:
        errors.append(f"test row {last} does not hold the best config")
    found = TEST_RE.search(stdout)
    if found is None or found.group(1) != f"{test_row[4]:.4f}":
        errors.append("printed test accuracy does not match the CSV test row")

    facts = {
        "cv_acc": best[4],
        "test_acc": test_row[4],
        # every fold of every config, plus the final fit
        "converged_solves": sum(r[6] for r in table) + test_row[6],
    }
    return errors, facts


def check_flip(csv_text: str, stdout: str, rates):
    """flip output: one CSV row and one printed line per rate, rate 0 first."""
    errors = []
    try:
        rows = [
            [float(x) for x in row[:7]] + [int(row[7])]
            for row in _rows(csv_text, FLIP_HEADER)
        ]
    except (ValueError, IndexError) as exc:
        return [f"flip CSV does not parse: {exc}"], {}
    want = [0.0] + [r for r in rates if r != 0.0]
    if [r[0] for r in rows] != want:
        return [f"flip CSV rates {[r[0] for r in rows]} != {want}"], {}
    printed = RATE_RE.findall(stdout)
    if len(printed) != len(rows):
        errors.append(f"{len(printed)} printed rate lines for {len(rows)} CSV rows")
    for row, line in zip(rows, printed):
        rate, c, delta, v, eps, cv_acc, test_acc, conv = row
        expect = (f"{rate:g}", f"{test_acc:.4f}", repr(c), repr(delta), repr(v))
        if line != expect:
            errors.append(f"printed {line} != CSV {expect}")
        if not (0.0 <= cv_acc <= 1.0 and 0.0 <= test_acc <= 1.0 and conv in (0, 1)):
            errors.append(f"flip row out of range: {row}")
    facts = {
        "cv_acc": float(np.mean([r[5] for r in rows])),
        "test_acc": float(np.mean([r[6] for r in rows])),
    }
    return errors, facts


def parse_model(text: str):
    """(w, b, fields) from model text, keyed on each line's tag."""
    fields, w = {}, None
    for line in text.splitlines():
        tag, sep, rest = line.partition("=")
        if sep and " " not in tag:
            fields[tag] = rest
        elif line.startswith("w"):
            w = line[1:].split()
    if not text.startswith("slidesvm-model ") or w is None or "b" not in fields:
        raise ValueError("not a slidesvm model file")
    weights = np.zeros(int(fields["n"]))
    for token in w:
        idx, _, val = token.partition(":")
        weights[int(idx)] = float(val)
    return weights, float(fields["b"]), fields


def check_train(stdout: str, model_text: str, X: np.ndarray):
    """train output: the printed summary agrees with the model file."""
    try:
        w, b, fields = parse_model(model_text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"model file does not parse: {exc}"], {}
    errors = []
    found = TRAIN_RE.search(stdout)
    if found is None:
        return ["no training summary line"], {}
    m, n, converged, iterations, _ = found.groups()
    if (int(m), int(n)) != X.shape:
        errors.append(f"trained on {m}x{n}, data is {X.shape}")
    if (converged, iterations) != (fields.get("converged"), fields.get("iterations")):
        errors.append("printed converged/iterations disagree with the model file")
    return errors, {"w": w, "b": b}


def confusion(w, b, X, y):
    """(tp, fp, tn, fn) of sign(Xw + b), a score of 0 counting as -1, and the
    number of rows whose score is too close to 0 to call."""
    scores = X @ w + b
    pred = np.where(scores > 0.0, 1, -1)
    pos, neg = y > 0, y < 0
    counts = (
        int(np.sum(pred[pos] > 0)),
        int(np.sum(pred[neg] > 0)),
        int(np.sum(pred[neg] < 0)),
        int(np.sum(pred[pos] < 0)),
    )
    return counts, int(np.sum(np.abs(scores) <= 1e-9 * (1.0 + np.abs(b))))


def check_eval(stdout: str, w, b, X, y):
    """eval output: accuracy and confusion counts recomputed from the model."""
    found = EVAL_RE.search(stdout)
    if found is None:
        return ["no accuracy/confusion lines"], {}
    printed = tuple(int(x) for x in found.groups()[1:])
    counts, unsure = confusion(w, b, X, y)
    errors = []
    if any(abs(p - c) > unsure for p, c in zip(printed, counts)):
        errors.append(f"eval counts {printed} != recomputed {counts}")
    acc = (counts[0] + counts[2]) / len(y)
    if unsure == 0 and found.group(1) != f"{acc:.4f}":
        errors.append(f"eval accuracy {found.group(1)} != recomputed {acc:.4f}")
    return errors, {"test_acc": acc}

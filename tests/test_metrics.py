import json
from fractions import Fraction

import numpy as np
import pytest

from ttrnn import rng
from ttrnn.errors import EmptyTestSet, LabelOutOfRange
from ttrnn.metrics import (
    ConfusionCounts,
    MetricsReport,
    evaluate,
    f1,
    precision,
    recall,
    report_from_counts,
)


def brute_force(y_true, y_pred, num_classes):
    """Reference metrics computed by direct counting with exact fractions."""
    per_f1 = []
    per_p = []
    per_r = []
    tp_all = fp_all = fn_all = 0
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f = Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn else Fraction(0)
        per_p.append(p)
        per_r.append(r)
        per_f1.append(f)
    macro = sum(per_f1, Fraction(0)) / num_classes
    micro = (
        Fraction(2 * tp_all, 2 * tp_all + fp_all + fn_all)
        if 2 * tp_all + fp_all + fn_all
        else Fraction(0)
    )
    acc = Fraction(
        sum(1 for t, p in zip(y_true, y_pred) if t == p), len(y_true)
    )
    return per_p, per_r, per_f1, macro, micro, acc


def test_worked_f1_example():
    # one class with TP=6, FP=2, FN=3 gives F1 = 12/17
    counts = ConfusionCounts(tp=(6,), fp=(2,), fn=(3,), tn=(0,))
    report = report_from_counts(counts)
    assert abs(report.f1[0] - 0.705882) <= 1e-6
    assert report.f1[0] == float(Fraction(12, 17))
    p, r = precision(counts, 0), recall(counts, 0)
    assert f1(p, r) == pytest.approx(report.f1[0], abs=1e-12)


def test_zero_denominators_give_zero():
    counts = ConfusionCounts(tp=(0,), fp=(0,), fn=(0,), tn=(5,))
    report = report_from_counts(counts)
    assert report.precision[0] == 0.0
    assert report.recall[0] == 0.0
    assert report.f1[0] == 0.0


def test_single_class_all_correct():
    report = evaluate([0, 0, 0], [0, 0, 0], num_classes=1)
    assert report.macro_f1 == 1.0
    assert report.accuracy == 1.0


def test_evaluate_matches_brute_force_exactly_on_random_sets():
    for trial in range(300):
        seed = rng.split(123, trial)
        c = 2 + int(rng.randint_below(seed, 5, 1)[0])
        n = 1 + int(rng.randint_below(rng.split(seed, 1), 40, 1)[0])
        y_true = rng.randint_below(rng.split(seed, 2), c, n)
        y_pred = rng.randint_below(rng.split(seed, 3), c, n)
        report = evaluate(y_true, y_pred, num_classes=c)
        per_p, per_r, per_f1, macro, micro, acc = brute_force(
            y_true.tolist(), y_pred.tolist(), c
        )
        # bitwise equality: both sides convert one exact fraction to float
        assert report.precision == tuple(float(x) for x in per_p)
        assert report.recall == tuple(float(x) for x in per_r)
        assert report.f1 == tuple(float(x) for x in per_f1)
        assert report.macro_f1 == float(macro)
        assert report.micro_f1 == float(micro)
        assert report.accuracy == float(acc)


def test_confusion_counts_from_predictions():
    counts = ConfusionCounts.from_predictions([0, 1, 1, 2], [0, 1, 2, 2], 3)
    assert counts.tp == (1, 1, 1)
    assert counts.fp == (0, 0, 1)
    assert counts.fn == (0, 1, 0)
    assert counts.total == 4


def test_labels_out_of_range_rejected():
    with pytest.raises(LabelOutOfRange):
        ConfusionCounts.from_predictions([0, 3], [0, 1], num_classes=3)
    with pytest.raises(LabelOutOfRange):
        ConfusionCounts.from_predictions([0, 1], [0, -1], num_classes=3)


def test_empty_set_rejected():
    with pytest.raises(EmptyTestSet):
        evaluate([], [], num_classes=2)


def test_report_dict_round_trip():
    report = evaluate([0, 1, 2, 1], [0, 2, 2, 1], num_classes=3, loss=0.25)
    no_loss = evaluate([0, 1], [0, 1], num_classes=2)
    for r in (report, no_loss):
        assert MetricsReport.from_dict(r.to_dict()) == r
        # through JSON text too, where a tuple comes back as a list
        assert MetricsReport.from_dict(json.loads(json.dumps(r.to_dict()))) == r
    assert "loss" not in no_loss.to_dict()
    assert MetricsReport.from_dict(no_loss.to_dict()).loss is None


def test_micro_f1_equals_accuracy_when_every_item_is_labeled_once():
    # single-label multi-class: pooled FP and FN both equal the miss count
    y_true = [0, 1, 2, 2, 1, 0, 2]
    y_pred = [0, 2, 2, 1, 1, 0, 0]
    report = evaluate(y_true, y_pred, num_classes=3)
    assert report.micro_f1 == report.accuracy

"""One-vs-rest confusion counting and F1-style metrics.

All ratios are formed from integer counts with exact rational arithmetic
and converted to float once at the end, so results are independent of
accumulation order and can be compared exactly against any oracle that
counts the same way.  Zero denominators yield 0 by convention, which
keeps every metric total and inside [0, 1].  A MetricsReport is stored by
the rule of ttrnn.records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import records
from .errors import EmptyTestSet, LabelOutOfRange


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-class one-vs-rest counts over a fixed number of classes."""

    tp: tuple
    fp: tuple
    fn: tuple
    tn: tuple

    @property
    def num_classes(self) -> int:
        return len(self.tp)

    @property
    def total(self) -> int:
        return self.tp[0] + self.fp[0] + self.fn[0] + self.tn[0]

    @staticmethod
    def from_predictions(y_true, y_pred, num_classes: int) -> "ConfusionCounts":
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        if y_true.shape != y_pred.shape or y_true.ndim != 1:
            raise LabelOutOfRange(
                "labels and predictions must be equal-length vectors, got %r and %r"
                % (y_true.shape, y_pred.shape)
            )
        for name, arr in (("label", y_true), ("prediction", y_pred)):
            if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
                raise LabelOutOfRange(
                    "%s outside [0, %d)" % (name, num_classes)
                )
        n = y_true.size
        tp, fp, fn, tn = [], [], [], []
        for c in range(num_classes):
            is_true = y_true == c
            is_pred = y_pred == c
            tp_c = int(np.sum(is_true & is_pred))
            fp_c = int(np.sum(~is_true & is_pred))
            fn_c = int(np.sum(is_true & ~is_pred))
            tp.append(tp_c)
            fp.append(fp_c)
            fn.append(fn_c)
            tn.append(n - tp_c - fp_c - fn_c)
        return ConfusionCounts(tuple(tp), tuple(fp), tuple(fn), tuple(tn))


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if den else Fraction(0)


def precision(counts: ConfusionCounts, c: int) -> float:
    return float(_ratio(counts.tp[c], counts.tp[c] + counts.fp[c]))


def recall(counts: ConfusionCounts, c: int) -> float:
    return float(_ratio(counts.tp[c], counts.tp[c] + counts.fn[c]))


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both vanish."""
    return 2.0 * p * r / (p + r) if p + r else 0.0


def _f1_fraction(tp: int, fp: int, fn: int) -> Fraction:
    # algebraically 2PR/(P+R) but formed in one step from the raw counts
    return _ratio(2 * tp, 2 * tp + fp + fn)


@dataclass(frozen=True)
class MetricsReport:
    precision: tuple  # per class
    recall: tuple
    f1: tuple
    macro_f1: float
    micro_f1: float
    accuracy: float
    loss: float | None = None

    def to_dict(self) -> dict:
        return records.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return records.from_dict(cls, d)


def report_from_counts(counts: ConfusionCounts, loss: float | None = None) -> MetricsReport:
    c_count = counts.num_classes
    f = [_f1_fraction(counts.tp[c], counts.fp[c], counts.fn[c]) for c in range(c_count)]
    macro = sum(f, Fraction(0)) / c_count
    pooled_tp = sum(counts.tp)
    pooled_fp = sum(counts.fp)
    pooled_fn = sum(counts.fn)
    micro = _ratio(2 * pooled_tp, 2 * pooled_tp + pooled_fp + pooled_fn)
    accuracy = _ratio(pooled_tp, counts.total)
    return MetricsReport(
        precision=tuple(precision(counts, c) for c in range(c_count)),
        recall=tuple(recall(counts, c) for c in range(c_count)),
        f1=tuple(float(x) for x in f),
        macro_f1=float(macro),
        micro_f1=float(micro),
        accuracy=float(accuracy),
        loss=loss,
    )


def evaluate(y_true, y_pred, num_classes: int, loss: float | None = None) -> MetricsReport:
    """Full report for one batch of predictions."""
    y_true = np.asarray(y_true)
    if y_true.size == 0:
        raise EmptyTestSet("no examples to evaluate")
    counts = ConfusionCounts.from_predictions(y_true, y_pred, num_classes)
    return report_from_counts(counts, loss=loss)

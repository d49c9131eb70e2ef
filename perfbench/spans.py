"""Span tracing of the ``adeval`` layers, installed from outside the package.

A :class:`Tracer` replaces public names with timing wrappers *where their
consumer looks them up*: ``build_roc`` is bound separately in
``experiments``, ``thresholded`` and ``volume``, ``split`` in ``experiments``
and ``cli``, and the aggregate functions are reached through ``cli``.  Model
``score`` methods and the record store methods are wrapped on their class.
Leaving the ``with`` block restores every original, so untraced runs execute
the unmodified program.

Spans stay in memory (one short list each) and are written out by
:meth:`Tracer.write_spans` after the run.  A span's self time is its
duration minus the durations of its direct children; the program is single
threaded in the traced run (one worker), so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

FAMILIES = ("knn", "lof", "iforest")
AGGREGATE_KINDS = ("rank", "kendall", "loss", "multiclass")

_VOLUME_SPAN = "volume.mc_volume"


def _targets() -> tuple[list, list[str]]:
    """(owner, attribute, span name) of every traced binding, and those absent.

    A binding that this version of ``adeval`` does not have is skipped and
    reported, so the benchmark still runs after the program is restructured.
    """
    from adeval import cli, detectors, experiments, thresholded, volume

    wanted = [
        (experiments, "split", "datasets.split"),
        (cli, "split", "datasets.split"),
        (experiments, "knn_fit", "detectors.fit.knn"),
        (experiments, "lof_fit", "detectors.fit.lof"),
        (experiments, "iforest_fit", "detectors.fit.iforest"),
        (getattr(detectors, "KnnModel", None), "score", "detectors.score.knn"),
        (getattr(detectors, "LofModel", None), "score", "detectors.score.lof"),
        (getattr(detectors, "IsolationForestModel", None), "score", "detectors.score.iforest"),
        (experiments, "build_roc", "curves.build_roc"),
        (thresholded, "build_roc", "curves.build_roc"),
        (volume, "build_roc", "curves.build_roc"),
        (experiments, "f1_at_fpr", "thresholded.f1_at"),
        (experiments, "precision_at_p", "thresholded.precision_at"),
        (volume, "mc_volume_at_fpr", _VOLUME_SPAN),
        (cli, "mc_volume_at_fpr", _VOLUME_SPAN),
        (experiments, "run_cell", "experiments.run_cell"),
        (getattr(experiments, "RecordStore", None), "append", "experiments.store_append"),
        (getattr(experiments, "RecordStore", None), "load", "experiments.store_load"),
        (experiments, "mean_records", "experiments.mean_records"),
        (cli, "mean_rank_table", "experiments.aggregate.rank"),
        (cli, "kendall_matrix", "experiments.aggregate.kendall"),
        (cli, "loss_matrix_table", "experiments.aggregate.loss"),
        (cli, "multiclass_sensitivity", "experiments.aggregate.multiclass"),
        (cli, "cmd_prepare", "cli.prepare"),
        (cli, "cmd_run", "cli.run"),
        (cli, "cmd_aggregate", "cli.aggregate"),
    ]
    wanted += [
        (experiments, fn, "curves.measures")
        for fn in ("auc", "auc_weighted", "auc_at", "tpr_at")
    ]
    present, absent = [], []
    for owner, attr, name in wanted:
        if owner is not None and attr in vars(owner):
            present.append((owner, attr, name))
        else:
            absent.append(f"{getattr(owner, '__name__', '?')}.{attr}")
    return present, absent


class Tracer:
    """Collects spans while installed; aggregates self time and work counts.

    Each span is ``[name, start, end, parent, child_s, points]``; ``parent``
    is the index of the enclosing span or -1.  ``Model.score`` spans are
    named ``detectors.score_volume.<family>`` when they run under a
    ``volume.mc_volume`` span and ``detectors.score_test.<family>``
    otherwise, and carry the number of points scored.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def __enter__(self) -> "Tracer":
        targets, self.absent = _targets()
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        scoring = name.startswith("detectors.score.")
        family = name.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            span_name, points = name, 0
            if scoring:
                under_volume = any(
                    tracer.spans[i][0] == _VOLUME_SPAN for i in tracer._stack
                )
                kind = "score_volume" if under_volume else "score_test"
                span_name = f"detectors.{kind}.{family}"
                points = len(args[1])
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, 0.0, 0.0, parent, 0.0, points]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent][4] += span[2] - span[1]

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed ``self_s``, ``calls`` and ``points``."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "points": 0}
        )
        for name, start, end, _, child_s, points in self.spans:
            entry = out[name]
            entry["self_s"] += (end - start) - child_s
            entry["calls"] += 1
            entry["points"] += points
        return out

    def write_spans(self, path: Path, trace_id: str) -> None:
        """Write every span as one JSON line; spans of one CLI call share ``call``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            root = -1
            for i, (name, start, end, parent, child_s, points) in enumerate(self.spans):
                if parent < 0:
                    root = i
                handle.write(json.dumps({
                    "trace": trace_id, "call": root, "id": i, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "self_s": (end - start) - child_s, "points": points,
                }) + "\n")


def layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [("datasets.split.self_s", "s"), ("datasets.split.calls", "count")]
    for f in FAMILIES:
        names += [
            (f"detectors.fit.{f}.self_s", "s"), (f"detectors.fit.{f}.calls", "count"),
            (f"detectors.score_test.{f}.self_s", "s"), (f"detectors.score_test.{f}.points", "count"),
            (f"detectors.score_volume.{f}.self_s", "s"),
            (f"detectors.score_volume.{f}.points", "count"),
        ]
    names += [
        ("curves.build_roc.self_s", "s"), ("curves.build_roc.calls", "count"),
        ("curves.build_roc.per_cell", "calls/cell"), ("curves.measures.self_s", "s"),
        ("thresholded.f1_at.self_s", "s"), ("thresholded.precision_at.self_s", "s"),
        ("volume.mc_volume.self_s", "s"), ("volume.points_per_model", "ratio"),
        ("experiments.run_cell.self_s", "s"),
        ("experiments.store_append.self_s", "s"), ("experiments.store_append.calls", "count"),
        ("experiments.store_load.self_s", "s"), ("experiments.store_load.calls", "count"),
        ("experiments.mean_records.self_s", "s"), ("experiments.mean_records.calls", "count"),
    ]
    names += [(f"experiments.aggregate.{k}.self_s", "s") for k in AGGREGATE_KINDS]
    names += [(f"cli.{c}.self_s", "s") for c in ("prepare", "run", "aggregate")]
    return names


def layer_metrics(
    tracer: Tracer, cells: int, volume_samples: int
) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metric values of one traced study, plus the derived counts' bases."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    for name, _ in layer_names():
        span, _, field = name.rpartition(".")
        if span in totals and field in totals[span]:
            values[name] = totals[span][field]
        else:
            values[name] = 0.0 if field == "self_s" else 0
    models = sum(totals[f"detectors.fit.{f}"]["calls"] for f in FAMILIES if f"detectors.fit.{f}" in totals)
    volume_points = sum(values[f"detectors.score_volume.{f}.points"] for f in FAMILIES)
    roc_calls = values["curves.build_roc.calls"]
    values["curves.build_roc.per_cell"] = roc_calls / cells
    values["volume.points_per_model"] = volume_points / (models * volume_samples) if models else 0.0
    aggregate_calls = totals["cli.aggregate"]["calls"] if "cli.aggregate" in totals else 0
    bases = {
        "curves.build_roc.per_cell": {"build_roc_calls": roc_calls, "cells": cells},
        "volume.points_per_model": {
            "volume_points": volume_points, "fitted_models": models,
            "volume_samples": volume_samples,
        },
        "experiments.mean_records.calls": {
            "mean_records_calls": values["experiments.mean_records.calls"],
            "aggregate_calls": aggregate_calls,
            "per_kind": _calls_under(tracer, "experiments.mean_records", "experiments.aggregate."),
        },
    }
    return values, bases


def _calls_under(tracer: Tracer, name: str, ancestor_prefix: str) -> dict[str, int]:
    """Calls of ``name`` counted by their nearest ancestor whose name has the prefix."""
    counts: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and not tracer.spans[parent][0].startswith(ancestor_prefix):
            parent = tracer.spans[parent][3]
        owner = tracer.spans[parent][0].rsplit(".", 1)[-1] if parent >= 0 else "other"
        counts[owner] += 1
    return dict(counts)

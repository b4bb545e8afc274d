"""Span tracing of bbsvm's layers from outside the library.

``Tracer`` replaces the public entry points of each module with wrappers
that record a span (name, start, end, parent, attributes) and puts the
originals back on exit.  Spans stay in memory until ``write`` is called.
``layer_metrics`` turns the spans of one traced pipeline run into the
per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import time

import bbsvm.cover
import bbsvm.data
import bbsvm.model
import bbsvm.model_file
from bbsvm.cover import BlurredBallCover
from bbsvm.model import Model


def _offer_state(args):
    return len(args[1].pending)


def _offer_attrs(args, result, pending_before):
    # offer clears the buffer exactly when it ran the escape test on it.
    tested = pending_before + 1 if not args[1].pending else 0
    return {"tested": tested}


def _flush_attrs(args, result, pending_before):
    return {"tested": pending_before}


def _merge_state(args):
    return len(args[0].cores)


def _merge_attrs(args, result, balls_before):
    balls = len(args[0].cores)
    return {"balls": balls, "discarded": balls_before + 1 - balls}


def _meb_attrs(args, result, state):
    return {"inputs": len(args[0]), "core": len(result[1].members)}


def _parse_attrs(args, result, state):
    return {"lines": len(result)}


def _save_attrs(args, result, state):
    return {"bytes": os.path.getsize(args[1])}


# (span name, owner, attribute, state before the call, attributes after it).
# Each attribute is patched where the library looks it up: train_stream
# calls the module global ``bbsvm.model.feature_map``, and merge_update the
# ``approx_meb`` that ``bbsvm.cover`` imported from ``bbsvm.meb``.
TARGETS = [
    ("data.load_libsvm", bbsvm.data, "load_libsvm", None, _parse_attrs),
    ("model.train_stream", Model, "train_stream", None, None),
    ("model.feature_map", bbsvm.model, "feature_map", None, None),
    ("cover.offer", BlurredBallCover, "offer", _offer_state, _offer_attrs),
    ("cover.flush", BlurredBallCover, "flush", _offer_state, _flush_attrs),
    ("cover.merge_update", BlurredBallCover, "merge_update", _merge_state, _merge_attrs),
    ("meb.approx_meb", bbsvm.cover, "approx_meb", None, _meb_attrs),
    ("model_file.save_model", bbsvm.model_file, "save_model", None, _save_attrs),
    ("model_file.load_model", bbsvm.model_file, "load_model", None, None),
    ("model.predict", Model, "predict", None, None),
]


class Tracer:
    """Context manager that wraps every target while it is active.

    ``spans`` holds tuples ``(run, name, start, end, parent, attrs)``;
    ``parent`` is the index of the enclosing span or -1, and ``run`` is the
    value of ``self.run`` when the span opened, so the spans of one pipeline
    run share an identifier.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, owner, attr, before, after in TARGETS:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, before, after))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before else None
            run, index = self.run, len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (run, name, start, end, parent, None)  # if fn raised
            attrs = after(args, result, state) if after else None
            spans[index] = (run, name, start, end, parent, attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for run, name, start, end, parent, attrs in self.spans:
                record = {"run": run, "name": name, "start": start, "end": end,
                          "parent": parent}
                if attrs:
                    record.update(attrs)
                fh.write(json.dumps(record) + "\n")


def self_times(spans, offset: int = 0) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``offset`` is the index of ``spans[0]`` in the tracer's list, which the
    parent indices refer to; parents before it are outside the list.
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= offset:
            own[parent - offset] -= end - start
    return own


UNITS = {
    "data.parse_s": "s",
    "data.parse_lines_per_s": "lines/s",
    "model.feature_map_s": "s",
    "model.feature_map_calls": "count",
    "model.train_self_s": "s",
    "cover.escape_s": "s",
    "cover.escape_checks": "count",
    "cover.merges": "count",
    "cover.merge_rate": "fraction",
    "cover.merge_s": "s",
    "cover.merge_ms_p50": "ms",
    "cover.merge_ms_max": "ms",
    "cover.merge_self_s": "s",
    "cover.discarded": "count",
    "cover.balls_peak": "count",
    "cover.balls_final": "count",
    "meb.calls": "count",
    "meb.solve_s": "s",
    "meb.solve_ms_p50": "ms",
    "meb.input_points_p50": "count",
    "meb.input_points_max": "count",
    "meb.core_size_p50": "count",
    "model.predict_s": "s",
    "model_file.save_s": "s",
    "model_file.load_s": "s",
    "model_file.bytes": "bytes",
}


def layer_metrics(spans, offset: int = 0) -> dict[str, float]:
    """Per-layer metrics of a list of spans, one ``run`` id per model trained.

    Times and counts are totals over the spans; ``_p50`` and ``_max`` are
    taken over every merge; ``balls_peak`` is the largest cover seen after
    any merge and ``balls_final`` the mean final cover over runs.  ``offset``
    is as for ``self_times``.
    """
    own = self_times(spans, offset)
    duration = [s[3] - s[2] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[1], []).append(i)

    def total(name, times=duration):
        return sum(times[i] for i in by_name.get(name, []))

    def attr(name, key):
        return [spans[i][5][key] for i in by_name.get(name, [])]

    def median(values):
        return statistics.median(values) if values else 0.0

    parse_s = total("data.load_libsvm")
    merges = by_name.get("cover.merge_update", [])
    merge_ms = [1e3 * duration[i] for i in merges]
    meb_ms = [1e3 * duration[i] for i in by_name.get("meb.approx_meb", [])]
    checks = sum(t > 0 for t in attr("cover.offer", "tested") + attr("cover.flush", "tested"))
    balls = attr("cover.merge_update", "balls")
    final = {spans[i][0]: spans[i][5]["balls"] for i in merges}
    return {
        "data.parse_s": parse_s,
        "data.parse_lines_per_s": sum(attr("data.load_libsvm", "lines")) / parse_s,
        "model.feature_map_s": total("model.feature_map"),
        "model.feature_map_calls": len(by_name.get("model.feature_map", [])),
        "model.train_self_s": total("model.train_stream", own),
        "cover.escape_s": total("cover.offer", own) + total("cover.flush", own),
        "cover.escape_checks": checks,
        "cover.merges": len(merges),
        "cover.merge_rate": len(merges) / checks if checks else 0.0,
        "cover.merge_s": total("cover.merge_update"),
        "cover.merge_ms_p50": median(merge_ms),
        "cover.merge_ms_max": max(merge_ms, default=0.0),
        "cover.merge_self_s": total("cover.merge_update", own),
        "cover.discarded": sum(attr("cover.merge_update", "discarded")),
        "cover.balls_peak": max(balls, default=0),
        "cover.balls_final": statistics.fmean(final.values()) if final else 0.0,
        "meb.calls": len(meb_ms),
        "meb.solve_s": total("meb.approx_meb"),
        "meb.solve_ms_p50": median(meb_ms),
        "meb.input_points_p50": median(attr("meb.approx_meb", "inputs")),
        "meb.input_points_max": max(attr("meb.approx_meb", "inputs"), default=0),
        "meb.core_size_p50": median(attr("meb.approx_meb", "core")),
        "model.predict_s": total("model.predict"),
        "model_file.save_s": total("model_file.save_model"),
        "model_file.load_s": total("model_file.load_model"),
        "model_file.bytes": sum(attr("model_file.save_model", "bytes")),
    }

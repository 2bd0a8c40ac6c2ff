"""Span and counter recorder for the benchmark's traced runs.

It patches module attributes of an imported ``mission_profiler`` so that
calls into each layer's public functions are timed from outside the
program. Coarse calls (stages, file loads, model training) each get a
span with a name, start, end and parent; fine-grained calls (one per
tweet, profile or word) only add to a counter of calls and summed
seconds. Everything stays in memory until ``dump``.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

from mission_profiler import (
    classifier, detector, diversity, features, ingest, metrics, pipeline, readability,
    scores, topics, util,
)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.words: set[str] = set()
        self.phase = ""

    # -- wrappers ---------------------------------------------------------------

    def span(self, fn, name=None):
        """Record one span per call; name may be a function of the call's arguments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(self.spans)
            self.spans.append({
                "name": label, "phase": self.phase, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
            })
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx]["end"] = time.perf_counter()
        return wrapper

    def counter(self, fn, name, amount=None):
        """Add calls, summed seconds and optionally amount(*args) to a counter."""
        entry = self.counters.setdefault(name, {"calls": 0, "seconds": 0.0, "amount": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry["seconds"] += time.perf_counter() - start
                entry["calls"] += 1
                if amount is not None:
                    entry["amount"] += amount(*args, **kwargs)
        return wrapper

    def syllable_counter(self, fn):
        """count_syllables runs once per word token: count calls and
        distinct words only, since timing each call would cost more than it."""
        entry = self.counters.setdefault("readability.count_syllables", {"calls": 0, "seconds": 0.0, "amount": 0})
        words = self.words

        @functools.wraps(fn)
        def wrapper(word):
            entry["calls"] += 1
            words.add(word)
            return fn(word)
        return wrapper

    def cache_hit_counter(self, fn):
        entry = self.counters.setdefault("pipeline.cache_hits", {"calls": 0, "seconds": 0.0, "amount": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit = fn(*args, **kwargs)
            entry["calls"] += 1
            entry["amount"] += int(hit)
            return hit
        return wrapper

    def reset_counters(self) -> None:
        for entry in self.counters.values():
            entry.update(calls=0, seconds=0.0, amount=0)
        self.words.clear()

    # -- output -----------------------------------------------------------------

    def snapshot(self) -> dict:
        counters = {name: dict(entry) for name, entry in self.counters.items()}
        counters["readability.count_syllables"]["amount"] = len(self.words)
        return counters

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child_time)]


def _replace_everywhere(old, new) -> None:
    """Rebind every mission_profiler module attribute that refers to old,
    so names imported with 'from .x import f' see the wrapper too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mission_profiler" or mod_name.startswith("mission_profiler."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap the public functions each per-layer metric is built from."""
    spans = [
        (ingest, "load_timelines"), (ingest, "save_corpus"), (ingest, "load_corpus"),
        (topics, "load_tpvs"), (topics, "topic_aggregates"),
        (detector, "detect_clusters"), (detector, "overlap_evidence"),
        (classifier, "ablation"), (classifier, "flag_in_wild"),
    ]
    for mod, name in spans:
        fn = getattr(mod, name)
        _replace_everywhere(fn, rec.span(fn, f"{mod.__name__.rsplit('.', 1)[1]}.{name}"))

    train = classifier.train
    _replace_everywhere(train, rec.span(train, lambda kind, *a, **k: f"classifier.train_{kind}"))

    counted = [
        (ingest, "normalize_tweet", None),
        (diversity, "diversity_profile", None),
        (metrics, "compute_metric_bundle", None),
        (readability, "readability_metrics", None),
        (features, "extract_features", None),
        (util, "sha256_file", lambda path: os.path.getsize(path)),
    ]
    for mod, name, amount in counted:
        fn = getattr(mod, name)
        _replace_everywhere(fn, rec.counter(fn, f"{mod.__name__.rsplit('.', 1)[1]}.{name}", amount))

    count_syllables = readability.count_syllables
    _replace_everywhere(count_syllables, rec.syllable_counter(count_syllables))

    cache_load = scores.ScoreCache.__dict__["load"].__func__
    scores.ScoreCache.load = classmethod(rec.span(cache_load, "scores.cache_load"))
    scores.ScoreCache.save = rec.span(scores.ScoreCache.save, "scores.cache_save")

    pipeline.Pipeline.run = rec.span(pipeline.Pipeline.run, "pipeline.run")
    pipeline.Pipeline._cached = rec.cache_hit_counter(pipeline.Pipeline._cached)
    for stage in pipeline.STAGES:
        method = getattr(pipeline.Pipeline, f"stage_{stage}")
        setattr(pipeline.Pipeline, f"stage_{stage}", rec.span(method, f"pipeline.stage_{stage}"))


def dump(rec: Recorder, path: Path) -> None:
    """Write the spans, one JSON object per line, with their self time."""
    with open(path, "w", encoding="utf-8") as fh:
        for span, self_s in zip(rec.spans, rec.self_times()):
            fh.write(json.dumps({**span, "self_s": self_s}) + "\n")

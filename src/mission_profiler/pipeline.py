"""End-to-end pipeline: ingest -> score -> topics -> group -> metrics ->
detect -> features -> classify -> report.

Each stage's work is a module-level function over in-memory objects that
the matching CLI subcommand calls too. ``STAGE_TABLE`` lists the stages
in run order as data: the earlier artifacts and config files each reads,
every file it may write with a loader, and its compute function. One
runner, ``Pipeline._run_stage``, does the rest for every stage.

Stages write under out_dir/<stage>/ with a manifest recording the config
hash and the sha256 of every input and of every file the stage wrote,
the report's plot CSVs included. A rerun reuses a stage only when its
inputs hash as recorded and every output still hashes to its recorded
digest; an out dir written by a different config aborts the run. A stage
that reruns first deletes every file it declares, so one it no longer
produces (a skipped classifier's models) is gone rather than stale.
Results pass to later stages in memory; a file is read back only when
its stage was a cache hit and a later stage misses. A run hashes each
file at most once. Every output embeds the config hash, and all
randomness derives from the single top-level seed.
"""
from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass
from functools import partial, partialmethod
from pathlib import Path
from typing import Callable

import numpy as np

from . import classifier, detector, diversity, features, metrics, scores, topics
from .ingest import Corpus, load_corpus, load_timelines, save_corpus
from .util import canonical_dumps, derive_seed, read_json, sha256_file, sha256_text, write_json

EXIT_CODES = {
    "config": 2,
    "stale-cache": 3,
    "lock": 4,
    "ingest": 10,
    "score": 11,
    "topics": 12,
    "group": 13,
    "metrics": 14,
    "detect": 15,
    "features": 16,
    "classify": 17,
    "report": 18,
}


class PipelineError(Exception):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")

    @property
    def exit_code(self) -> int:
        return EXIT_CODES.get(self.stage, 1)


class StaleCacheError(PipelineError):
    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)
        self.stage = "stale-cache"


def parse_tox_gate(gate: str) -> tuple[str, float]:
    """Parse 'pNN' (percentile) or 'abs:X' (absolute) gate syntax."""
    try:
        if gate.startswith("abs:"):
            return ("absolute", float(gate[4:]))
        if gate.startswith("p"):
            return ("percentile", float(gate[1:]))
    except ValueError:
        pass
    raise PipelineError("config", f"bad tox gate {gate!r}; expected pNN or abs:X")


@dataclass
class RunConfig:
    tweets: str
    profiles: str | None = None
    tpvs: str | None = None
    use_baseline_topics: bool = False
    catalog: str | None = None
    K: int = 200
    toxicity_backend: str = "file"  # none | mock | file | http
    toxicity_path: str | None = None
    mock_toxicity_value: float = 0.5
    bot_backend: str = "none"  # none | mock | file
    bot_path: str | None = None
    labels: str | None = None  # ground-truth labels; falls back to designations
    detect_group: str = "VIII"
    min_cluster: int = 3
    tox_gate: str = "p75"  # p<percentile> or abs:<value>
    sample_n: int = 100
    seed: int = 42
    strict: bool = False

    def validate(self) -> None:
        if not Path(self.tweets).exists():
            raise PipelineError("config", f"tweets file not found: {self.tweets}")
        if self.profiles and not Path(self.profiles).exists():
            raise PipelineError("config", f"profiles file not found: {self.profiles}")
        if not self.use_baseline_topics:
            if not self.tpvs:
                raise PipelineError("config", "either tpvs or use_baseline_topics is required")
            if not Path(self.tpvs).exists():
                raise PipelineError("config", f"tpv file not found: {self.tpvs}")
        if self.catalog and not Path(self.catalog).exists():
            raise PipelineError("config", f"catalog file not found: {self.catalog}")
        if self.toxicity_backend not in ("none", "mock", "file", "http"):
            raise PipelineError("config", f"unknown toxicity backend {self.toxicity_backend!r}")
        if self.toxicity_backend == "file" and not self.toxicity_path:
            raise PipelineError("config", "toxicity_backend 'file' needs toxicity_path")
        if self.bot_backend not in ("none", "mock", "file"):
            raise PipelineError("config", f"unknown bot backend {self.bot_backend!r}")
        if self.detect_group not in diversity.GROUP_NAMES:
            raise PipelineError("config", f"unknown entropy group {self.detect_group!r}")
        parse_tox_gate(self.tox_gate)

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def config_hash(self) -> str:
        return sha256_text(canonical_dumps(self.as_dict()))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        payload = read_json(path)
        try:
            return cls(**payload)
        except TypeError as exc:
            raise PipelineError("config", f"bad config file: {exc}") from exc


Warn = Callable[[str], None]


# -- stage computations ------------------------------------------------------------
# Each takes and returns in-memory objects; Pipeline and the CLI subcommands
# both call them. `warn` receives the text of each warning.


def topic_vectors(
    K: int, seed: int, tpvs_path: str | None, catalog_path: str | None, corpus: Corpus | None = None,
) -> tuple[dict[str, np.ndarray], topics.TopicCatalog]:
    """Topic vectors read from tpvs_path, or made by the keyword-hash
    baseline over corpus when it is None, and the topic catalog (the demo
    one when catalog_path is None)."""
    if tpvs_path is None:
        tpvs = topics.baseline_topic_assigner(corpus, K, derive_seed(seed, "topics", "baseline"))
    else:
        tpvs = topics.load_tpvs(tpvs_path, K)
    catalog = topics.TopicCatalog.load(catalog_path) if catalog_path else topics.TopicCatalog.demo(K)
    if catalog.K != K:
        raise topics.CatalogError(f"catalog has K={catalog.K}, config has K={K}")
    return tpvs, catalog


def corpus_topic_aggregates(
    corpus: Corpus, tpvs: dict[str, np.ndarray], cache: scores.ScoreCache, K: int, warn: Warn,
) -> dict[int, topics.TopicAggregate]:
    """Per-topic tweet counts and median toxicity over the corpus's own
    tweets; vectors of tweets outside the corpus are left out."""
    known_ids = {t.tweet_id for t in corpus.all_tweets()}
    orphans = sum(1 for tid in tpvs if tid not in known_ids)
    if orphans:
        warn(f"{orphans} topic vectors reference unknown tweets")
    if not any(tid in tpvs for tid in known_ids):
        warn("no tweet in the corpus has a topic vector")
    assignments = topics.assign_dominant_topics({k: v for k, v in tpvs.items() if k in known_ids})
    return topics.topic_aggregates(assignments, cache, K)


def group_profiles(
    corpus: Corpus, catalog: topics.TopicCatalog, tpvs: dict[str, np.ndarray], warn: Warn,
) -> tuple[dict, list[tuple[str, float]]]:
    """Entropy groups: the groups.json payload (partition, and entropy and
    category vector per profile) and the sorted (group, H) CDF rows."""
    assignments = topics.assign_dominant_topics(tpvs)
    profiles: dict[str, diversity.DiversityProfile] = {}
    uncovered = 0
    for profile_id in sorted(corpus.profiles):
        try:
            profiles[profile_id] = diversity.diversity_profile(
                corpus.profiles[profile_id], catalog, assignments
            )
        except diversity.DiversityError:
            uncovered += 1
    if uncovered:
        warn(f"{uncovered} profiles have no TPV-covered tweets and were left ungrouped")
    partition, cdf_rows = diversity.group_partition(profiles)
    groups = {
        "groups": partition,
        "entropy": {p: profiles[p].entropy_H for p in sorted(profiles)},
        "cpv": {p: list(profiles[p].cpv.cp) for p in sorted(profiles)},
    }
    return groups, cdf_rows


def metric_rows(corpus: Corpus, cache: scores.ScoreCache, warn: Warn) -> list[dict]:
    """One metrics.bundle_to_dict row per profile, in profile-id order."""
    rows = [
        metrics.bundle_to_dict(metrics.compute_metric_bundle(corpus.profiles[p], cache))
        for p in sorted(corpus.profiles)
    ]
    n_no_tox = sum(1 for r in rows if r["toxicity_median"] is None)
    if n_no_tox:
        warn(f"{n_no_tox} profiles have no scored tweets; toxicity metrics are null")
    return rows


def designate(
    corpus: Corpus,
    tpvs: dict[str, np.ndarray],
    catalog: topics.TopicCatalog,
    aggs: dict[int, topics.TopicAggregate],
    partition: dict[str, list[str]],
    group: str,
    min_cluster: int,
    tox_gate: tuple[str, float],
    warn: Warn,
) -> dict:
    """On-mission designations and topic clusters within one entropy
    group: the designations.json payload."""
    members = partition.get(group, [])
    payload: dict = {"group": group, "designations": [], "clusters": []}
    if not members:
        warn(f"entropy group {group} is empty; nothing to designate")
        return payload
    global_avg = detector.global_topic_average(tpvs.values(), len(corpus.profiles))
    ntpvs = {}
    for profile_id in members:
        vectors = [tpvs[t.tweet_id] for t in corpus.profiles[profile_id].tweets if t.tweet_id in tpvs]
        ntpvs[profile_id] = detector.ntpv(vectors, global_avg, profile_id)
    labels = detector.assign_topic_labels(ntpvs, catalog, aggs)
    clusters, designations = detector.detect_clusters(
        members, labels, aggs,
        min_cluster=min_cluster,
        tox_gate=tox_gate,
        metadata={p: corpus.profiles[p].metadata for p in members},
        ntpvs=ntpvs,
    )
    payload["designations"] = [
        {
            "profile_id": d.profile_id,
            "label": d.label,
            "cluster_id": d.cluster_id,
            "evidence": d.evidence,
            "topic_label": labels[d.profile_id].topic_label,
            "topic_category": labels[d.profile_id].label_category,
        }
        for d in (designations[p] for p in sorted(designations))
    ]
    payload["clusters"] = [
        {
            "cluster_id": c.cluster_id,
            "topic_label": c.topic_label,
            "size": len(c.members),
            "pct_of_group": 100.0 * len(c.members) / len(members),
            "topic_median_toxicity": c.topic_median_toxicity,
            "category": catalog.category(c.topic_label),
            "on_mission": c.on_mission,
            "friend_overlap": c.overlap.friend_overlap if c.overlap else None,
            "shared_retweet_ratio": c.overlap.shared_retweet_ratio if c.overlap else None,
        }
        for c in clusters
    ]
    return payload


def feature_vectors(
    corpus: Corpus, catalog: topics.TopicCatalog, tpvs: dict[str, np.ndarray], rows: list[dict],
) -> list[features.FeatureVector]:
    """Classifier features per profile, from its metrics row and the
    category counts of its topic-covered tweets."""
    assignments = topics.assign_dominant_topics(tpvs)
    row_of = {row["profile_id"]: row for row in rows}
    vectors = []
    for profile_id in sorted(corpus.profiles):
        timeline = corpus.profiles[profile_id]
        counts = diversity.category_counts(timeline, catalog, assignments)
        vectors.append(features.extract_features(profile_id, row_of[profile_id], counts, timeline.metadata))
    return vectors


def group_matrices(
    ids: list[str], X: np.ndarray, partition: dict[str, list[str]], names: list[str],
) -> dict[str, tuple[list[str], np.ndarray]]:
    """For each entropy group in names, its profiles that have a feature
    row (ids[i] is row i of X) and those rows, to flag with a model."""
    index_of = {pid: i for i, pid in enumerate(ids)}
    matrices = {}
    for group, members in partition.items():
        if group in names:
            rows = [index_of[p] for p in members if p in index_of]
            matrices[group] = ([ids[i] for i in rows], X[rows])
    return matrices


# -- writers -------------------------------------------------------------------------
# Without a config hash they write the same files minus the hash key or line.


def with_config_hash(config_hash: str | None, payload: dict) -> dict:
    return payload if config_hash is None else {"config_hash": config_hash, **payload}


def _write_csv(path: Path, config_hash: str | None, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_groups(groups: dict, cdf_rows, groups_path, cdf_path, config_hash: str | None = None) -> None:
    """groups.json and, when cdf_path is given, entropy_cdf.csv."""
    write_json(groups_path, with_config_hash(config_hash, groups))
    if cdf_path is not None:
        _write_csv(cdf_path, config_hash, ["group", "H"], [(g, repr(h)) for g, h in cdf_rows])


def write_metrics(rows: list[dict], path, config_hash: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if config_hash is not None:
            fh.write(canonical_dumps({"config_hash": config_hash}) + "\n")
        for row in rows:
            fh.write(canonical_dumps(row) + "\n")


class Artifact:
    """A stage's output file and its in-memory value: the value the stage
    computed, or, after a cache hit, the file read by `load` on first use."""

    def __init__(self, path: Path, value=None, load: Callable[[Path], object] | None = None):
        self.path = path
        self._value = value
        self._load = load

    def get(self):
        if self._load is not None:
            self._value = self._load(self.path)
            self._load = None
        return self._value


Inputs = dict[str, Artifact]
Outputs = dict[str, Path]


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: the earlier artifacts it reads and the
    config files it hashes (a falsy path is left out), both by manifest key;
    every file it may write, by artifact name, with the loader(path, cfg)
    that reads it back after a cache hit (None when nothing reads it); and
    compute, which writes this run's outputs and returns the values later
    stages take in memory. `extra(values)` adds keys to the manifest."""

    inputs: tuple[str, ...]
    outputs: dict[str, tuple[str, Callable | None]]
    compute: Callable[["Pipeline", Inputs, Outputs, Warn], dict]
    files: Callable[[RunConfig], dict] = lambda cfg: {}
    extra: Callable[[dict], dict] | None = None


class Pipeline:
    def __init__(self, config: RunConfig, out_dir: str | Path):
        config.validate()
        self.config = config
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = config.config_hash()
        self.warnings: list[str] = []
        self._digests: dict[str, str] = {}  # real path -> sha256, for one run
        self._artifacts: dict[str, Artifact] = {}  # by name, as the stages of this run left them

    # -- stage cache plumbing ------------------------------------------------

    def _cached(self, stage: str, inputs: dict[str, str]) -> bool:
        path = self.out / stage / "manifest.json"
        if not path.exists():
            return False
        manifest = read_json(path)
        if manifest.get("config_hash") != self.hash:
            raise StaleCacheError(
                stage,
                "out dir holds artifacts from a different config; use a fresh out dir",
            )
        if manifest.get("inputs") != inputs:
            return False
        # a manifest without output digests (older runs wrote none) is a miss
        digests = manifest.get("output_hashes") or {}
        d = path.parent
        hit = all(
            name in digests and (d / name).is_file() and self._digest(d / name) == digests[name]
            for name in manifest.get("outputs", [])
        )
        if hit:  # the report lists a cached stage's warnings as if it had run
            self.warnings.extend(manifest.get("warnings", []))
        return hit

    def _write_manifest(self, stage: str, inputs: dict[str, str], outputs: list[str], extra: dict | None) -> None:
        d = self.out / stage
        payload = {
            "stage": stage,
            "config_hash": self.hash,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "output_hashes": {name: self._digest(d / name) for name in sorted(outputs)},
        }
        if extra:
            payload.update(extra)
        warned = [w for w in self.warnings if w.startswith(f"{stage}: ")]
        if warned:
            payload["warnings"] = warned
        write_json(d / "manifest.json", payload)

    def _digest(self, path: str | Path) -> str:
        """sha256 of a file, read from disk the first time this run asks."""
        key = os.path.realpath(path)
        if key not in self._digests:
            self._digests[key] = sha256_file(key)
        return self._digests[key]

    def _forget(self, paths) -> None:
        """Drop the memoised digests of files this run rewrote or deleted."""
        for path in paths:
            self._digests.pop(os.path.realpath(path), None)

    def _input_hashes(self, paths: dict[str, str | Path]) -> dict[str, str]:
        return {name: self._digest(p) for name, p in sorted(paths.items())}

    def _warn(self, stage: str, message: str) -> None:
        self.warnings.append(f"{stage}: {message}")
        warnings.warn(f"{stage}: {message}", stacklevel=3)

    # -- stages ----------------------------------------------------------------

    def run(self) -> dict:
        """Execute all stages; returns the report payload."""
        lock = self.out / ".lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise PipelineError("lock", f"another run holds {lock} (remove if stale)")
        self._digests = {}  # every run reads every file's bytes again
        self._artifacts = {}
        self.warnings = []
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            for name in STAGES:  # through self, so a wrapped stage_<name> is the one run
                getattr(self, f"stage_{name}")()
            return self._artifacts["report"].get()
        finally:
            lock.unlink(missing_ok=True)

    def _run_stage(self, stage: str) -> None:
        """Reuse the stage's cached outputs, or compute them and write its
        manifest; either way, hand its outputs on to later stages by name."""
        spec = STAGE_TABLE[stage]
        inputs = {key: self._artifacts[key] for key in spec.inputs if key in self._artifacts}
        paths = {key: artifact.path for key, artifact in inputs.items()}
        paths.update((key, path) for key, path in spec.files(self.config).items() if path)
        hashes = self._input_hashes(paths)
        out = {name: self.out / stage / file for name, (file, _) in spec.outputs.items()}
        values = {}
        if not self._cached(stage, hashes):
            for path in out.values():
                path.unlink(missing_ok=True)  # a declared output this run does not write is stale
                path.parent.mkdir(parents=True, exist_ok=True)
            values = spec.compute(self, inputs, out, partial(self._warn, stage))
            self._forget(out.values())
            written = [spec.outputs[name][0] for name, path in out.items() if path.exists()]
            self._write_manifest(stage, hashes, written, spec.extra and spec.extra(values))
        for name, (_, load) in spec.outputs.items():
            if name in values:
                self._artifacts[name] = Artifact(out[name], values[name])
            elif out[name].exists():  # read on first use
                self._artifacts[name] = Artifact(out[name], load=load and partial(load, cfg=self.config))


# -- the stages ----------------------------------------------------------------------
# Each compute function reads its inputs (Artifact.get loads a cached one on
# first use), writes the outputs it produces and returns the values later
# stages take in memory, by artifact name.


def _ingest(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    try:
        corpus = load_timelines(cfg.tweets, cfg.profiles, strict=cfg.strict)
    except Exception as exc:
        raise PipelineError("ingest", str(exc)) from exc
    if not corpus.profiles:
        warn("corpus is empty after filtering")
    save_corpus(corpus, out["corpus"])
    return {"corpus": corpus}


def _score(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    corpus = a["corpus"].get()
    cache = scores.ScoreCache()
    try:
        if cfg.toxicity_backend == "file":
            cache = scores.load_score_source(cfg.toxicity_path)
        if cfg.toxicity_backend == "mock":
            scores.score_toxicity(
                corpus, scores.MockToxicityClient(cfg.mock_toxicity_value), cache=cache, backoff_base=0.0,
            )
        elif cfg.toxicity_backend == "http":
            scores.score_toxicity(corpus, scores.HTTPToxicityClient(), cache=cache)
    except scores.BackendUnavailable as exc:
        cache.save(out["toxicity"])  # keep the partial cache for resumption
        raise PipelineError("score", f"backend unavailable: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise PipelineError("score", str(exc)) from exc
    unscored = sum(1 for t in corpus.all_tweets() if t.tweet_id not in cache.toxicity)
    if unscored:
        warn(f"{unscored} tweets have no toxicity score")
    cache.save(out["toxicity"])
    if cfg.bot_backend == "none":
        return {"toxicity": cache}
    bot_cache = scores.ScoreCache()
    if cfg.bot_backend == "file" and cfg.bot_path:
        bot_cache = scores.load_score_source(cfg.bot_path)
    elif cfg.bot_backend == "mock":
        scores.score_bots(corpus, scores.MockBotClient(), cache=bot_cache)
    bot_cache.save(out["bots"])
    return {"toxicity": cache, "bots": bot_cache}


def _topics(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    corpus = a["corpus"].get()
    try:
        tpvs, catalog = topic_vectors(
            cfg.K, cfg.seed, None if cfg.use_baseline_topics else cfg.tpvs, cfg.catalog, corpus
        )
    except (topics.TPVError, topics.CatalogError, OSError) as exc:
        raise PipelineError("topics", str(exc)) from exc
    aggs = corpus_topic_aggregates(corpus, tpvs, a["toxicity"].get(), cfg.K, warn)
    topics.save_tpvs(tpvs, out["tpvs"])
    catalog.save(out["catalog"])
    write_json(out["aggregates"], {
        "config_hash": pipe.hash,
        "aggregates": [
            {"topic": g.topic, "tweet_count": g.tweet_count, "median_toxicity": g.median_toxicity}
            for g in aggs.values()
        ],
    })
    # later stages see the vectors as a cached run reads them from tpvs.jsonl
    return {"tpvs": topics.as_saved(tpvs), "catalog": catalog, "aggregates": aggs}


def _group(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    groups, cdf_rows = group_profiles(a["corpus"].get(), a["catalog"].get(), a["tpvs"].get(), warn)
    write_groups(groups, cdf_rows, out["groups"], out["entropy_cdf"], pipe.hash)
    return {"groups": groups}


def _metrics(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    rows = metric_rows(a["corpus"].get(), a["toxicity"].get(), warn)
    write_metrics(rows, out["metrics"], pipe.hash)
    return {"metrics": rows}


def _detect(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    values = [a[key].get() for key in ("corpus", "tpvs", "catalog", "aggregates")]
    partition = a["groups"].get()["groups"]
    try:
        payload = designate(*values, partition, cfg.detect_group, cfg.min_cluster, parse_tox_gate(cfg.tox_gate), warn)
    except (ValueError, KeyError) as exc:
        raise PipelineError("detect", str(exc)) from exc
    payload = with_config_hash(pipe.hash, payload)
    write_json(out["detect"], payload)
    return {"detect": payload}


def _features(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    vectors = feature_vectors(a["corpus"].get(), a["catalog"].get(), a["tpvs"].get(), a["metrics"].get())
    features.save_features(vectors, out["features"])
    return {"features": vectors}


def _classify(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    ids, X, _mask = features.feature_matrix(a["features"].get())
    index_of = {pid: i for i, pid in enumerate(ids)}
    labels = load_labels_csv(cfg.labels) if cfg.labels else _labels_from_designations(a["detect"].get())
    labeled = [(pid, y) for pid, y in sorted(labels.items()) if pid in index_of]
    skip_reason = None
    if len(labeled) < 5:
        skip_reason = f"only {len(labeled)} labeled profiles"
    elif len({y for _, y in labeled}) < 2:
        skip_reason = "labels contain a single class"
    if skip_reason:  # no models: the runner deletes an earlier run's
        warn(f"classifier skipped: {skip_reason}")
        skipped = {"config_hash": pipe.hash, "skipped": skip_reason}
        payloads = dict.fromkeys(("classify_eval", "classify_ablation", "classify_wild"), skipped)
    else:
        X_lab = X[[index_of[pid] for pid, _ in labeled]]
        y_lab = np.asarray([y for _, y in labeled], dtype=int)
        seed = derive_seed(cfg.seed, "classify")
        try:
            train_idx, test_idx = classifier.split_80_20(y_lab, seed)
            evals = {}
            for kind in classifier.MODEL_KINDS:
                model = classifier.train(kind, X_lab[train_idx], y_lab[train_idx], seed)
                evals[kind] = classifier.evaluate(model.predict(X_lab[test_idx]), y_lab[test_idx]).as_dict()
                model.save(out[f"classify_model_{kind.split('_')[-1]}"], extra={"config_hash": pipe.hash})
            ablation_table = classifier.ablation(X_lab, y_lab, seed, all_row=evals)
        except ValueError as exc:
            raise PipelineError("classify", str(exc)) from exc
        # flag the remaining entropy groups with the all-features linear SVM
        # as saved, so `flag` on model_linear_svm.json gives the same table
        svm_model = classifier.TrainedModel.load(out["classify_model_svm"])
        partition = a["groups"].get()["groups"]
        wild_groups = group_matrices(ids, X, partition, [g for g in partition if g != cfg.detect_group])
        wild = classifier.flag_in_wild(svm_model, wild_groups, cfg.sample_n, derive_seed(cfg.seed, "wild"))
        payloads = {
            "classify_eval": {
                "config_hash": pipe.hash, "models": evals, "n_train": len(train_idx), "n_test": len(test_idx),
            },
            "classify_ablation": {"config_hash": pipe.hash, "table": ablation_table},
            "classify_wild": {**wild, "config_hash": pipe.hash},
        }
    for name, payload in payloads.items():
        write_json(out[name], payload)
    return payloads


def _report(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    corpus = a["corpus"].get()
    group_data, metric_rows, detect_data = (a[key].get() for key in ("groups", "metrics", "detect"))
    partition: dict[str, list[str]] = group_data["groups"]
    report = {
        "config_hash": pipe.hash,
        "config": pipe.config.as_dict(),
        "ingest_stats": corpus.ingest_stats.as_dict(),
        "group_sizes": {g: len(members) for g, members in partition.items()},
        "lexical_table": _lexical_table(partition, metric_rows),
        "profile_table": _profile_table(partition, corpus),
        "cluster_table": detect_data.get("clusters", []),
        "designation_counts": _designation_counts(detect_data),
        "eval": a["classify_eval"].get().get("models", {}),
        "ablation_table": a["classify_ablation"].get().get("table", {}),
        "wild_table": a["classify_wild"].get().get("table", []),
        "warnings": pipe.warnings,
    }
    if "bots" in a:
        report["botometer_table"] = _botometer_table(partition, a["bots"].get())
    write_json(out["report"], report)
    for name, (header, rows) in _plot_tables(partition, group_data, metric_rows, detect_data).items():
        _write_csv(out[f"plots/{name}"], pipe.hash, header, rows)
    write_json(out["run_config"], {"config_hash": pipe.hash, "config": pipe.config.as_dict()})
    return {"report": report}


# -- helpers -------------------------------------------------------------------


_BOX_PLOTS = {"fig_toxicity_median_box.csv": "toxicity_median", "fig_toxicity_gini_box.csv": "toxicity_gini"}
_CDF_PLOTS = {
    "fig_tweets_cdf.csv": "n_tweets",
    "fig_unique_tweets_cdf.csv": "n_unique",
    "fig_hashtags_total_cdf.csv": "total_hashtags",
    "fig_hashtags_unique_cdf.csv": "unique_hashtags",
    "fig_hashtags_ratio_cdf.csv": "hashtags_per_tweet",
    "fig_burstiness_cdf.csv": "burstiness",
}
PLOTS = (
    "fig_entropy_cdf.csv", *_BOX_PLOTS, *_CDF_PLOTS,
    "fig_time_delta_hist.csv", "fig_top3_gaps_cdf.csv", "fig_profile_age_bars.csv",
)


def _plot_tables(partition, group_data, metric_rows, detect_data) -> dict[str, tuple[list[str], list]]:
    """The header and rows of each figure's CSV, by file name: sorted
    values for CDFs, five-number summaries for boxplots, binned counts for
    histograms."""
    by_id = {row["profile_id"]: row for row in metric_rows}
    entropy = group_data["entropy"]
    members = {group: partition.get(group, []) for group in diversity.GROUP_NAMES}

    cdf_rows = []
    for group in diversity.GROUP_NAMES:
        cdf_rows.extend((group, repr(v)) for v in sorted(entropy[p] for p in members[group]))
    tables = {"fig_entropy_cdf.csv": (["group", "H"], cdf_rows)}

    for name, key in _BOX_PLOTS.items():
        rows = []
        for group in diversity.GROUP_NAMES:
            values = [by_id[p][key] for p in members[group] if by_id[p][key] is not None]
            if values:
                rows.append((group, *[repr(float(q)) for q in _five_number(values)]))
        tables[name] = (["group", "min", "q1", "median", "q3", "max"], rows)

    for name, key in _CDF_PLOTS.items():
        rows = []
        for group in diversity.GROUP_NAMES:
            values = sorted(by_id[p][key] for p in members[group] if by_id[p][key] is not None)
            rows.extend((group, repr(float(v))) for v in values)
        tables[name] = (["group", "value"], rows)

    hist_rows = []
    for group in diversity.GROUP_NAMES:
        agg: dict[int, int] = {}
        for p in members[group]:
            for gap, count in by_id[p]["delta_days_hist"].items():
                agg[int(gap)] = agg.get(int(gap), 0) + count
        hist_rows.extend((group, gap, count) for gap, count in sorted(agg.items()))
    tables["fig_time_delta_hist.csv"] = (["group", "day_gap", "count"], hist_rows)

    gap_rows = []
    for des in detect_data.get("designations", []):
        gaps = des["evidence"].get("top3_gaps")
        if gaps:
            gap_rows.append((des["label"], repr(float(gaps[0])), repr(float(gaps[1]))))
    tables["fig_top3_gaps_cdf.csv"] = (["designation", "gap12", "gap23"], sorted(gap_rows))

    year_rows = []
    for group in diversity.GROUP_NAMES:
        years: dict[int, int] = {}
        for p in members[group]:
            year = by_id[p]["creation_year"]
            if year is not None:
                years[year] = years.get(year, 0) + 1
        year_rows.extend((group, year, count) for year, count in sorted(years.items()))
    tables["fig_profile_age_bars.csv"] = (["group", "year", "count"], year_rows)
    return tables


def _five_number(values) -> tuple[float, float, float, float, float]:
    arr = np.asarray(sorted(values), dtype=float)
    return (
        float(arr.min()),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 50)),
        float(np.percentile(arr, 75)),
        float(arr.max()),
    )


def _load_aggregates(path: Path) -> dict[int, topics.TopicAggregate]:
    payload = read_json(path)
    return {
        int(a["topic"]): topics.TopicAggregate(
            topic=int(a["topic"]),
            tweet_count=int(a["tweet_count"]),
            median_toxicity=a["median_toxicity"],
        )
        for a in payload["aggregates"]
    }


def load_labels_csv(path: str) -> dict[str, int]:
    """profile_id,label CSV; on_mission (or 1/true) is the positive class."""
    labels: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0] == "profile_id":
                continue
            value = row[1].strip().lower()
            labels[row[0]] = 1 if value in ("on_mission", "1", "true") else 0
    return labels


def _labels_from_designations(payload: dict) -> dict[str, int]:
    return {
        d["profile_id"]: 1 if d["label"] == detector.ON_MISSION else 0
        for d in payload.get("designations", [])
    }


def _load_metrics(path: Path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # header with config hash
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


_LEXICAL_KEYS = (
    "flesch_kincaid_grade", "flesch_ease", "linsear_write", "ari",
    "lexical_diversity_mtld", "chars_per_tweet", "words_per_tweet",
)


def _lexical_table(partition: dict[str, list[str]], metric_rows: list[dict]) -> dict:
    """Average lexical metrics per group, for groups II..VIII (group I is
    reported in sizes but excluded from comparative tables)."""
    by_id = {row["profile_id"]: row for row in metric_rows}
    table: dict[str, dict] = {}
    for group in diversity.GROUP_NAMES[1:]:
        members = partition.get(group, [])
        column = {}
        for key in _LEXICAL_KEYS:
            values = [by_id[p][key] for p in members if by_id[p][key] is not None]
            column[key] = sum(values) / len(values) if values else None
        column["n_profiles"] = len(members)
        table[group] = column
    return table


def _profile_table(partition: dict[str, list[str]], corpus: Corpus) -> dict:
    table: dict[str, dict] = {}
    for group in diversity.GROUP_NAMES[1:]:
        members = partition.get(group, [])
        metas = [corpus.profiles[p].metadata for p in members if corpus.profiles[p].metadata]
        if not metas:
            table[group] = {"n_profiles": len(members)}
            continue
        n = len(metas)
        followers = sum(m.followers for m in metas) / n
        following = sum(m.following for m in metas) / n
        table[group] = {
            "n_profiles": len(members),
            "followers": followers,
            "following": following,
            "followers_following_ratio": followers / following if following else None,
            "listed": sum(m.listed for m in metas) / n,
            "statuses": sum(m.statuses for m in metas) / n,
            "favourites": sum(m.favourites for m in metas) / n,
            "pct_protected": 100.0 * sum(m.protected for m in metas) / n,
            "pct_verified": 100.0 * sum(m.verified for m in metas) / n,
            "pct_has_location": 100.0 * sum(m.has_location for m in metas) / n,
        }
    return table


def _botometer_table(partition: dict[str, list[str]], cache: scores.ScoreCache) -> dict:
    table: dict[str, dict] = {}

    def clean(value: float) -> float | None:
        return None if math.isnan(value) else value

    for group in diversity.GROUP_NAMES[1:]:
        members = partition.get(group, [])
        if not members:
            continue
        summary = scores.bot_score_summary(members, cache)
        table[group] = {
            "overall_mean": clean(summary.overall_mean),
            "overall_std": clean(summary.overall_std),
            "spammer_mean": clean(summary.spammer_mean),
            "spammer_std": clean(summary.spammer_std),
            "n_scored": summary.n_scored,
            "n_missing": summary.n_missing,
        }
    return table


def _designation_counts(detect_data: dict) -> dict:
    counts = {detector.ON_MISSION: 0, detector.NOT_ON_MISSION: 0}
    for d in detect_data.get("designations", []):
        counts[d["label"]] += 1
    return counts


def run_pipeline(config: RunConfig, out_dir: str | Path) -> dict:
    return Pipeline(config, out_dir).run()


def _read_json(path: Path, cfg: RunConfig):
    return read_json(path)


_CLASSIFY_FILES = {
    "classify_eval": "eval.json",
    "classify_ablation": "ablation.json",
    "classify_wild": "wild.json",
    "classify_model_svm": "model_linear_svm.json",
    "classify_model_tree": "model_decision_tree.json",
    "classify_model_forest": "model_random_forest.json",
}

# The stages in run order. The loaders look their functions up when called,
# so a wrapped or patched loader is the one used.
STAGE_TABLE: dict[str, Stage] = {
    "ingest": Stage(
        (), {"corpus": ("corpus.bin", lambda path, cfg: load_corpus(path))}, _ingest,
        files=lambda cfg: {"tweets": cfg.tweets, "profiles": cfg.profiles},
        extra=lambda values: {"stats": values["corpus"].ingest_stats.as_dict()},
    ),
    "score": Stage(
        ("corpus",),
        {
            "toxicity": ("toxicity_cache.jsonl", lambda path, cfg: scores.ScoreCache.load(path)),
            "bots": ("bot_cache.jsonl", lambda path, cfg: scores.ScoreCache.load(path)),
        },
        _score,
        files=lambda cfg: {
            "toxicity_source": cfg.toxicity_backend == "file" and cfg.toxicity_path,
            "bot_source": cfg.bot_backend == "file" and cfg.bot_path,
        },
    ),
    "topics": Stage(
        ("corpus", "toxicity"),
        {
            "tpvs": ("tpvs.jsonl", lambda path, cfg: topics.load_tpvs(path, cfg.K)),
            "catalog": ("catalog.tsv", lambda path, cfg: topics.TopicCatalog.load(path)),
            "aggregates": ("aggregates.json", lambda path, cfg: _load_aggregates(path)),
        },
        _topics,
        files=lambda cfg: {"tpvs": cfg.tpvs, "catalog": cfg.catalog},
    ),
    "group": Stage(
        ("corpus", "tpvs", "catalog"),
        {"groups": ("groups.json", _read_json), "entropy_cdf": ("entropy_cdf.csv", None)},
        _group,
    ),
    "metrics": Stage(
        ("corpus", "toxicity"), {"metrics": ("metrics.jsonl", lambda path, cfg: _load_metrics(path))}, _metrics,
    ),
    "detect": Stage(
        ("corpus", "tpvs", "catalog", "aggregates", "groups"),
        {"detect": ("designations.json", _read_json)},
        _detect,
    ),
    # the metric rows carry toxicity; it stays in the key so manifests keep their bytes
    "features": Stage(
        ("corpus", "tpvs", "catalog", "toxicity", "metrics"),
        {"features": ("features.jsonl", lambda path, cfg: features.load_features(path))},
        _features,
    ),
    "classify": Stage(
        ("features", "detect", "groups"),
        {name: (file, _read_json) for name, file in _CLASSIFY_FILES.items()},
        _classify,
        files=lambda cfg: {"labels": cfg.labels},
    ),
    "report": Stage(
        ("corpus", "toxicity", "bots", "tpvs", "groups", "metrics", "detect", *_CLASSIFY_FILES),
        {
            "report": ("report.json", _read_json),
            "run_config": ("run_config.json", None),
            **{f"plots/{name}": (f"plots/{name}", None) for name in PLOTS},
        },
        _report,
    ),
}
STAGES = tuple(STAGE_TABLE)
for _stage in STAGES:  # Pipeline.stage_<name>: one stage through the runner
    setattr(Pipeline, f"stage_{_stage}", partialmethod(Pipeline._run_stage, _stage))

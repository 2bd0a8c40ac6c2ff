"""End-to-end pipeline: ingest -> score -> topics -> group -> metrics ->
detect -> features -> classify -> report.

Each stage's work is a module-level function over in-memory objects that
the matching CLI subcommand calls too; the score stage's lives with the
scoring backends in ``scores``. ``STAGE_TABLE`` lists the stages in run
order as data: the earlier artifacts and config files each reads, every
file it may write with a loader, and its compute function. One runner,
``Pipeline._run_stage``, does the rest for every stage.

Stages write under out_dir/<stage>/ with a manifest recording the config
hash and the sha256 of every input and of every file the stage wrote,
the report's plot CSVs included. A rerun reuses a stage only when its
inputs hash as recorded and every output still hashes to its recorded
digest; an out dir written by a different config aborts the run. A stage
that reruns first deletes every file it declares, so one it no longer
produces (a skipped classifier's models) is gone rather than stale.
Results pass to later stages in memory; a file is read back only when
its stage was a cache hit and a later stage misses; a user file parsed
unchanged (the corpus, topic vectors, score files) is not copied but
parsed again, and later manifests record its digest. A run hashes each
file at most once and reads each manifest once. Every manifest records
the config hash, and so do the JSON, CSV and metrics files from
aggregates.json on; the score caches, tpvs.jsonl, catalog.tsv and
features.jsonl hold data only. All randomness derives from the single
top-level seed.
"""
from __future__ import annotations

import csv
import io
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial, partialmethod
from pathlib import Path
from typing import Callable

import numpy as np

from . import classifier, detector, diversity, features, metrics, scores, topics
from .ingest import Corpus, load_timelines
from .readability import LEXICAL_KEYS
from .util import (
    canonical_dumps, derive_seed, loads_line, percentile, read_json, sha256_file, sha256_text, write_json, write_jsonl,
)

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

# the score stage's toxicity scores so far, kept when the backend stops
# answering and read back by the next run; removed once the stage completes
PARTIAL_SCORES = "toxicity_cache.partial.jsonl"


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
    """Parse 'pNN' (percentile, 0 <= NN <= 100) or 'abs:X' (absolute, X
    finite) gate syntax."""
    try:
        if gate.startswith("abs:"):
            value = float(gate[4:])
            if math.isfinite(value):
                return ("absolute", value)
        elif gate.startswith("p"):
            value = float(gate[1:])
            if 0.0 <= value <= 100.0:  # false for NaN too
                return ("percentile", value)
    except ValueError:
        pass
    raise PipelineError("config", f"bad tox gate {gate!r}; expected pNN with 0 <= NN <= 100, or abs:X with X finite")


# the JSON values each RunConfig field type takes; an int is a valid float
_JSON_TYPES = {"str": str, "str | None": (str, type(None)), "int": int, "float": (int, float), "bool": bool}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _JSON_TYPES[f.type]) or (isinstance(value, bool) and f.type != "bool"):
                raise PipelineError("config", f"{f.name} must be of type {f.type}, not {value!r}")
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
        if self.labels and not Path(self.labels).exists():
            raise PipelineError("config", f"labels file not found: {self.labels}")
        if self.toxicity_backend not in ("none", "mock", "file", "http"):
            raise PipelineError("config", f"unknown toxicity backend {self.toxicity_backend!r}")
        if self.toxicity_backend == "file" and not (self.toxicity_path and Path(self.toxicity_path).exists()):
            raise PipelineError(
                "config", f"toxicity_backend 'file' needs an existing toxicity_path, not {self.toxicity_path!r}")
        if self.bot_backend not in ("none", "mock", "file"):
            raise PipelineError("config", f"unknown bot backend {self.bot_backend!r}")
        if self.bot_backend == "file" and not (self.bot_path and Path(self.bot_path).exists()):
            raise PipelineError("config", f"bot_backend 'file' needs an existing bot_path, not {self.bot_path!r}")
        if self.detect_group not in diversity.GROUP_NAMES:
            raise PipelineError("config", f"unknown entropy group {self.detect_group!r}")
        if self.K < 1:
            raise PipelineError("config", f"K must be at least 1, not {self.K}")
        if self.min_cluster < 1:
            raise PipelineError("config", f"min_cluster must be at least 1, not {self.min_cluster}")
        if self.sample_n < 0:
            raise PipelineError("config", f"sample_n must not be negative, not {self.sample_n}")
        mock_value = self.mock_toxicity_value
        # for every backend: the config hash holds the value, and its JSON has no NaN or infinity;
        # compared, not converted, as an int too large for a float is finite
        if not -math.inf < mock_value < math.inf:
            raise PipelineError("config", f"mock_toxicity_value {mock_value!r} is not a finite number")
        if self.toxicity_backend == "mock" and not 0.0 <= mock_value <= 1.0:
            raise PipelineError("config", f"mock_toxicity_value {mock_value!r} is outside [0, 1]")
        parse_tox_gate(self.tox_gate)

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def config_hash(self) -> str:
        return sha256_text(canonical_dumps(self.as_dict()))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            return cls(**read_json(path))
        except (TypeError, ValueError) as exc:  # not a JSON object of the fields, or not JSON
            raise PipelineError("config", f"bad config file {path}: {exc}") from exc


Warn = Callable[[str], None]


# -- stage computations ------------------------------------------------------------
# Each takes and returns in-memory objects; Pipeline and the CLI subcommands
# both call them. `warn` receives the text of each warning.


def ingest_warnings(corpus: Corpus, warn: Warn) -> None:
    """Warn of an empty corpus and of skipped profile metadata lines."""
    if not corpus.profiles:
        warn("corpus is empty after filtering")
    if corpus.ingest_stats.malformed_profile_lines:
        warn(f"{corpus.ingest_stats.malformed_profile_lines} malformed profile metadata lines were skipped")


def topic_vectors(
    K: int, seed: int, tpvs_path: str | None, catalog_path: str | None, corpus: Corpus | None = None,
) -> tuple[tuple[list[str], np.ndarray], topics.TopicCatalog]:
    """Topic vectors as (ids, matrix), read from tpvs_path or made by the
    keyword-hash baseline over corpus when it is None, and the topic
    catalog (the demo one when catalog_path is None)."""
    if tpvs_path is None:
        tpvs = topics.baseline_topic_assigner(corpus, K, derive_seed(seed, "topics", "baseline"))
    else:
        tpvs = topics.load_tpvs(tpvs_path, K)
    catalog = topics.TopicCatalog.load(catalog_path) if catalog_path else topics.TopicCatalog.demo(K)
    if catalog.K != K:
        raise topics.CatalogError(f"catalog has K={catalog.K}, config has K={K}")
    return tpvs, catalog


def topic_rows(corpus: Corpus, ids: list[str]) -> dict[str, list[int]]:
    """Each profile's rows of the topic-vector matrix (ids[i] is row i), in
    profile-id order: those of its tweets that have a vector, in timeline
    order. The one join of the corpus to the topic vectors."""
    row_of = {tweet_id: i for i, tweet_id in enumerate(ids)}
    return {p: [row_of[t.tweet_id] for t in corpus.profiles[p].tweets if t.tweet_id in row_of]
            for p in sorted(corpus.profiles)}


def corpus_topic_aggregates(
    corpus: Corpus, tpvs: tuple[list[str], np.ndarray], cache: scores.ScoreCache, K: int, warn: Warn,
) -> dict[int, dict]:
    """The aggregates.json rows by topic: tweet counts and median toxicity
    over the corpus's own tweets; vectors of tweets outside the corpus are
    left out."""
    ids, matrix = tpvs
    own = sorted(set().union(*topic_rows(corpus, ids).values()))
    if len(own) < len(ids):
        warn(f"{len(ids) - len(own)} topic vectors reference unknown tweets")
    if not own:
        warn("no tweet in the corpus has a topic vector")
    topic = np.argmax(matrix, axis=1).tolist()
    return topics.topic_aggregates({ids[i]: topic[i] for i in own}, cache, K)


def group_profiles(
    corpus: Corpus, catalog: topics.TopicCatalog, tpvs: tuple[list[str], np.ndarray], warn: Warn,
) -> tuple[dict, list[tuple[str, float]]]:
    """Entropy groups: the groups.json payload (partition, and entropy and
    category vector per profile) and the sorted (group, H) CDF rows."""
    categories = diversity.row_categories(catalog, tpvs[1])
    cpv: dict[str, tuple[float, ...]] = {}
    entropy: dict[str, float] = {}
    for profile_id, rows in topic_rows(corpus, tpvs[0]).items():
        try:
            cpv[profile_id], entropy[profile_id] = diversity.diversity_profile(
                diversity.category_counts(rows, categories))
        except diversity.DiversityError:  # no TPV-covered tweet
            continue
    ungrouped = len(corpus.profiles) - len(cpv)
    if ungrouped:
        warn(f"{ungrouped} profiles have no TPV-covered tweets and were left ungrouped")
    partition, cdf_rows = diversity.group_partition(entropy)
    return {"groups": partition, "entropy": entropy, "cpv": cpv}, cdf_rows


def metric_rows(corpus: Corpus, cache: scores.ScoreCache, warn: Warn) -> list[dict]:
    """One metrics.compute_metric_bundle row per profile, in profile-id order."""
    rows = [metrics.compute_metric_bundle(corpus.profiles[p], cache) for p in sorted(corpus.profiles)]
    n_no_tox = sum(1 for r in rows if r["toxicity_median"] is None)
    if n_no_tox:
        warn(f"{n_no_tox} profiles have no scored tweets; toxicity metrics are null")
    return rows


def designate(
    corpus: Corpus,
    tpvs: tuple[list[str], np.ndarray],
    catalog: topics.TopicCatalog,
    aggs: dict[int, dict],
    partition: dict[str, list[str]],
    group: str,
    min_cluster: int,
    tox_gate: tuple[str, float],
    warn: Warn,
) -> dict:
    """On-mission designations and topic clusters within one entropy
    group: the designations.json payload. The global topic average sums
    the vectors of the corpus's own tweets; vectors of tweets outside the
    corpus are left out. A member that is listed twice, is not in the
    corpus or has no tweet with a topic vector raises ValueError naming
    it."""
    members = partition.get(group, [])
    payload: dict = {"group": group, "designations": [], "clusters": []}
    if not members:
        warn(f"entropy group {group} is empty; nothing to designate")
        return payload
    ids, matrix = tpvs
    rows = topic_rows(corpus, ids)
    seen: set[str] = set()
    for profile_id in members:
        if profile_id in seen:
            raise ValueError(f"group {group} member {profile_id} is listed twice")
        seen.add(profile_id)
        if not rows.get(profile_id):
            reason = "is not in the corpus" if profile_id not in rows else "has no tweet with a topic vector"
            raise ValueError(f"group {group} member {profile_id} {reason}")
    own = sorted(set().union(*rows.values()))
    own_matrix = matrix if len(own) == len(ids) else matrix[own]  # no copy when every row is the corpus's
    global_avg = detector.global_topic_average(own_matrix, len(corpus.profiles), warn=warn)
    ntpvs = {profile_id: detector.ntpv(matrix[rows[profile_id]], global_avg) for profile_id in members}
    labels = detector.assign_topic_labels(ntpvs)
    clusters, designations = detector.detect_clusters(
        members, labels, aggs,
        min_cluster=min_cluster,
        tox_gate=tox_gate,
        metadata={p: corpus.profiles[p].metadata for p in members},
        ntpvs=ntpvs,
    )
    payload["designations"] = [
        {**designations[p], "topic_category": catalog.category(labels[p])} for p in sorted(designations)
    ]
    payload["clusters"] = [
        {**c, "pct_of_group": 100.0 * c["size"] / len(members), "category": catalog.category(c["topic_label"])}
        for c in clusters
    ]
    return payload


def _first_five(ids: list[str]) -> str:
    return ", ".join(map(repr, ids[:5])) + (", ..." if len(ids) > 5 else "")


def group_matrices(
    ids: list[str], X: np.ndarray, partition: dict[str, list[str]], names: list[str], warn: Warn,
) -> dict[str, tuple[list[str], np.ndarray]]:
    """For each entropy group in names, its profiles that have a feature
    row (ids[i] is row i of X) and those rows, to flag with a model. A
    member without a row is dropped with a warning naming the first five."""
    index_of = {pid: i for i, pid in enumerate(ids)}
    matrices = {}
    for group, members in partition.items():
        if group in names:
            lost = sorted(p for p in members if p not in index_of)
            if lost:
                warn(f"group {group}: {len(lost)} members have no feature row and were dropped: {_first_five(lost)}")
            rows = [index_of[p] for p in members if p in index_of]
            matrices[group] = ([ids[i] for i in rows], X[rows])
    return matrices


def labeled_rows(ids: list[str], X: np.ndarray, labels: dict[str, int], warn: Warn) -> tuple[np.ndarray, np.ndarray]:
    """The rows of X (ids[i] is row i) whose profile has a label, in the
    order of ids, and their 0/1 labels: what the classifier trains on. A
    label that matches no row is dropped with a warning naming the first five."""
    keep = [i for i, pid in enumerate(ids) if pid in labels]
    if len(keep) < len(labels):
        lost = sorted(labels.keys() - set(ids))
        warn(f"{len(lost)} labels match no profile and were dropped: {_first_five(lost)}")
    return X[keep], np.asarray([labels[ids[i]] for i in keep], dtype=int)


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
    write_jsonl(path, rows if config_hash is None else [{"config_hash": config_hash}, *rows])


@dataclass(frozen=True)
class Artifact:
    """A stage's value and the files it comes from by manifest key (its own
    file or the user files it parses unchanged). get() returns the value the
    stage computed or, after a cache hit, reads it on first use."""

    paths: dict[str, str | Path]
    get: Callable[[], object]


Inputs = dict[str, Artifact]
Outputs = dict[str, Path]


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: the earlier artifacts it reads and the
    config files it hashes (a falsy path is left out), both by manifest key;
    every file it may write, by artifact name, with the loader(path, cfg)
    that reads it back after a cache hit (None when nothing reads it); and
    compute, which writes this run's outputs and returns the values later
    stages take in memory. `parses` gives artifacts that are config files
    parsed unchanged, by their keys, and the loader(cfg) that parses them;
    when those files are set, compute gets no path to write a copy to.
    `extra(values)` adds keys to the manifest."""

    inputs: tuple[str, ...]
    outputs: dict[str, tuple[str, Callable | None]]
    compute: Callable[["Pipeline", Inputs, Outputs, Warn], dict]
    files: Callable[[RunConfig], dict] = lambda cfg: {}
    extra: Callable[[dict], dict] | None = None
    parses: dict[str, tuple[tuple[str, ...], Callable]] = field(default_factory=dict)


class Pipeline:
    def __init__(self, config: RunConfig, out_dir: str | Path):
        config.validate()
        self.config = config
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = config.config_hash()
        self.warnings: list[str] = []
        self._digests: dict[str, str] = {}  # real path -> sha256, for one run
        self._reals: dict[str | Path, str] = {}  # path as given -> real path, for one run
        self._manifests: dict[str, dict | None] = {}  # by stage, as this run first read them
        self._artifacts: dict[str, Artifact] = {}  # by name, as the stages of this run left them
        self._declared: dict[str, dict[str, Path]] = {}  # each stage's declared files by name, built once
        for stage, spec in STAGE_TABLE.items():
            d = self.out / stage
            self._declared[stage] = {file: d / file for file, _ in spec.outputs.values()}

    # -- stage cache plumbing ------------------------------------------------

    def _manifest(self, stage: str) -> dict | None:
        """The stage's manifest as the last run left it, read once per run;
        None when there is none, when it is cut short or garbled as a killed
        write leaves it, or when a field the runner reads has the wrong type:
        `outputs` and `warnings` lists of strings, `output_hashes` an object
        of strings."""
        if stage not in self._manifests:
            try:
                manifest = read_json(self.out / stage / "manifest.json")
            except (OSError, ValueError):
                manifest = None
            self._manifests[stage] = manifest if _well_formed(manifest) else None
        return self._manifests[stage]

    def _cached(self, stage: str, inputs: dict[str, str]) -> bool:
        manifest = self._manifest(stage)
        if manifest is None:
            return False
        if manifest.get("config_hash") != self.hash:
            raise StaleCacheError(
                stage,
                "out dir holds artifacts from a different config; use a fresh out dir",
            )
        if manifest.get("inputs") != inputs:
            return False
        declared = self._declared[stage]
        listed = manifest.get("outputs", [])
        if any(name not in declared for name in listed):  # a file the stage no longer writes: the runner deletes it
            return False
        # a manifest without output digests (older runs wrote none) is a miss
        digests = manifest.get("output_hashes", {})
        try:
            hit = all(name in digests and self._digest(declared[name]) == digests[name] for name in listed)
        except OSError:  # a listed output that is gone or is no file
            return False
        if hit:  # the report lists a cached stage's warnings as if it had run
            self.warnings.extend(manifest.get("warnings", []))
        return hit

    def _write_manifest(self, stage: str, inputs: dict[str, str], outputs: list[str], extra: dict | None) -> None:
        declared = self._declared[stage]
        payload = {
            "stage": stage,
            "config_hash": self.hash,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "output_hashes": {name: self._digest(declared[name]) for name in sorted(outputs)},
        }
        if extra:
            payload.update(extra)
        warned = [w for w in self.warnings if w.startswith(f"{stage}: ")]
        if warned:
            payload["warnings"] = warned
        write_json(self.out / stage / "manifest.json", payload)

    def _digest(self, path: str | Path) -> str:
        """sha256 of a file, read from disk the first time this run asks."""
        key = self._real(path)
        if key not in self._digests:
            self._digests[key] = sha256_file(key)
        return self._digests[key]

    def _real(self, path: str | Path) -> str:
        """os.path.realpath(path), resolved the first time this run asks. A
        name that is no link lies in its directory's real path, so the files
        of one directory share one resolution of it."""
        real = self._reals.get(path)
        if real is None:
            head, tail = os.path.split(path)
            if tail in ("", ".", "..") or os.path.islink(path):
                real = os.path.realpath(path)
            else:
                real = os.path.join(self._real(head), tail)
            self._reals[path] = real
        return real

    def _forget(self, paths) -> None:
        """Drop the memoised digests of files this run rewrote or deleted;
        each is resolved again, as its new file may replace a link."""
        for path in paths:
            self._reals.pop(path, None)
            self._digests.pop(self._real(path), None)

    def _warn(self, stage: str, message: str) -> None:
        self.warnings.append(f"{stage}: {message}")
        warnings.warn(f"{stage}: {message}", stacklevel=3)

    # -- stages ----------------------------------------------------------------

    def run(self) -> dict:
        """Execute all stages; returns the report payload. Any failure of a
        stage raises PipelineError naming it, from the original exception."""
        lock = self.out / ".lock"
        fd = _take_lock(lock)
        # every run reads every file's bytes, resolves its paths and reads its manifests again
        self._digests = {}
        self._reals = {}
        self._manifests = {}
        self._artifacts = {}
        self.warnings = []
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            for name in STAGES:  # through self, so a wrapped stage_<name> is the one run
                try:
                    getattr(self, f"stage_{name}")()
                except PipelineError:
                    raise
                except Exception as exc:  # its compute, a read of an earlier artifact, a write or its manifest
                    raise PipelineError(name, str(exc)) from exc
            return self._artifacts["report"].get()
        finally:
            lock.unlink(missing_ok=True)

    def _run_stage(self, stage: str) -> None:
        """Reuse the stage's cached outputs, or compute them and write its
        manifest; either way, hand its outputs on to later stages by name."""
        spec, cfg = STAGE_TABLE[stage], self.config
        files = {key: path for key, path in spec.files(cfg).items() if path}
        inputs = {key: self._artifacts[key] for key in spec.inputs if key in self._artifacts}
        sources = {**{k: p for a in inputs.values() for k, p in a.paths.items()}, **files}
        hashes = {key: self._digest(path) for key, path in sorted(sources.items())}
        # each artifact handed on: its files by manifest key and its reader; first those parsed from user files
        found = {
            name: ({key: files[key] for key in keys if key in files}, partial(parse, cfg))
            for name, (keys, parse) in spec.parses.items() if any(key in files for key in keys)
        }
        declared = self._declared[stage]
        out = {name: declared[file] for name, (file, _) in spec.outputs.items()}
        values = {}
        if self._cached(stage, hashes):
            present = self._manifest(stage).get("outputs", [])  # each one just hashed as recorded
        else:
            d = self.out / stage
            d.mkdir(parents=True, exist_ok=True)
            # files an earlier run's code wrote and listed, deleted only inside the stage dir
            for name in (self._manifest(stage) or {}).get("outputs", []):
                stale = name not in declared and d / name
                if stale and stale.resolve().is_relative_to(d.resolve()) and stale.is_file():
                    stale.unlink()
            for path in out.values():
                path.unlink(missing_ok=True)  # a declared output this run does not write is stale
                path.parent.mkdir(parents=True, exist_ok=True)
            writes = {name: path for name, path in out.items() if name not in found}
            values = spec.compute(self, inputs, writes, partial(self._warn, stage))
            self._forget(out.values())
            present = [spec.outputs[name][0] for name, path in writes.items() if path.exists()]
            self._write_manifest(stage, hashes, present, spec.extra and spec.extra(values))
        for name, (file, load) in spec.outputs.items():  # then the stage's own files that a later stage reads
            if load and name not in found and (name in values or file in present):
                found[name] = ({name: out[name]}, partial(load, out[name], cfg))
        for name, (paths, load) in found.items():  # a value this run did not compute is read on first use
            self._artifacts[name] = Artifact(paths, (lambda v=values[name]: v) if name in values else lru_cache(load))


def _well_formed(manifest) -> bool:
    """True for a manifest object whose lists and digests the runner reads
    hold strings; absent fields are allowed, as in older manifests."""
    if not isinstance(manifest, dict):
        return False
    outputs = manifest.get("outputs", [])
    digests = manifest.get("output_hashes", {})
    warned = manifest.get("warnings", [])
    return (
        isinstance(outputs, list) and isinstance(digests, dict) and isinstance(warned, list)
        and all(isinstance(text, str) for text in (*outputs, *digests.values(), *warned))
    )


def _take_lock(lock: Path) -> int:
    """Create the lock file, reclaiming it once from a run whose pid no
    process has; a live or unreadable holder stops the run."""
    for attempt in (1, 2):
        try:
            return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if attempt == 2 or not _holder_is_gone(lock):
                raise PipelineError("lock", f"another run holds {lock} (remove if stale)") from None
        warnings.warn(f"removed the stale lock {lock} of a run that is gone")
        lock.unlink(missing_ok=True)


def _holder_is_gone(lock: Path) -> bool:
    """True when the lock names a pid that no process has."""
    try:
        os.kill(int(lock.read_text()), 0)  # signal 0 only checks that the pid exists
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):  # unreadable, not a pid, or alive under another user
        pass
    return False


# -- the stages ----------------------------------------------------------------------
# Each compute function reads its inputs (Artifact.get loads a cached one on
# first use), writes the outputs it produces and returns the values later
# stages take in memory, by artifact name.


def _ingest(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    corpus = load_timelines(cfg.tweets, cfg.profiles, strict=cfg.strict)
    ingest_warnings(corpus, warn)
    return {"corpus": corpus}


def _score(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    corpus = a["corpus"].get()
    resume = pipe.out / "score" / PARTIAL_SCORES  # undeclared: the runner leaves it in place
    try:  # the bot source first: a bad one fails before any toxicity request
        bot_cache = scores.bot_scores(corpus, cfg.bot_backend, cfg.bot_path)
        cache = scores.toxicity_scores(corpus, cfg.toxicity_backend, cfg.toxicity_path, cfg.mock_toxicity_value, resume)
    except scores.BackendUnavailable as exc:
        raise PipelineError("score", f"backend unavailable: {exc}") from exc
    unscored = sum(1 for t in corpus.all_tweets() if t.tweet_id not in cache.toxicity)
    if unscored:
        warn(f"{unscored} tweets have no toxicity score")
    values = {"toxicity": cache} if cfg.bot_backend == "none" else {"toxicity": cache, "bots": bot_cache}
    for name in values.keys() & out.keys():  # a backend's scores; a user's score file is not copied
        values[name].save(out[name])
    resume.unlink(missing_ok=True)
    return values


def _topics(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    corpus = a["corpus"].get()
    tpvs, catalog = topic_vectors(cfg.K, cfg.seed, None if cfg.use_baseline_topics else cfg.tpvs, cfg.catalog, corpus)
    if "tpvs" in out:  # baseline vectors: hand on what a cache hit reads back
        topics.save_tpvs(*tpvs, out["tpvs"])
        tpvs = topics.load_tpvs(out["tpvs"], cfg.K)
    aggs = corpus_topic_aggregates(corpus, tpvs, a["toxicity"].get(), cfg.K, warn)
    catalog.save(out["catalog"])
    write_json(out["aggregates"], {"config_hash": pipe.hash, "aggregates": list(aggs.values())})
    return {"tpvs": tpvs, "catalog": catalog, "aggregates": aggs}


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
    payload = designate(*values, partition, cfg.detect_group, cfg.min_cluster, parse_tox_gate(cfg.tox_gate), warn)
    payload = with_config_hash(pipe.hash, payload)
    write_json(out["detect"], payload)
    return {"detect": payload}


def _features(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    """Classifier features per profile, from its metrics row and the
    category counts of its topic-covered tweets: row i of the values X and
    of the imputation mask M is profile ids[i]'s."""
    corpus, (tpv_ids, matrix) = a["corpus"].get(), a["tpvs"].get()
    categories = diversity.row_categories(a["catalog"].get(), matrix)
    row_of = {row["profile_id"]: row for row in a["metrics"].get()}
    ids = sorted(corpus.profiles)
    X = np.zeros((len(ids), features.N_FEATURES))
    M = np.zeros((len(ids), features.N_FEATURES), dtype=bool)
    for i, (profile_id, covered) in enumerate(topic_rows(corpus, tpv_ids).items()):
        counts = dict(zip(topics.CATEGORIES, diversity.category_counts(covered, categories).tolist()))
        metadata = corpus.profiles[profile_id].metadata
        X[i], M[i] = features.extract_features(profile_id, row_of[profile_id], counts, metadata)
    features.save_features(ids, X, M, out["features"])
    return {"features": (ids, X, M)}


def _classify(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    cfg = pipe.config
    ids, X, _mask = a["features"].get()
    labels = load_labels_csv(cfg.labels) if cfg.labels else _labels_from_designations(a["detect"].get())
    X_lab, y_lab = labeled_rows(ids, X, labels, warn)
    skip_reason = None
    if len(y_lab) < 5:
        skip_reason = f"only {len(y_lab)} labeled profiles"
    elif len(set(y_lab.tolist())) < 2:
        skip_reason = "labels contain a single class"
    if skip_reason:  # no models: the runner deletes an earlier run's
        warn(f"classifier skipped: {skip_reason}")
        skipped = {"config_hash": pipe.hash, "skipped": skip_reason}
        payloads = dict.fromkeys(("classify_eval", "classify_ablation", "classify_wild"), skipped)
    else:
        table, models = classifier.ablation(X_lab, y_lab, derive_seed(cfg.seed, "classify"))
        # the all-features row is the stage's evaluation and its saved models
        for kind, model in models["all"].items():
            model.save(out[f"classify_model_{kind.split('_')[-1]}"], extra={"config_hash": pipe.hash})
        evals = table["all"]  # each held-out row falls in one confusion count
        n_test = sum(evals[classifier.KIND_SVM][count] for count in ("tp", "tn", "fp", "fn"))
        # flag the remaining entropy groups with the all-features linear SVM;
        # its saved file holds every float in repr, so `flag` on it gives the same table
        partition = a["groups"].get()["groups"]
        wild_groups = group_matrices(ids, X, partition, [g for g in partition if g != cfg.detect_group], warn)
        wild = classifier.flag_in_wild(
            models["all"][classifier.KIND_SVM], wild_groups, cfg.sample_n, derive_seed(cfg.seed, "wild"))
        payloads = {
            "classify_eval": {
                "config_hash": pipe.hash, "models": evals, "n_train": len(y_lab) - n_test, "n_test": n_test,
            },
            "classify_ablation": {"config_hash": pipe.hash, "table": table},
            "classify_wild": {**wild, "config_hash": pipe.hash},
        }
    for name, payload in payloads.items():
        write_json(out[name], payload)
    return payloads


def _report(pipe: Pipeline, a: Inputs, out: Outputs, warn: Warn) -> dict:
    corpus = a["corpus"].get()
    group_data, metric_rows, detect_data = (a[key].get() for key in ("groups", "metrics", "detect"))
    partition: dict[str, list[str]] = group_data["groups"]
    members = {group: partition.get(group, []) for group in diversity.GROUP_NAMES}
    by_id = {row["profile_id"]: row for row in metric_rows}
    designations = detect_data.get("designations", [])

    def values(group: str, key: str) -> list:
        """The non-null values of one metric key over a group's profiles."""
        return [by_id[p][key] for p in members[group] if by_id[p][key] is not None]

    def histogram(key: str, tally: Callable) -> list[tuple]:
        """(group, bin, count) rows, bins ascending within each group: each
        of the group's values adds tally(value) to its group's Counter."""
        rows = []
        for group in diversity.GROUP_NAMES:
            total: Counter = Counter()
            for value in values(group, key):
                total.update(tally(value))
            rows.extend((group, bin_, count) for bin_, count in sorted(total.items()))
        return rows

    def profile_row(group: str) -> dict:
        """Mean metadata counts and the percentage of profiles with each
        flag, over the group's profiles that have metadata."""
        metas = [corpus.profiles[p].metadata for p in members[group] if corpus.profiles[p].metadata]
        row = {"n_profiles": len(members[group])}
        if metas:
            for key in ("followers", "following", "listed", "statuses", "favourites"):
                row[key] = sum(getattr(m, key) for m in metas) / len(metas)
            for key in ("protected", "verified", "has_location"):
                row[f"pct_{key}"] = 100.0 * sum(getattr(m, key) for m in metas) / len(metas)
            row["followers_following_ratio"] = row["followers"] / row["following"] if row["following"] else None
        return row

    def mean(xs: list) -> float | None:
        return sum(xs) / len(xs) if xs else None

    compared = diversity.GROUP_NAMES[1:]  # group I is in the sizes only, not in the comparative tables
    labels = Counter(d["label"] for d in designations)
    report = {
        "config_hash": pipe.hash,
        "config": pipe.config.as_dict(),
        "ingest_stats": corpus.ingest_stats.as_dict(),
        "group_sizes": {g: len(ids) for g, ids in partition.items()},
        "lexical_table": {
            g: {**{key: mean(values(g, key)) for key in LEXICAL_KEYS}, "n_profiles": len(members[g])}
            for g in compared
        },
        "profile_table": {g: profile_row(g) for g in compared},
        "cluster_table": detect_data.get("clusters", []),
        "designation_counts": {label: labels[label] for label in (detector.ON_MISSION, detector.NOT_ON_MISSION)},
        "eval": a["classify_eval"].get().get("models", {}),
        "ablation_table": a["classify_ablation"].get().get("table", {}),
        "wild_table": a["classify_wild"].get().get("table", []),
        "warnings": pipe.warnings,
    }
    if "bots" in a:
        report["botometer_table"] = {
            group: scores.bot_score_summary(members[group], a["bots"].get())
            for group in compared if members[group]
        }
    write_json(out["report"], report)

    # each figure's CSV: sorted values for CDFs, five-number summaries
    # (linear-interpolation quartiles) for boxplots, binned counts for histograms
    _, entropy_rows = diversity.group_partition(group_data["entropy"])
    plots = {"fig_entropy_cdf.csv": (["group", "H"], [(g, repr(h)) for g, h in entropy_rows])}
    for name, key in _BOX_PLOTS.items():
        plots[name] = (["group", "min", "q1", "median", "q3", "max"], [
            (g, *(repr(percentile(xs, q)) for q in (0, 25, 50, 75, 100)))
            for g in diversity.GROUP_NAMES if (xs := values(g, key))
        ])
    for name, key in _CDF_PLOTS.items():
        plots[name] = (["group", "value"], [
            (g, repr(float(v))) for g in diversity.GROUP_NAMES for v in sorted(values(g, key))
        ])
    plots["fig_time_delta_hist.csv"] = (["group", "day_gap", "count"], histogram(
        "delta_days_hist", lambda hist: {int(gap): count for gap, count in hist.items()}))
    gaps = ((d["label"], d["evidence"].get("top3_gaps")) for d in designations)
    plots["fig_top3_gaps_cdf.csv"] = (["designation", "gap12", "gap23"], sorted(
        (label, repr(float(top3[0])), repr(float(top3[1]))) for label, top3 in gaps if top3))
    plots["fig_profile_age_bars.csv"] = (["group", "year", "count"], histogram("creation_year", lambda year: (year,)))
    for name, (header, rows) in plots.items():
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


_LABEL_CLASSES = {"on_mission": 1, "1": 1, "true": 1, "genuine": 0, "not_on_mission": 0, "0": 0, "false": 0}


def load_labels_csv(path: str) -> dict[str, int]:
    """profile_id,label CSV: on_mission, 1 or true is the positive class and
    genuine, not_on_mission, 0 or false the negative, in any case and with
    spaces around. A file that is not UTF-8, a row without a label column
    or with any other label, and a profile id listed twice raise ValueError
    naming the file and row."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: row {row}: not UTF-8 text") from None
    labels: dict[str, int] = {}
    reader = csv.reader(io.StringIO(text, newline=None))  # newlines as a text-mode file reads them
    for row in reader:
        if not row or row[0] == "profile_id":
            continue
        if len(row) < 2:
            raise ValueError(f"{path}: row {reader.line_num}: no label column")
        label = _LABEL_CLASSES.get(row[1].strip().lower())
        if label is None:
            raise ValueError(f"{path}: row {reader.line_num}: label {row[1]!r} is none of {', '.join(_LABEL_CLASSES)}")
        if row[0] in labels:
            raise ValueError(f"{path}: row {reader.line_num}: profile {row[0]} has an earlier row")
        labels[row[0]] = label
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
                rows.append(loads_line(line))
    return rows


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
        (), {}, _ingest,
        files=lambda cfg: {"tweets": cfg.tweets, "profiles": cfg.profiles},
        extra=lambda values: {"stats": values["corpus"].ingest_stats.as_dict()},
        parses={"corpus": (("tweets", "profiles"), lambda cfg: load_timelines(cfg.tweets, cfg.profiles, cfg.strict))},
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
        parses={
            "toxicity": (("toxicity_source",), lambda cfg: scores.load_score_source(cfg.toxicity_path)),
            "bots": (("bot_source",), lambda cfg: scores.load_score_source(cfg.bot_path)),
        },
    ),
    "topics": Stage(
        ("corpus", "toxicity"),
        {
            "tpvs": ("tpvs.jsonl", lambda path, cfg: topics.load_tpvs(path, cfg.K)),
            "catalog": ("catalog.tsv", lambda path, cfg: topics.TopicCatalog.load(path)),
            "aggregates": ("aggregates.json", lambda path, cfg: {a["topic"]: a for a in read_json(path)["aggregates"]}),
        },
        _topics,
        files=lambda cfg: {"tpvs": not cfg.use_baseline_topics and cfg.tpvs, "catalog": cfg.catalog},
        parses={"tpvs": (("tpvs",), lambda cfg: topics.load_tpvs(cfg.tpvs, cfg.K))},
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
    "features": Stage(
        ("corpus", "tpvs", "catalog", "metrics"),
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
        ("corpus", "bots", "groups", "metrics", "detect", *_CLASSIFY_FILES),
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

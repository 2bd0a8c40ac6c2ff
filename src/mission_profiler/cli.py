"""Command-line interface: one subcommand per pipeline stage plus `run`."""
from __future__ import annotations

import csv
import functools
import math
import sys
from pathlib import Path

import click

from . import classifier, detector, diversity, scores, synth, topics
from .features import FEATURE_GROUPS, load_features
from .ingest import load_corpus, load_timelines, save_corpus
from .pipeline import (
    PipelineError, RunConfig, corpus_topic_aggregates, designate, group_matrices, group_profiles, ingest_warnings,
    labeled_rows, load_labels_csv, metric_rows, parse_tox_gate, run_pipeline, topic_vectors, write_groups,
    write_metrics,
)
from .util import json_object, write_json


@click.group()
def main() -> None:
    """Batch profiling of social-media timelines for on-mission behavior."""


def _fails_as(stage: str):
    """Wrap a command so that its failure prints `error [<stage>]: …` and
    exits with the stage's code; a PipelineError names its own stage.
    click's own exceptions pass through, so a usage error exits 2."""
    def wrap(fn):
        @functools.wraps(fn)
        def command(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except click.ClickException:
                raise
            except Exception as exc:
                failed = exc if isinstance(exc, PipelineError) else PipelineError(stage, str(exc))
                click.echo(f"error [{failed.stage}]: {exc}", err=True)
                sys.exit(failed.exit_code)
        return command
    return wrap


def _warn(message: str) -> None:
    click.echo(f"warning: {message}", err=True)


def _read_groups(path: str) -> dict[str, list[str]]:
    """The partition in a groups file: an object whose `groups` maps each
    group name to a list of profile ids; anything else raises naming the file."""
    partition = json_object(Path(path).read_text(encoding="utf-8"), path).get("groups")
    if not isinstance(partition, dict) or not all(
        isinstance(ids, list) and all(isinstance(p, str) for p in ids) for ids in partition.values()
    ):
        raise ValueError(f"{path}: 'groups' is not an object mapping each group name to a list of profile ids")
    return partition


@main.command()
@_fails_as("ingest")
@click.option("--tweets", required=True, type=click.Path(exists=True))
@click.option("--profiles", type=click.Path(exists=True))
@click.option("--strict", is_flag=True, default=False)
@click.option("--out", required=True, type=click.Path())
def ingest(tweets: str, profiles: str | None, strict: bool, out: str) -> None:
    """Load tweet/profile JSONL into the versioned corpus cache."""
    corpus = load_timelines(tweets, profiles, strict=strict)
    save_corpus(corpus, out)
    ingest_warnings(corpus, _warn)
    stats = corpus.ingest_stats
    click.echo(
        f"kept {stats.kept_profiles} profiles / {stats.kept_tweets} tweets "
        f"(malformed {stats.malformed}, duplicates {stats.duplicates}, "
        f"dropped-short {stats.dropped_profiles} profiles)"
    )


def _finite(ctx, param, value: float | None) -> float | None:
    if value is not None and not math.isfinite(value):  # NaN passes FloatRange: it fails neither bound comparison
        raise click.BadParameter(f"{value!r} is not a finite number")
    return value


@main.command()
@_fails_as("score")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--backend", type=click.Choice(["mock", "file", "http"]), default="mock")
@click.option("--toxicity-file", type=click.Path(exists=True), help="precomputed scores for the file backend")
@click.option("--bot-file", type=click.Path(exists=True))
@click.option("--toxicity-cache", required=True, type=click.Path())
@click.option("--bot-cache", type=click.Path())
@click.option("--rps", type=click.FloatRange(0.0, min_open=True), default=None, callback=_finite,
              help="request rate limit per second (http backend)")
@click.option("--mock-value", type=click.FloatRange(0.0, 1.0), default=0.5, callback=_finite)
def score(corpus_path, backend, toxicity_file, bot_file, toxicity_cache, bot_cache, rps, mock_value) -> None:
    """Attach toxicity (and optionally bot) scores via the chosen backend.

    As in a run: the file backend takes the whole score table, and mock
    and http resume from --toxicity-cache for the corpus's tweets only."""
    if bot_file and not bot_cache:
        raise click.UsageError("--bot-file needs --bot-cache, the file its bot scores are saved to")
    if backend == "file" and not toxicity_file:
        raise click.UsageError("--toxicity-file is required for the file backend")
    corpus = load_corpus(corpus_path)
    bot = bot_cache and scores.bot_scores(corpus, "file" if bot_file else "mock", bot_file)
    cache = scores.toxicity_scores(corpus, backend, toxicity_file, mock_value, toxicity_cache, rate_limit=rps)
    cache.save(toxicity_cache)
    if bot_cache:
        bot.save(bot_cache)
    click.echo(f"toxicity: {len(cache.toxicity)} scored, {len(cache.missing)} missing")
    if bot_cache:
        click.echo(f"bots: {len(bot.bots)} profiles scored")


@main.command("topics")
@_fails_as("topics")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True))
@click.option("--tpv", "tpv_path", type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", type=click.Path(exists=True))
@click.option("--baseline", is_flag=True, default=False, help="use the keyword-hash demo assigner")
@click.option("--k", "k_topics", type=click.IntRange(min=1), default=topics.DEFAULT_K)
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def topics_cmd(corpus_path, tpv_path, catalog_path, baseline, k_topics, seed, out) -> None:
    """Check topic vectors and write the catalog; with --baseline, also
    write the baseline vectors. Give later commands the checked --tpv file
    itself."""
    out_dir = Path(out)
    if baseline and not corpus_path:
        raise click.UsageError("--corpus is required with --baseline")
    if not baseline and not tpv_path:
        raise click.UsageError("either --tpv or --baseline is required")
    corpus = load_corpus(corpus_path) if baseline else None
    tpvs, catalog = topic_vectors(k_topics, seed, None if baseline else tpv_path, catalog_path, corpus)
    out_dir.mkdir(parents=True, exist_ok=True)  # once the inputs are read: a failed command leaves none
    if baseline:
        topics.save_tpvs(*tpvs, out_dir / "tpvs.jsonl")
    catalog.save(out_dir / "catalog.tsv")
    click.echo(f"{len(tpvs[0])} topic vectors over K={k_topics}; catalog with {catalog.K} topics")


@main.command()
@_fails_as("group")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--tpv", "tpv_path", required=True, type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", type=click.Path(exists=True))
@click.option("--k", "k_topics", type=click.IntRange(min=1), default=topics.DEFAULT_K)
@click.option("--out", required=True, type=click.Path())
@click.option("--cdf-csv", type=click.Path())
def group(corpus_path, tpv_path, catalog_path, k_topics, out, cdf_csv) -> None:
    """Assign profiles to entropy groups and export the partition."""
    corpus = load_corpus(corpus_path)
    tpvs, catalog = topic_vectors(k_topics, 0, tpv_path, catalog_path)  # a seed only for the baseline
    groups, cdf_rows = group_profiles(corpus, catalog, tpvs, _warn)
    write_groups(groups, cdf_rows, out, cdf_csv)
    sizes = {g: len(v) for g, v in groups["groups"].items() if v}
    click.echo(f"group sizes: {sizes}")


@main.command("metrics")
@_fails_as("metrics")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--toxicity-cache", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def metrics_cmd(corpus_path, toxicity_cache, out) -> None:
    """Compute the per-profile metric battery into metrics.jsonl."""
    corpus = load_corpus(corpus_path)
    rows = metric_rows(corpus, scores.load_score_source(toxicity_cache), _warn)
    write_metrics(rows, out)
    click.echo(f"metrics for {len(corpus.profiles)} profiles -> {out}")


def _tox_gate(ctx: click.Context, param: click.Parameter, value: str) -> tuple[str, float]:
    # a bad gate is a usage error, exit 2, as it is a config error in a pipeline run
    try:
        return parse_tox_gate(value)
    except PipelineError as exc:
        raise click.BadParameter(str(exc)) from exc


@main.command()
@_fails_as("detect")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--tpv", "tpv_path", required=True, type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", type=click.Path(exists=True))
@click.option("--toxicity-cache", required=True, type=click.Path(exists=True))
@click.option("--groups", "groups_path", required=True, type=click.Path(exists=True))
@click.option("--group", "group_name", default="VIII", callback=lambda ctx, param, name: _entropy_group(name),
              help="entropy group to designate")
@click.option("--min-cluster", type=click.IntRange(min=1), default=detector.DEFAULT_MIN_CLUSTER)
@click.option("--tox-gate", default="p75", callback=_tox_gate, help="pNN percentile or abs:X absolute gate")
@click.option("--k", "k_topics", type=click.IntRange(min=1), default=topics.DEFAULT_K)
@click.option("--out", required=True, type=click.Path())
def detect(corpus_path, tpv_path, catalog_path, toxicity_cache, groups_path,
           group_name, min_cluster, tox_gate, k_topics, out) -> None:
    """Designate on-mission profiles within one entropy group."""
    corpus = load_corpus(corpus_path)
    tpvs, catalog = topic_vectors(k_topics, 0, tpv_path, catalog_path)
    aggs = corpus_topic_aggregates(corpus, tpvs, scores.load_score_source(toxicity_cache), k_topics, _warn)
    partition = _read_groups(groups_path)
    payload = designate(
        corpus, tpvs, catalog, aggs, partition, group_name, min_cluster, tox_gate, _warn
    )
    write_json(out, payload)
    on = sum(1 for d in payload["designations"] if d["label"] == detector.ON_MISSION)
    click.echo(f"{on} on-mission / {len(payload['designations']) - on} not-on-mission in group {group_name}")


@main.command()
@_fails_as("detect")
@click.option("--ratings", required=True, type=click.Path(exists=True),
              help="CSV, one row per item, one column per rater")
def kappa(ratings) -> None:
    """Inter-annotator agreement for a ratings matrix."""
    with open(ratings, "r", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    report = detector.fleiss_kappa(rows)
    click.echo(
        f"kappa={report['kappa']:.4f} over {report['n_items']} items, "
        f"{report['n_raters']} raters, {report['n_categories']} categories"
    )


@main.command("synth")
@_fails_as("config")
@click.option("--spec", "spec_path", type=click.Path(exists=True), help="JSON archetype spec")
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def synth_cmd(spec_path, seed, out) -> None:
    """Generate a seeded synthetic bundle with ground-truth labels."""
    if spec_path:
        specs, K = synth.load_specs(spec_path)
    else:
        specs, K = synth.default_specs(), 20
    bundle = synth.generate(specs, K, seed)
    paths = synth.write_bundle(bundle, out)
    n = sum(s.n_profiles for s in specs)
    click.echo(f"{n} profiles / {len(bundle.tweets)} tweets -> {paths['tweets'].parent}")


@main.command()
@_fails_as("classify")
@click.option("--labels", "labels_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--model", "kind", type=click.Choice(["svm", "tree", "forest"]), default="svm")
@click.option("--feature-group", type=click.Choice([*FEATURE_GROUPS, "all"]), default="all")
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def train(labels_path, features_path, kind, feature_group, seed, out) -> None:
    """Train one classifier on labeled feature vectors (80/20 split)."""
    kind_full = {"svm": classifier.KIND_SVM, "tree": classifier.KIND_TREE, "forest": classifier.KIND_FOREST}[kind]
    X, y = _labeled_matrix(features_path, labels_path)
    model, report = classifier.train_and_evaluate(X, y, seed, kind=kind_full, feature_group=feature_group)
    model.save(out)
    click.echo(f"{kind_full}: held-out f1={report['f1']:.4f} accuracy={report['accuracy']:.4f} -> {out}")


@main.command()
@_fails_as("classify")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_path", required=True, type=click.Path(exists=True))
def evaluate(model_path, features_path, labels_path) -> None:
    """Evaluate a saved model against labeled features."""
    X, y = _labeled_matrix(features_path, labels_path)
    model = classifier.TrainedModel.load(model_path)
    report = classifier.evaluate(model.predict(X), y)
    click.echo(
        f"tp={report['tp']} tn={report['tn']} fp={report['fp']} fn={report['fn']} "
        f"f1={report['f1']:.4f} accuracy={report['accuracy']:.4f}"
    )


@main.command()
@_fails_as("classify")
@click.option("--labels", "labels_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def ablate(labels_path, features_path, seed, out) -> None:
    """Feature-group x model-kind ablation on one shared split."""
    X, y = _labeled_matrix(features_path, labels_path)
    table, _ = classifier.ablation(X, y, seed)
    write_json(out, {"table": table})
    for group_name, cells in table.items():
        line = " ".join(
            f"{kind}: f1={cells[kind]['f1']:.3f}/acc={cells[kind]['accuracy']:.3f}"
            for kind in classifier.MODEL_KINDS
        )
        click.echo(f"{group_name:17s} {line}")


def _entropy_group(name: str) -> str:
    if name not in diversity.GROUP_NAMES:
        raise click.BadParameter(f"{name!r} is not an entropy group; the groups are I to VIII")
    return name


def _group_selection(ctx, param, selection: str | None) -> list[str] | None:
    """'II..VII' (an ascending range) or 'II,IV' as the groups it names;
    None when not given. Anything else is a usage error, exit 2."""
    if not selection:
        return None
    if ".." in selection:
        names = list(diversity.GROUP_NAMES)
        lo, _, hi = (part.strip() for part in selection.partition(".."))
        first, last = names.index(_entropy_group(lo)), names.index(_entropy_group(hi))
        if first > last:
            raise click.BadParameter(f"the range {selection!r} does not ascend")
        return names[first:last + 1]
    picked = [_entropy_group(g.strip()) for g in selection.split(",") if g.strip()]
    if not picked:
        raise click.BadParameter(f"{selection!r} names no entropy group")
    return picked


@main.command()
@_fails_as("classify")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--groups", "groups_path", required=True, type=click.Path(exists=True))
@click.option("--group-range", "group_range", default=None, callback=_group_selection,
              help="entropy groups to flag, e.g. II..VII or II,IV")
@click.option("--exclude-group", default="VIII", callback=lambda ctx, param, name: _entropy_group(name))
@click.option("--sample", "sample_n", type=click.IntRange(min=0), default=100)
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def flag(model_path, features_path, groups_path, group_range, exclude_group, sample_n, seed, out) -> None:
    """Apply a trained model to the remaining entropy groups."""
    ids, X, _ = load_features(features_path)
    model = classifier.TrainedModel.load(model_path)
    partition = _read_groups(groups_path)
    names = group_range or [g for g in diversity.GROUP_NAMES if g != exclude_group]
    wild_groups = group_matrices(ids, X, partition, names, _warn)
    result = classifier.flag_in_wild(model, wild_groups, sample_n, seed)
    write_json(out, result)
    for row in result["table"]:
        pct = f"{row['pct_flagged']:.1f}%" if row["pct_flagged"] is not None else "-"
        click.echo(f"group {row['group']:>6s}: {row['flagged']}/{row['total']} flagged ({pct})")


@main.command()
@_fails_as("config")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="override the config seed")
@click.option("--out", "out_dir", required=True, type=click.Path())
def run(config_path, seed, out_dir) -> None:
    """Run the full pipeline: ingest through report; cached stages are reused."""
    config = RunConfig.from_file(config_path)
    if seed is not None:
        config.seed = seed
    report_payload = run_pipeline(config, out_dir)
    click.echo(f"report: {Path(out_dir) / 'report' / 'report.json'}")
    counts = report_payload.get("designation_counts", {})
    click.echo(
        f"groups {report_payload['group_sizes']}; "
        f"designations {counts}; warnings {len(report_payload['warnings'])}"
    )


def _labeled_matrix(features_path: str, labels_path: str):
    ids, X, _ = load_features(features_path)
    X, y = labeled_rows(ids, X, load_labels_csv(labels_path), _warn)
    if len(ids) > len(y):
        click.echo(f"note: {len(ids) - len(y)} feature rows have no label and were dropped", err=True)
    return X, y


if __name__ == "__main__":
    main()

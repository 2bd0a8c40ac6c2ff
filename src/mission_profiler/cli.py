"""Command-line interface: one subcommand per pipeline stage plus `run`."""
from __future__ import annotations

import csv
import sys
from pathlib import Path

import click
import numpy as np

from . import classifier, detector, diversity, scores, synth, topics
from .features import feature_matrix, load_features
from .ingest import load_corpus, load_timelines, save_corpus
from .pipeline import (
    PipelineError, RunConfig, corpus_topic_aggregates, designate, group_matrices, group_profiles,
    load_labels_csv, metric_rows, parse_tox_gate, run_pipeline, topic_vectors, write_groups, write_metrics,
)
from .util import read_json, write_json


@click.group()
def main() -> None:
    """Batch profiling of social-media timelines for on-mission behavior."""


def _fail(stage: str, exc: Exception) -> None:
    click.echo(f"error [{stage}]: {exc}", err=True)
    sys.exit(PipelineError(stage, str(exc)).exit_code)


def _warn(message: str) -> None:
    click.echo(f"warning: {message}", err=True)


@main.command()
@click.option("--tweets", required=True, type=click.Path(exists=True))
@click.option("--profiles", type=click.Path(exists=True))
@click.option("--strict", is_flag=True, default=False)
@click.option("--out", required=True, type=click.Path())
def ingest(tweets: str, profiles: str | None, strict: bool, out: str) -> None:
    """Load tweet/profile JSONL into the versioned corpus cache."""
    try:
        corpus = load_timelines(tweets, profiles, strict=strict)
    except Exception as exc:
        _fail("ingest", exc)
    save_corpus(corpus, out)
    stats = corpus.ingest_stats
    click.echo(
        f"kept {stats.kept_profiles} profiles / {stats.kept_tweets} tweets "
        f"(malformed {stats.malformed}, duplicates {stats.duplicates}, "
        f"dropped-short {stats.dropped_profiles} profiles)"
    )


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--backend", type=click.Choice(["mock", "file", "http"]), default="mock")
@click.option("--toxicity-file", type=click.Path(exists=True), help="precomputed scores for the file backend")
@click.option("--bot-file", type=click.Path(exists=True))
@click.option("--toxicity-cache", required=True, type=click.Path())
@click.option("--bot-cache", type=click.Path())
@click.option("--rps", type=float, default=None, help="request rate limit per second")
@click.option("--mock-value", type=float, default=0.5)
def score(corpus_path, backend, toxicity_file, bot_file, toxicity_cache, bot_cache, rps, mock_value) -> None:
    """Attach toxicity (and optionally bot) scores via the chosen backend.

    The file backend stores the whole score table, as a pipeline run does."""
    corpus = load_corpus(corpus_path)
    cache = scores.ScoreCache()
    try:
        if backend == "file":
            if not toxicity_file:
                raise ValueError("--toxicity-file is required for the file backend")
            cache = scores.load_score_source(toxicity_file)
        else:
            if Path(toxicity_cache).exists():
                cache = scores.ScoreCache.load(toxicity_cache)
            client = scores.MockToxicityClient(mock_value) if backend == "mock" else scores.HTTPToxicityClient()
            scores.score_toxicity(corpus, client, rate_limit=rps, cache=cache, backoff_base=0.0)
    except scores.BackendUnavailable as exc:
        cache.save(toxicity_cache)
        _fail("score", exc)
    except Exception as exc:
        _fail("score", exc)
    cache.save(toxicity_cache)
    click.echo(f"toxicity: {len(cache.toxicity)} scored, {len(cache.missing)} missing")
    if bot_cache:
        bot = scores.ScoreCache()
        try:
            if bot_file:
                bot = scores.load_score_source(bot_file)
            else:
                scores.score_bots(corpus, scores.MockBotClient(), cache=bot)
        except Exception as exc:
            _fail("score", exc)
        bot.save(bot_cache)
        click.echo(f"bots: {len(bot.bots)} profiles scored")


@main.command("topics")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True))
@click.option("--tpv", "tpv_path", type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", type=click.Path(exists=True))
@click.option("--baseline", is_flag=True, default=False, help="use the keyword-hash demo assigner")
@click.option("--k", "k_topics", type=int, default=topics.DEFAULT_K)
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def topics_cmd(corpus_path, tpv_path, catalog_path, baseline, k_topics, seed, out) -> None:
    """Validate topic vectors (or generate baseline ones) and the catalog."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if baseline and not corpus_path:
            raise ValueError("--corpus is required with --baseline")
        if not baseline and not tpv_path:
            raise ValueError("either --tpv or --baseline is required")
        corpus = load_corpus(corpus_path) if baseline else None
        tpvs, catalog = topic_vectors(k_topics, seed, None if baseline else tpv_path, catalog_path, corpus)
    except Exception as exc:
        _fail("topics", exc)
    topics.save_tpvs(tpvs, out_dir / "tpvs.jsonl")
    catalog.save(out_dir / "catalog.tsv")
    click.echo(f"{len(tpvs)} topic vectors over K={k_topics}; catalog with {catalog.K} topics")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--tpv", "tpv_path", required=True, type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", type=click.Path(exists=True))
@click.option("--k", "k_topics", type=int, default=topics.DEFAULT_K)
@click.option("--out", required=True, type=click.Path())
@click.option("--cdf-csv", type=click.Path())
def group(corpus_path, tpv_path, catalog_path, k_topics, out, cdf_csv) -> None:
    """Assign profiles to entropy groups and export the partition."""
    try:
        corpus = load_corpus(corpus_path)
        catalog = topics.TopicCatalog.load(catalog_path) if catalog_path else topics.TopicCatalog.demo(k_topics)
        tpvs = topics.load_tpvs(tpv_path, catalog.K)
        groups, cdf_rows = group_profiles(corpus, catalog, tpvs, _warn)
    except Exception as exc:
        _fail("group", exc)
    write_groups(groups, cdf_rows, out, cdf_csv)
    sizes = {g: len(v) for g, v in groups["groups"].items() if v}
    click.echo(f"group sizes: {sizes}")


@main.command("metrics")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--toxicity-cache", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def metrics_cmd(corpus_path, toxicity_cache, out) -> None:
    """Compute the per-profile metric battery into metrics.jsonl."""
    try:
        corpus = load_corpus(corpus_path)
        rows = metric_rows(corpus, scores.ScoreCache.load(toxicity_cache), _warn)
    except Exception as exc:
        _fail("metrics", exc)
    write_metrics(rows, out)
    click.echo(f"metrics for {len(corpus.profiles)} profiles -> {out}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--tpv", "tpv_path", required=True, type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", type=click.Path(exists=True))
@click.option("--toxicity-cache", required=True, type=click.Path(exists=True))
@click.option("--groups", "groups_path", required=True, type=click.Path(exists=True))
@click.option("--group", "group_name", default="VIII", help="entropy group to designate")
@click.option("--min-cluster", type=int, default=detector.DEFAULT_MIN_CLUSTER)
@click.option("--tox-gate", default="p75", help="pNN percentile or abs:X absolute gate")
@click.option("--k", "k_topics", type=int, default=topics.DEFAULT_K)
@click.option("--out", required=True, type=click.Path())
def detect(corpus_path, tpv_path, catalog_path, toxicity_cache, groups_path,
           group_name, min_cluster, tox_gate, k_topics, out) -> None:
    """Designate on-mission profiles within one entropy group."""
    try:
        corpus = load_corpus(corpus_path)
        catalog = topics.TopicCatalog.load(catalog_path) if catalog_path else topics.TopicCatalog.demo(k_topics)
        tpvs = topics.load_tpvs(tpv_path, catalog.K)
        aggs = corpus_topic_aggregates(corpus, tpvs, scores.ScoreCache.load(toxicity_cache), catalog.K, _warn)
        partition = read_json(groups_path)["groups"]
        payload = designate(
            corpus, tpvs, catalog, aggs, partition, group_name, min_cluster, parse_tox_gate(tox_gate), _warn
        )
    except Exception as exc:
        _fail("detect", exc)
    write_json(out, payload)
    on = sum(1 for d in payload["designations"] if d["label"] == detector.ON_MISSION)
    click.echo(f"{on} on-mission / {len(payload['designations']) - on} not-on-mission in group {group_name}")


@main.command()
@click.option("--ratings", required=True, type=click.Path(exists=True),
              help="CSV, one row per item, one column per rater")
def kappa(ratings) -> None:
    """Inter-annotator agreement for a ratings matrix."""
    try:
        with open(ratings, "r", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
        report = detector.fleiss_kappa(rows)
    except Exception as exc:
        _fail("detect", exc)
    click.echo(
        f"kappa={report.kappa:.4f} over {report.n_items} items, "
        f"{report.n_raters} raters, {report.n_categories} categories"
    )


@main.command("synth")
@click.option("--spec", "spec_path", type=click.Path(exists=True), help="JSON archetype spec")
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def synth_cmd(spec_path, seed, out) -> None:
    """Generate a seeded synthetic bundle with ground-truth labels."""
    try:
        if spec_path:
            specs, K = synth.load_specs(spec_path)
        else:
            specs, K = synth.default_specs(), 20
        bundle = synth.generate(specs, K, seed)
        paths = synth.write_bundle(bundle, out)
    except Exception as exc:
        _fail("config", exc)
    n = sum(s.n_profiles for s in specs)
    click.echo(f"{n} profiles / {len(bundle.tweets)} tweets -> {paths['tweets'].parent}")


@main.command()
@click.option("--labels", "labels_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--model", "kind", type=click.Choice(["svm", "tree", "forest"]), default="svm")
@click.option("--feature-group", type=click.Choice(["content", "auxiliary", "activity_profile", "all"]), default="all")
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def train(labels_path, features_path, kind, feature_group, seed, out) -> None:
    """Train one classifier on labeled feature vectors (80/20 split)."""
    kind_full = {"svm": classifier.KIND_SVM, "tree": classifier.KIND_TREE, "forest": classifier.KIND_FOREST}[kind]
    try:
        ids, X, y = _labeled_matrix(features_path, labels_path)
        model, report = classifier.train_and_evaluate(X, y, seed, kind=kind_full, feature_group=feature_group)
        model.save(out)
    except Exception as exc:
        _fail("classify", exc)
    click.echo(f"{kind_full}: held-out f1={report.f1:.4f} accuracy={report.accuracy:.4f} -> {out}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_path", required=True, type=click.Path(exists=True))
def evaluate(model_path, features_path, labels_path) -> None:
    """Evaluate a saved model against labeled features."""
    try:
        ids, X, y = _labeled_matrix(features_path, labels_path)
        model = classifier.TrainedModel.load(model_path)
        report = classifier.evaluate(model.predict(X), y)
    except Exception as exc:
        _fail("classify", exc)
    click.echo(
        f"tp={report.tp} tn={report.tn} fp={report.fp} fn={report.fn} "
        f"f1={report.f1:.4f} accuracy={report.accuracy:.4f}"
    )


@main.command()
@click.option("--labels", "labels_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def ablate(labels_path, features_path, seed, out) -> None:
    """Feature-group x model-kind ablation on one shared split."""
    try:
        ids, X, y = _labeled_matrix(features_path, labels_path)
        table = classifier.ablation(X, y, seed)
    except Exception as exc:
        _fail("classify", exc)
    write_json(out, {"table": table})
    for group_name, cells in table.items():
        line = " ".join(
            f"{kind}: f1={cells[kind]['f1']:.3f}/acc={cells[kind]['accuracy']:.3f}"
            for kind in classifier.MODEL_KINDS
        )
        click.echo(f"{group_name:17s} {line}")


def _parse_group_selection(selection: str | None, exclude: str) -> list[str]:
    """'II..VII' ranges or 'II,IV' lists; default everything but `exclude`."""
    names = list(diversity.GROUP_NAMES)
    if not selection:
        return [g for g in names if g != exclude]
    if ".." in selection:
        lo, hi = selection.split("..")
        return names[names.index(lo): names.index(hi) + 1]
    return [g.strip() for g in selection.split(",") if g.strip()]


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--groups", "groups_path", required=True, type=click.Path(exists=True))
@click.option("--group-range", "group_range", default=None,
              help="entropy groups to flag, e.g. II..VII or II,IV")
@click.option("--exclude-group", default="VIII")
@click.option("--sample", "sample_n", type=int, default=100)
@click.option("--seed", type=int, default=42)
@click.option("--out", required=True, type=click.Path())
def flag(model_path, features_path, groups_path, group_range, exclude_group, sample_n, seed, out) -> None:
    """Apply a trained model to the remaining entropy groups."""
    try:
        ids, X, _ = feature_matrix(load_features(features_path))
        model = classifier.TrainedModel.load(model_path)
        partition = read_json(groups_path)["groups"]
        wild_groups = group_matrices(ids, X, partition, _parse_group_selection(group_range, exclude_group))
        result = classifier.flag_in_wild(model, wild_groups, sample_n, seed)
    except Exception as exc:
        _fail("classify", exc)
    write_json(out, result)
    for row in result["table"]:
        pct = f"{row['pct_flagged']:.1f}%" if row["pct_flagged"] is not None else "-"
        click.echo(f"group {row['group']:>6s}: {row['flagged']}/{row['total']} flagged ({pct})")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="override the config seed")
@click.option("--out", "out_dir", required=True, type=click.Path())
def run(config_path, seed, out_dir) -> None:
    """Run the full pipeline: ingest through report; cached stages are reused."""
    try:
        config = RunConfig.from_file(config_path)
        if seed is not None:
            config.seed = seed
        report_payload = run_pipeline(config, out_dir)
    except PipelineError as exc:
        click.echo(f"error [{exc.stage}]: {exc}", err=True)
        sys.exit(exc.exit_code)
    click.echo(f"report: {Path(out_dir) / 'report' / 'report.json'}")
    counts = report_payload.get("designation_counts", {})
    click.echo(
        f"groups {report_payload['group_sizes']}; "
        f"designations {counts}; warnings {len(report_payload['warnings'])}"
    )


def _labeled_matrix(features_path: str, labels_path: str):
    vectors = load_features(features_path)
    labels = load_labels_csv(labels_path)
    keep = [v for v in vectors if v.profile_id in labels]
    missing = len(vectors) - len(keep)
    if missing:
        click.echo(f"note: {missing} feature rows have no label and were dropped", err=True)
    ids, X, _ = feature_matrix(keep)
    y = np.asarray([labels[p] for p in ids], dtype=int)
    return ids, X, y


if __name__ == "__main__":
    main()

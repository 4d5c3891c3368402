"""Machine-readable perf record for the batched comparison plane.

Runs the Fig. 5 many-duplicates workload through the detector four
ways — pair-at-a-time and batched, with the pruning filters off and
on — asserts every scenario returns bit-identical pairs (and that the
batched runs reproduce the pair-at-a-time stats modulo the two
batch-only counters), then records the work saved: the drop in full
edit-distance evaluations of the batched, filter-armed run against the
unfiltered pair-at-a-time baseline (the ``REDUCTION_TARGET`` headline
claim).

Honesty over optimism: tiny smoke corpora (the CI step runs ~40
movies) have too few duplicate neighbors for the ≥30% claim to be
meaningful, so the reduction is recorded but only *asserted* at or
above ``ASSERT_FLOOR_MOVIES`` — ``reduction_asserted`` in
``BENCH_batch.json`` says which happened.  Pair identity and stats
equivalence are asserted unconditionally.

``SXNM_BENCH_BATCH_MOVIES`` overrides the corpus size
(``SXNM_BENCH_FULL=1`` runs the paper scale).
"""

import json
import os
import pathlib
import time

from conftest import FULL_SCALE, SEED, peak_memory_snapshot, write_result

from repro.core import SxnmDetector
from repro.datagen import generate_dirty_movies
from repro.eval import render_table
from repro.experiments import dataset1_config
from repro.similarity import ComparisonStats

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_MOVIES = int(os.environ.get("SXNM_BENCH_BATCH_MOVIES",
                                  "400" if FULL_SCALE else "200"))
WINDOW = 10
REDUCTION_TARGET = 0.3
ASSERT_FLOOR_MOVIES = 100

BATCH_ONLY = {"batched_pairs", "batch_prefilter_drops"}


def total_stats(result) -> ComparisonStats:
    total = ComparisonStats()
    for outcome in result.outcomes.values():
        if outcome.compare_stats is not None:
            total.merge(outcome.compare_stats)
    return total


def pair_sets(result):
    return {name: outcome.pairs for name, outcome in result.outcomes.items()}


def stats_modulo_batch(stats: ComparisonStats) -> dict[str, int]:
    return {name: value for name, value in stats.as_dict().items()
            if name not in BATCH_ONLY}


def timed_run(document, use_filters: bool, batch: bool):
    start = time.perf_counter()
    result = SxnmDetector(dataset1_config(), use_filters=use_filters,
                          batch_compare=batch).run(document, window=WINDOW)
    return result, time.perf_counter() - start


def test_batched_comparison_perf_record(benchmark):
    document = generate_dirty_movies(BENCH_MOVIES, seed=SEED, profile="many")

    plain, plain_seconds = timed_run(document, use_filters=False,
                                     batch=False)
    filtered, filtered_seconds = timed_run(document, use_filters=True,
                                           batch=False)
    batch_plain, batch_plain_seconds = timed_run(document, use_filters=False,
                                                 batch=True)
    batch_start = time.perf_counter()
    batch_filtered = benchmark.pedantic(
        lambda: SxnmDetector(dataset1_config(), use_filters=True,
                             batch_compare=True).run(document,
                                                     window=WINDOW),
        rounds=1, iterations=1)
    batch_filtered_seconds = time.perf_counter() - batch_start

    # Batching must not change detection results...
    expected = pair_sets(plain)
    assert pair_sets(filtered) == expected
    assert pair_sets(batch_plain) == expected
    assert pair_sets(batch_filtered) == expected

    # ...and the batched runs reproduce the pair-at-a-time stats modulo
    # the two batch-only counters.
    plain_stats = total_stats(plain)
    filtered_stats = total_stats(filtered)
    batch_plain_stats = total_stats(batch_plain)
    batch_filtered_stats = total_stats(batch_filtered)
    assert stats_modulo_batch(batch_plain_stats) \
        == stats_modulo_batch(plain_stats)
    assert stats_modulo_batch(batch_filtered_stats) \
        == stats_modulo_batch(filtered_stats)
    assert batch_filtered_stats.batched_pairs > 0

    # The headline claim: batched + filter-armed detection does ≥30%
    # less exact edit-DP work than the unfiltered baseline.
    reduction = 1.0 - (batch_filtered_stats.edit_full_evals
                       / max(plain_stats.edit_full_evals, 1))
    reduction_assertable = BENCH_MOVIES >= ASSERT_FLOOR_MOVIES
    if reduction_assertable:
        assert reduction >= REDUCTION_TARGET, (
            batch_filtered_stats.edit_full_evals,
            plain_stats.edit_full_evals)

    pairs_seen = sum(outcome.comparisons + outcome.filtered_comparisons
                     for outcome in batch_filtered.outcomes.values())
    scenarios = [
        ("pairwise-unfiltered", plain, plain_seconds, plain_stats),
        ("pairwise-filtered", filtered, filtered_seconds, filtered_stats),
        ("batch-unfiltered", batch_plain, batch_plain_seconds,
         batch_plain_stats),
        ("batch-filtered", batch_filtered, batch_filtered_seconds,
         batch_filtered_stats),
    ]
    record = {
        "benchmark": "batched_comparison",
        "dataset": {"generator": "dirty_movies", "profile": "many",
                    "movies": BENCH_MOVIES,
                    "elements": document.element_count(),
                    "seed": SEED, "window": WINDOW},
        "scenarios": [
            {"scenario": name,
             "seconds": round(seconds, 4),
             "pairs_per_second": round(pairs_seen / max(seconds, 1e-9), 1),
             "stats": stats.as_dict()}
            for name, _, seconds, stats in scenarios],
        "pairs_identical_across_scenarios": True,
        "edit_full_evals_reduction": round(reduction, 4),
        "reduction_target": REDUCTION_TARGET,
        "reduction_asserted": reduction_assertable,
    }
    record["memory"] = peak_memory_snapshot()
    (REPO_ROOT / "BENCH_batch.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    rows = [
        [name, stats.edit_full_evals, stats.batched_pairs,
         stats.batch_prefilter_drops, f"{seconds:.2f}"]
        for name, _, seconds, stats in scenarios]
    write_result("bench_batch", render_table(
        ["scenario", "full edit DPs", "batched pairs", "batch drops",
         "seconds"], rows,
        title=f"Batched comparison: {BENCH_MOVIES} movies, edit DP "
              f"reduction {reduction:.0%}"))

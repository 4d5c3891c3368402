"""Machine-readable perf record for the comparison plane.

Runs the Fig. 5 many-duplicates workload through the detector with and
without the filter-aware comparison plane and writes the headline
numbers — comparisons/sec, φ-cache hit rate, filter short-circuit rate,
and the drop in full edit-distance evaluations — to
``BENCH_compare.json`` at the repository root, so perf regressions are
diffable across commits.

The filters must cut the full edit-distance evaluations by at least
``REDUCTION_TARGET``.  Tiny smoke corpora (the CI step runs ~40 movies)
have too few duplicate neighbors for that claim to mean anything, so it
is asserted only at ``ASSERT_FLOOR_MOVIES`` or more (``drop_asserted``
in the record says which happened); a strict drop is asserted always.

``SXNM_BENCH_COMPARE_MOVIES`` overrides the corpus size (the CI smoke
step runs a tiny corpus; ``SXNM_BENCH_FULL=1`` runs the paper scale).
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
BENCH_MOVIES = int(os.environ.get("SXNM_BENCH_COMPARE_MOVIES",
                                  "400" if FULL_SCALE else "200"))
WINDOW = 10
REDUCTION_TARGET = 0.3
ASSERT_FLOOR_MOVIES = 100


def total_stats(result) -> ComparisonStats:
    total = ComparisonStats()
    for outcome in result.outcomes.values():
        if outcome.compare_stats is not None:
            total.merge(outcome.compare_stats)
    return total


def test_comparison_plane_perf_record(benchmark):
    document = generate_dirty_movies(BENCH_MOVIES, seed=SEED, profile="many")
    config = dataset1_config()

    plain_start = time.perf_counter()
    plain = SxnmDetector(config, use_filters=False).run(document,
                                                        window=WINDOW)
    plain_seconds = time.perf_counter() - plain_start

    filtered_start = time.perf_counter()
    filtered = benchmark.pedantic(
        lambda: SxnmDetector(config, use_filters=True).run(document,
                                                           window=WINDOW),
        rounds=1, iterations=1)
    filtered_seconds = time.perf_counter() - filtered_start

    # The pruning layers must not change detection results...
    for name in plain.outcomes:
        assert filtered.pairs(name) == plain.pairs(name)

    plain_stats = total_stats(plain)
    filtered_stats = total_stats(filtered)
    pairs_seen = sum(outcome.comparisons + outcome.filtered_comparisons
                     for outcome in filtered.outcomes.values())
    # ...and must measurably cut the full edit-distance evaluations.
    assert filtered_stats.edit_full_evals < plain_stats.edit_full_evals
    drop = 1.0 - (filtered_stats.edit_full_evals
                  / max(plain_stats.edit_full_evals, 1))
    drop_asserted = BENCH_MOVIES >= ASSERT_FLOOR_MOVIES
    if drop_asserted:
        assert drop >= REDUCTION_TARGET, (filtered_stats.edit_full_evals,
                                          plain_stats.edit_full_evals)

    record = {
        "benchmark": "comparison_plane",
        "dataset": {"generator": "dirty_movies", "profile": "many",
                    "movies": BENCH_MOVIES,
                    "elements": document.element_count(),
                    "seed": SEED, "window": WINDOW},
        "plain": {"seconds": round(plain_seconds, 4),
                  "pairs_per_second": round(pairs_seen
                                            / max(plain_seconds, 1e-9), 1),
                  "stats": plain_stats.as_dict()},
        "filtered": {"seconds": round(filtered_seconds, 4),
                     "pairs_per_second": round(pairs_seen
                                               / max(filtered_seconds, 1e-9),
                                               1),
                     "phi_cache_hit_rate": round(
                         filtered_stats.phi_cache_hit_rate, 4),
                     "filter_short_circuit_rate": round(
                         filtered_stats.filter_short_circuit_rate, 4),
                     "stats": filtered_stats.as_dict()},
        "edit_full_evals_drop": round(drop, 4),
        "drop_target": REDUCTION_TARGET,
        "drop_asserted": drop_asserted,
    }
    record["memory"] = peak_memory_snapshot()
    (REPO_ROOT / "BENCH_compare.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    rows = [
        ["plain", plain_stats.edit_full_evals, "-", "-",
         f"{plain_seconds:.2f}"],
        ["filter-aware plane", filtered_stats.edit_full_evals,
         f"{filtered_stats.phi_cache_hit_rate:.0%}",
         f"{filtered_stats.filter_short_circuit_rate:.0%}",
         f"{filtered_seconds:.2f}"],
    ]
    write_result("bench_compare", render_table(
        ["mode", "full edit DPs", "phi cache hits", "short-circuits",
         "seconds"], rows,
        title=f"Comparison plane: {BENCH_MOVIES} movies, "
              f"edit DP drop {drop:.0%}"))

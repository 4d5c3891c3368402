"""The parallel execution layer: sharding, merging, and equivalence.

The load-bearing invariant (and the reason the layer is usable at all):
sharded detection returns **bit-identical pair sets and cluster sets**
to the serial kernels, for every table, window, worker count, and
segment split — only comparison counts may rise, and the rise is
accounted as ``redundant_comparisons``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import UnionFind  # noqa: F401  (import parity check)
from repro.config import CandidateSpec, SxnmConfig
from repro.core import (ClusterSet, CounterObserver, DetectionEngine,
                        EngineObserver, GkRow, GkTable,
                        ParallelWindowStrategy, PairVerdict,
                        SharedMemoryPlane, SxnmDetector, multipass,
                        window_pass)
from repro.core.execution import (PassResult, merge_pass_results,
                                  plan_segments, segment_bounds,
                                  shared_executor)
from repro.core.window import slide
from repro.similarity import PhiCache


def table_with(keys_per_row, key_count=None):
    if key_count is None:
        key_count = len(keys_per_row[0]) if keys_per_row else 1
    table = GkTable("x", key_count=key_count, od_count=0)
    for eid, keys in enumerate(keys_per_row):
        table.add(GkRow(eid, list(keys), []))
    return table


def partition(pairs, eids):
    return {frozenset(cluster)
            for cluster in ClusterSet.from_pairs("x", pairs, eids)}


class PlaneCtx:
    """The slice of ``CandidateContext`` a plane's multipass reads;
    observer hooks are no-ops."""

    def __init__(self, table, window, compare, key_indices):
        self.table = table
        self.window = window
        self.compare = compare
        self.decider = None
        self.config = None
        self.key_indices = key_indices
        self.pairs = set()

    def __getattr__(self, name):
        if name.startswith("pass_") or name in ("warning",
                                                "segment_published"):
            return lambda *args: None
        raise AttributeError(name)


def plane_multipass(table, window, compare, key_indices=None,
                    duplicate_elimination=False, workers=2, min_rows=0,
                    segments_per_pass=None):
    """:func:`multipass` sharded on the shared-memory plane."""
    ctx = PlaneCtx(table, window, compare,
                   key_indices if key_indices is not None
                   else list(range(table.key_count)))
    plane = SharedMemoryPlane(workers=workers, min_rows=min_rows,
                              segments_per_pass=segments_per_pass)
    try:
        outcome = plane.multipass(
            ctx, duplicate_elimination=duplicate_elimination)
    finally:
        plane.finish_run()
    return ctx.pairs, outcome.comparisons


# Module-level (hence picklable) comparison callables.

def always_duplicate(left, right):
    return PairVerdict(1.0, None, 1.0, True)


def never_duplicate(left, right):
    return PairVerdict(0.0, None, 0.0, False)


def first_char_duplicate(left, right):
    """Deterministic, content-dependent: duplicate iff the first key
    values start with the same non-empty character."""
    a, b = left.keys[0], right.keys[0]
    same = bool(a) and bool(b) and a[0] == b[0]
    return PairVerdict(float(same), None, float(same), same)


# ---------------------------------------------------------------------------
# Shard planning


class TestPlanning:
    def test_single_key_gets_all_workers(self):
        assert plan_segments(1000, key_count=1, workers=4) == 4

    def test_keys_absorb_workers(self):
        # 3 keys x ceil(4/3) segments >= 4 workers.
        assert plan_segments(1000, key_count=3, workers=4) == 2

    def test_small_tables_stay_whole(self):
        assert plan_segments(40, key_count=1, workers=8) == 1

    def test_explicit_override_wins(self):
        assert plan_segments(1000, key_count=3, workers=2,
                             segments_per_pass=7) == 7

    def test_never_more_segments_than_rows(self):
        assert plan_segments(3, key_count=1, workers=8,
                             segments_per_pass=10) == 3
        assert plan_segments(0, key_count=1, workers=8) == 1

    def test_bounds_partition_the_anchor_range(self):
        for row_count in (0, 1, 5, 17, 100):
            for segments in (1, 2, 3, 7):
                bounds = segment_bounds(row_count, segments)
                covered = [i for low, high in bounds
                           for i in range(low, high)]
                assert covered == list(range(row_count))

    def test_segment_pass_equals_serial_pass(self):
        table = table_with([[f"k{i % 7}"] for i in range(23)])
        window = 4
        serial_pairs: set = set()
        serial = window_pass(table, 0, window, first_char_duplicate,
                             serial_pairs)
        ordered = table.sorted_by_key(0)
        sharded_pairs: set = set()
        sharded = 0
        for low, high in segment_bounds(len(ordered), 3):
            first = max(0, low - window + 1)
            sharded += slide(ordered[first:high], window,
                             first_char_duplicate, sharded_pairs,
                             start=low - first)
        assert sharded_pairs == serial_pairs
        # One shared ``pairs`` set here means skip_known still applies
        # across segments, so the counts match exactly too.
        assert sharded == serial


# ---------------------------------------------------------------------------
# Result merging


class TestMerging:
    def test_redundant_is_sum_minus_union(self):
        results = [
            PassResult(0, {(1, 2), (3, 4)}, 5, 0, None),
            PassResult(1, {(1, 2), (5, 6)}, 7, 1, None),
            PassResult(2, {(3, 4)}, 2, 0, None),
        ]
        outcome = merge_pass_results(results)
        assert outcome.pairs == {(1, 2), (3, 4), (5, 6)}
        assert outcome.comparisons == 14
        assert outcome.filtered == 1
        assert outcome.redundant == 2
        assert outcome.per_key == [(0, 5, 0), (1, 7, 1), (2, 2, 1)]

    def test_merges_into_existing_pair_set(self):
        union: set = {(1, 2)}
        outcome = merge_pass_results(
            [PassResult(0, {(1, 2), (8, 9)}, 3, 0, None)], pairs=union)
        assert union == {(1, 2), (8, 9)}
        assert outcome.pairs is union
        assert outcome.redundant == 1

    def test_worker_stats_accumulate_redundancy(self):
        from repro.similarity import ComparisonStats
        stats = ComparisonStats(pairs_scored=4)
        outcome = merge_pass_results([
            PassResult(0, {(1, 2)}, 4, 0, stats),
            PassResult(1, {(1, 2)}, 1, 0, ComparisonStats(pairs_scored=1)),
        ])
        assert outcome.stats.pairs_scored == 5
        assert outcome.stats.redundant_comparisons == 1


# ---------------------------------------------------------------------------
# Sharded multipass on the plane


class TestParallelMultipass:
    def test_workers_one_is_the_serial_kernel(self):
        table = table_with([["a"], ["ab"], ["b"], ["ba"]])
        assert plane_multipass(table, 2, first_char_duplicate,
                               workers=1) \
            == multipass(table, 2, first_char_duplicate)

    def test_min_rows_fallback_is_serial(self):
        table = table_with([["a"], ["ab"], ["b"]])
        # min_rows above the table size: must not shard (counts equal).
        assert plane_multipass(table, 2, first_char_duplicate,
                               workers=4, min_rows=100) \
            == multipass(table, 2, first_char_duplicate)

    def test_sharded_pairs_match_serial(self):
        table = table_with(
            [[f"{'abc'[i % 3]}{i % 5}", f"{'xy'[i % 2]}{i % 7}"]
             for i in range(40)])
        serial_pairs, serial_comps = multipass(table, 4,
                                               first_char_duplicate)
        pairs, comps = plane_multipass(table, 4, first_char_duplicate,
                                       workers=2, segments_per_pass=3)
        assert pairs == serial_pairs
        assert comps >= serial_comps

    def test_duplicate_elimination_mode(self):
        table = table_with([["a", "x"], ["a", "y"], ["", "x"], ["", "y"],
                            ["b", "x"], ["b", "x"]] * 4)
        serial_pairs, _ = multipass(table, 3, first_char_duplicate,
                                    duplicate_elimination=True)
        pairs, _ = plane_multipass(table, 3, first_char_duplicate,
                                   duplicate_elimination=True, workers=3)
        assert pairs == serial_pairs

    def test_executor_is_shared_and_reused(self):
        assert shared_executor(2) is shared_executor(2)


WORKER_TABLES = st.lists(
    st.lists(st.text(alphabet="ab", max_size=3), min_size=2, max_size=2),
    max_size=18)


class TestParallelProperty:
    @settings(max_examples=25, deadline=None)
    @given(rows=WORKER_TABLES, window=st.integers(2, 5),
           workers=st.integers(1, 3),
           segments=st.one_of(st.none(), st.integers(1, 6)),
           duplicate_elimination=st.booleans(),
           min_rows=st.integers(0, 12))
    def test_identical_pairs_and_clusters(self, rows, window, workers,
                                          segments, duplicate_elimination,
                                          min_rows):
        """Sharded multipass == serial multipass: pairs AND clusters,
        for random tables, windows, worker counts, segment splits, and
        the degenerate workers=1 / rows < min_rows fallbacks."""
        table = table_with(rows, key_count=2)
        serial_pairs, serial_comps = multipass(
            table, window, first_char_duplicate,
            duplicate_elimination=duplicate_elimination)
        pairs, comps = plane_multipass(
            table, window, first_char_duplicate,
            duplicate_elimination=duplicate_elimination, workers=workers,
            min_rows=min_rows, segments_per_pass=segments)
        assert pairs == serial_pairs
        assert comps >= serial_comps
        eids = table.eids()
        assert partition(pairs, eids) == partition(serial_pairs, eids)


# ---------------------------------------------------------------------------
# The engine stage


class RecordingObserver(EngineObserver):
    def __init__(self):
        self.events = []

    def pass_started(self, candidate, key_index):
        self.events.append(("started", key_index))

    def pass_dispatched(self, candidate, key_index, shards):
        self.events.append(("dispatched", key_index, shards))

    def pass_merged(self, candidate, key_index, comparisons, redundant):
        self.events.append(("merged", key_index))

    def pass_finished(self, candidate, key_index, comparisons):
        self.events.append(("finished", key_index))

    def warning(self, message):
        self.events.append(("warning", message))


def small_config(**overrides):
    config = SxnmConfig(window_size=3, od_threshold=0.6,
                        duplicate_threshold=0.6, parallel_min_rows=0,
                        **overrides)
    config.add(CandidateSpec.build(
        "movie", "db/movies/movie",
        od=[("title/text()", 1.0)],
        keys=[[("title/text()", "K1-K4")], [("title/text()", "W1,W2")]]))
    return config


MOVIES_XML = "<db><movies>" + "".join(
    f"<movie><title>Film {name}</title></movie>"
    for name in ["Alpha", "Alpha", "Alphb", "Beta", "Betta", "Gamma",
                 "Gamba", "Delta", "Delts", "Omega"]) + "</movies></db>"


class _UnpicklableDecider:
    def __init__(self):
        self.filtered_comparisons = 0
        self._impl = lambda left, right: PairVerdict(1.0, None, 1.0, True)

    def compare(self, left, right):
        return self._impl(left, right)


class _UnpicklablePolicy:
    def decider(self, spec, config, cluster_sets, od_cache):
        return _UnpicklableDecider()


class TestParallelWindowStrategy:
    def test_event_order_per_key(self):
        observer = RecordingObserver()
        detector = SxnmDetector(small_config(), workers=2,
                                observers=[observer])
        detector.run(MOVIES_XML)
        kinds = [event[0] for event in observer.events]
        assert kinds == ["started", "dispatched", "started", "dispatched",
                         "merged", "finished", "merged", "finished"]
        shards = [event[2] for event in observer.events
                  if event[0] == "dispatched"]
        assert all(count >= 1 for count in shards)

    def test_workers_from_config(self):
        config = small_config(workers=2)
        detector = SxnmDetector(config)
        assert isinstance(detector.engine.neighborhood,
                          ParallelWindowStrategy)
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        parallel = detector.run(MOVIES_XML)
        assert parallel.pairs("movie") == serial.pairs("movie")

    def test_min_rows_fallback_keeps_serial_counts(self):
        config = small_config()
        config.parallel_min_rows = 1000
        observer = RecordingObserver()
        fallback = SxnmDetector(config, workers=2,
                                observers=[observer]).run(MOVIES_XML)
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        outcome = fallback.outcomes["movie"]
        assert outcome.pairs == serial.outcomes["movie"].pairs
        # Serial path: skip_known works, so counts match exactly...
        assert outcome.comparisons == serial.outcomes["movie"].comparisons
        # ...and no shards were dispatched.
        assert not any(event[0] == "dispatched"
                       for event in observer.events)

    def test_unpicklable_decider_warns_and_runs_serially(self):
        counter = CounterObserver()
        engine = DetectionEngine(
            small_config(),
            neighborhood=ParallelWindowStrategy(workers=2, min_rows=0),
            decision=_UnpicklablePolicy(),
            observers=[counter])
        result = engine.run(MOVIES_XML)
        assert counter.warnings
        assert "picklable" in counter.warnings[0]
        # always-duplicate decider: everything clusters together.
        assert len(result.cluster_set("movie").duplicate_clusters()) == 1

    def test_redundant_comparisons_recorded_in_stats(self):
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        parallel = SxnmDetector(small_config(), workers=2).run(MOVIES_XML)
        s, p = serial.outcomes["movie"], parallel.outcomes["movie"]
        assert p.pairs == s.pairs
        assert p.comparisons - s.comparisons \
            == p.compare_stats.redundant_comparisons
        assert s.compare_stats.redundant_comparisons == 0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelWindowStrategy(workers=0)


class TestPhiCachePickling:
    def test_pickles_empty_with_same_capacity(self):
        import pickle
        cache = PhiCache(maxsize=128)
        cache.put(("edit", "a", "b"), 0.5)
        cache.get(("edit", "a", "b"))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 128
        assert len(clone) == 0
        assert clone.hits == 0


class TestParallelPersistentCache:
    """Worker φ deltas travel back to the parent and persist."""

    def test_parallel_cold_run_flushes_worker_scores(self, tmp_path):
        counter = CounterObserver()
        result = SxnmDetector(small_config(),
                              workers=2,
                              phi_cache_dir=str(tmp_path),
                              observers=[counter]).run(MOVIES_XML)
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        assert result.pairs("movie") == serial.pairs("movie")
        # The exact scores computed inside worker processes were drained
        # as deltas, merged by the parent, and flushed at run end.
        assert counter.counts.get("cache_flushed") == 1
        assert counter.counts.get("cache_entries_flushed", 0) > 0

    def test_warm_run_after_parallel_cold_run_hits_disk(self, tmp_path):
        SxnmDetector(small_config(), workers=2,
                     phi_cache_dir=str(tmp_path)).run(MOVIES_XML)

        warm = SxnmDetector(small_config(),
                            phi_cache_dir=str(tmp_path)).run(MOVIES_XML)
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        assert warm.pairs("movie") == serial.pairs("movie")
        stats = warm.outcomes["movie"].compare_stats
        assert stats.phi_cache_disk_hits > 0
        assert stats.phi_cache_misses == 0  # fully served from disk
        assert stats.phi_cache_spilled == 0

    def test_parallel_warm_run_loads_in_workers(self, tmp_path):
        SxnmDetector(small_config(), workers=2,
                     phi_cache_dir=str(tmp_path)).run(MOVIES_XML)

        counter = CounterObserver()
        warm = SxnmDetector(small_config(), workers=2,
                            phi_cache_dir=str(tmp_path),
                            observers=[counter]).run(MOVIES_XML)
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        assert warm.pairs("movie") == serial.pairs("movie")
        # Workers served their comparisons from the shared read-only
        # store, so the parent had nothing new to flush.
        assert counter.counts.get("cache_entries_flushed", 0) == 0
        stats = warm.outcomes["movie"].compare_stats
        assert stats.phi_cache_disk_hits > 0

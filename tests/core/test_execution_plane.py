"""The unified ExecutionPlane: backend equivalence and pool lifecycle.

Both backends — :class:`SerialPlane` and :class:`SharedMemoryPlane` —
must produce bit-identical pair and cluster sets through the same
``multipass`` seam; only comparison counts may rise, accounted as
``redundant_comparisons``.  The pooled backend additionally promises a
persistent worker pool across runs,
shared-memory segments that never outlive a pass (even a crashing
one), and a graceful warned retreat to serial execution when the pool
breaks.
"""

import pytest
from concurrent.futures.process import BrokenProcessPool
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CandidateSpec, SxnmConfig
from repro.core import (ClusterSet, CounterObserver, DetectionEngine,
                        GkRow, GkTable, PairVerdict, ParallelWindowStrategy,
                        SerialPlane, SharedMemoryPlane, SxnmDetector,
                        make_plane)
from repro.core import execution


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


# Module-level (hence picklable-by-reference) comparison callables.

def first_char_duplicate(left, right):
    a, b = left.keys[0], right.keys[0]
    same = bool(a) and bool(b) and a[0] == b[0]
    return PairVerdict(float(same), None, float(same), same)


def exploding_compare(left, right):
    raise RuntimeError("boom in worker")


class PlaneCtx:
    """Minimal stand-in for ``CandidateContext`` at the plane seam."""

    def __init__(self, table, window, compare, config=None):
        self.table = table
        self.window = window
        self.compare = compare
        self.decider = None
        self.config = config
        self.key_indices = list(range(table.key_count))
        self.pairs = set()
        self.events = []
        self.segments = []
        self.warnings = []

    def pass_started(self, key_index):
        self.events.append(("started", key_index))

    def pass_dispatched(self, key_index, shards):
        self.events.append(("dispatched", key_index, shards))

    def pass_merged(self, key_index, comparisons, redundant):
        self.events.append(("merged", key_index))

    def pass_finished(self, key_index, comparisons):
        self.events.append(("finished", key_index))

    def warning(self, message):
        self.warnings.append(message)

    def segment_published(self, segment, nbytes):
        self.segments.append((segment, nbytes))


def run_plane(plane, table, window, compare=first_char_duplicate,
              duplicate_elimination=False):
    ctx = PlaneCtx(table, window, compare)
    try:
        outcome = plane.multipass(
            ctx, duplicate_elimination=duplicate_elimination)
    finally:
        plane.finish_run()
    return ctx, outcome


TABLES = st.lists(
    st.lists(st.text(alphabet="ab", max_size=3), min_size=2, max_size=2),
    max_size=18)


class TestBackendEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(rows=TABLES, window=st.integers(2, 5), workers=st.integers(1, 3),
           segments=st.one_of(st.none(), st.integers(1, 5)),
           duplicate_elimination=st.booleans())
    def test_pooled_planes_match_serial(self, rows, window, workers,
                                        segments, duplicate_elimination):
        """SharedMemoryPlane ≡ SerialPlane on random tables, over both
        transports (shared segments and inline rows): identical pairs
        AND clusters; comparisons may only rise."""
        table = table_with(rows, key_count=2)
        serial_ctx, serial = run_plane(
            SerialPlane(), table, window,
            duplicate_elimination=duplicate_elimination)
        eids = table.eids()
        for min_bytes in (0, 1 << 30):
            plane = SharedMemoryPlane(workers=workers, min_rows=0,
                                      segments_per_pass=segments,
                                      min_bytes=min_bytes)
            ctx, outcome = run_plane(
                plane, table, window,
                duplicate_elimination=duplicate_elimination)
            assert ctx.pairs == serial_ctx.pairs, min_bytes
            assert outcome.comparisons >= serial.comparisons, min_bytes
            assert partition(ctx.pairs, eids) \
                == partition(serial_ctx.pairs, eids), min_bytes

    def test_shared_memory_segment_is_published_and_released(self):
        table = table_with([[f"k{i % 5}", f"w{i % 3}"] for i in range(30)])
        plane = SharedMemoryPlane(workers=2, min_rows=0, min_bytes=0)
        ctx, _ = run_plane(plane, table, 3)
        assert ctx.segments, "segment path was not taken"
        assert plane._segments == []
        from multiprocessing import shared_memory
        for name, nbytes in ctx.segments:
            assert nbytes > 0
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_dispatch_all_keys_before_gather(self):
        table = table_with([[f"k{i % 5}", f"w{i % 3}"] for i in range(30)])
        plane = SharedMemoryPlane(workers=2, min_rows=0)
        ctx, _ = run_plane(plane, table, 3)
        kinds = [event[0] for event in ctx.events]
        assert kinds == ["started", "dispatched", "started", "dispatched",
                         "merged", "finished", "merged", "finished"]


class TestFaultTolerance:
    def test_segment_released_when_worker_raises(self):
        """A crashing comparer must not leak the shm segment."""
        table = table_with([[f"k{i % 5}", f"w{i % 3}"] for i in range(30)])
        plane = SharedMemoryPlane(workers=2, min_rows=0, min_bytes=0)
        ctx = PlaneCtx(table, 3, exploding_compare)
        with pytest.raises(RuntimeError, match="boom in worker"):
            plane.multipass(ctx)
        plane.finish_run()
        assert ctx.segments
        assert plane._segments == []
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ctx.segments[0][0])

    def test_broken_pool_warns_and_retries_serially(self):
        class BrokenFuture:
            def result(self):
                raise BrokenProcessPool("stub pool died")

        class BrokenExecutor:
            def submit(self, fn, *args, **kwargs):
                return BrokenFuture()

        table = table_with([[f"k{i % 5}", f"w{i % 3}"] for i in range(30)])
        plane = SharedMemoryPlane(workers=2, min_rows=0, min_bytes=0,
                                  executor=BrokenExecutor())
        ctx, outcome = run_plane(plane, table, 3)
        assert any("worker pool broke" in message
                   for message in ctx.warnings)
        serial_ctx, serial = run_plane(SerialPlane(), table, 3)
        assert ctx.pairs == serial_ctx.pairs
        # Serial retry in-process: counts match the serial kernel exactly.
        assert outcome.comparisons == serial.comparisons
        # The published segment did not outlive the failed dispatch.
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ctx.segments[0][0])


# ---------------------------------------------------------------------------
# Plane selection and the detector seam


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


class TestMakePlane:
    def test_auto_is_serial_for_one_worker(self):
        assert isinstance(make_plane(small_config()), SerialPlane)

    def test_auto_is_shared_memory_for_many_workers(self):
        plane = make_plane(small_config(workers=3))
        assert isinstance(plane, SharedMemoryPlane)
        assert plane.workers == 3

    def test_workers_argument_overrides_config(self):
        plane = make_plane(small_config(), workers=2)
        assert isinstance(plane, SharedMemoryPlane)
        assert plane.workers == 2

    def test_min_bytes_threaded_through(self):
        plane = make_plane(small_config(shared_memory_min_bytes=7,
                                        workers=2))
        assert plane.min_bytes == 7


class TestDetectorSeam:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "shm"])
    def test_backends_bit_identical(self, workers):
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        result = SxnmDetector(small_config(),
                              workers=workers).run(MOVIES_XML)
        assert result.pairs("movie") == serial.pairs("movie")
        assert {frozenset(c) for c
                in result.cluster_set("movie").duplicate_clusters()} \
            == {frozenset(c) for c
                in serial.cluster_set("movie").duplicate_clusters()}

    def test_serial_plane_disables_parallel_strategy(self):
        detector = SxnmDetector(small_config(), workers=1)
        assert not isinstance(detector.engine.neighborhood,
                              ParallelWindowStrategy)
        result = detector.run(MOVIES_XML)
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        # Fully serial: even comparison counts match.
        assert result.outcomes["movie"].comparisons \
            == serial.outcomes["movie"].comparisons

    def test_plane_opened_and_segments_observed(self):
        counter = CounterObserver()
        config = small_config(shared_memory_min_bytes=0)
        SxnmDetector(config, workers=2,
                     observers=[counter]).run(MOVIES_XML)
        assert counter.counts.get("plane_opened") == 1
        assert counter.counts.get("plane_shm") == 1
        assert counter.counts.get("segment_published", 0) >= 1
        assert counter.counts.get("segment_bytes", 0) > 0

    def test_pool_persists_across_detector_runs(self):
        detector = SxnmDetector(small_config(), workers=2)
        detector.run(MOVIES_XML)
        pool = execution._EXECUTORS.get(2)
        assert pool is not None
        detector.run(MOVIES_XML)
        assert execution._EXECUTORS.get(2) is pool

    def test_non_persistent_pool_is_shut_down_per_run(self):
        config = small_config(worker_pool_persist=False)
        before = execution._EXECUTORS.get(2)
        detector = SxnmDetector(config, workers=2)
        result = detector.run(MOVIES_XML)
        serial = SxnmDetector(small_config()).run(MOVIES_XML)
        assert result.pairs("movie") == serial.pairs("movie")
        # The run used a plane-owned pool, not the shared registry.
        assert execution._EXECUTORS.get(2) is before


# ---------------------------------------------------------------------------
# The stale-pool φ-store handshake (PhiCache.__reduce__ symmetry)


def _open_store_in_worker(directory):
    """Memoize an (empty) shared store inside the worker process."""
    from repro.similarity.store import open_shared_store
    return open_shared_store(directory).segments_loaded


class TestStaleWorkerStoreRefresh:
    def test_stale_pool_refreshes_against_parent_segment_index(self, tmp_path):
        """A worker whose memoized store predates the parent's flush
        must refresh against the segment index travelling with the
        pickled PhiCache — otherwise a long-lived pool silently
        recomputes scores the parent already persisted."""
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=1)
        try:
            # The worker opens (and memoizes) the store while empty.
            assert executor.submit(_open_store_in_worker,
                                   str(tmp_path)).result() == 0

            # Parent cold run flushes a segment the worker never saw.
            SxnmDetector(small_config(),
                         phi_cache_dir=str(tmp_path)).run(MOVIES_XML)

            counter = CounterObserver()
            engine = DetectionEngine(
                small_config(phi_cache_dir=str(tmp_path)),
                neighborhood=ParallelWindowStrategy(
                    workers=2, min_rows=0, executor=executor),
                observers=[counter])
            warm = engine.run(MOVIES_XML)
            serial = SxnmDetector(small_config()).run(MOVIES_XML)
            assert warm.pairs("movie") == serial.pairs("movie")
            stats = warm.outcomes["movie"].compare_stats
            # The stale worker served scores from the refreshed store...
            assert stats.phi_cache_disk_hits > 0
            # ...so nothing was spilled or flushed again.
            assert stats.phi_cache_spilled == 0
            assert counter.counts.get("cache_entries_flushed", 0) == 0
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# The relational seam


class TestRelationalPlane:
    """The classical SNM rides the same plane; no ``skip_known`` there,
    so even comparison counts match the serial kernel exactly."""

    @staticmethod
    def movie_relation():
        from repro.relational import Relation
        relation = Relation(["title", "year"], name="MOVIE")
        relation.extend([
            {"title": f"Film {name}", "year": year}
            for name, year in [("Alpha", "1998"), ("Alpha", "1998"),
                               ("Alphb", "1998"), ("Beta", "1999"),
                               ("Betta", "1999"), ("Gamma", "1994"),
                               ("Gamba", "1994"), ("Delta", "2001"),
                               ("Delts", "2001"), ("Omega", "2002")]])
        return relation

    @pytest.mark.parametrize("plane_factory", [
        SerialPlane,
        lambda: SharedMemoryPlane(workers=2, min_rows=0, min_bytes=0),
    ], ids=["serial", "shm"])
    def test_plane_matches_inline_kernel(self, plane_factory):
        from repro.relational import (FieldRule, RelationalKey,
                                      WeightedFieldMatcher,
                                      sorted_neighborhood)
        relation = self.movie_relation()
        keys = [RelationalKey.create([("title", "K1-K4"),
                                      ("year", "D3,D4")])]
        matcher = WeightedFieldMatcher(
            [FieldRule("title", 0.8), FieldRule("year", 0.2, "year")], 0.75)
        inline = sorted_neighborhood(relation, keys, matcher, window=3)
        plane = plane_factory()
        try:
            planed = sorted_neighborhood(relation, keys, matcher, window=3,
                                         plane=plane)
        finally:
            plane.finish_run()
        assert planed.pairs == inline.pairs
        assert planed.comparisons == inline.comparisons
        assert planed.clusters == inline.clusters

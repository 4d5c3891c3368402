"""Golden equivalence: the engine-backed detectors vs frozen references.

Each reference implementation below re-states a pre-refactor detector
loop directly on the shared kernels (``generate_gk``, ``SimilarityMeasure``,
``ClusterSet``) and the frozen window kernels of
:mod:`tests.core.reference_window` (``multipass`` /
``adaptive_window_pass`` as they stood before every window walk moved
onto one sliding kernel), without going through
:class:`~repro.core.DetectionEngine`.  The tests
assert *bit-identical* pairs, comparison counts, and cluster partitions
against the thin wrappers, on generated movie and CD corpora — the
refactor's central invariant.
"""

import bisect
import os

import pytest

from repro.clustering import UnionFind
from repro.config import SxnmConfig
from repro.core import (AdaptiveSxnmDetector, CandidateHierarchy, ClusterSet,
                        DogmatixDetector, GkRow, GkTable, IncrementalSxnm,
                        SxnmDetector, TopDownDetector, generate_gk,
                        od_similarity, select_key_indices)
from repro.core.observer import EngineObserver
from repro.core.simmeasure import SimilarityMeasure, od_similarity_upper_bound
from repro.core.stages import od_only_spec
from repro.datagen import generate_dataset2, generate_dirty_movies
from repro.experiments import (dataset1_config, dataset2_config,
                               scalability_config)
from repro.similarity import get_similarity
from repro.xmlmodel import XmlDocument, serialize
from tests.core.reference_window import adaptive_window_pass, multipass


def partition(cluster_set: ClusterSet) -> set[frozenset[int]]:
    """Cluster-id-free view of a partition (jaccard-invariant)."""
    return {frozenset(cluster) for cluster in cluster_set}


@pytest.fixture(scope="module")
def movies() -> XmlDocument:
    return generate_dirty_movies(60, seed=11, profile="effectiveness")


@pytest.fixture(scope="module")
def discs() -> XmlDocument:
    return generate_dataset2(disc_count=80, seed=11)


# ---------------------------------------------------------------------------
# Frozen references (pre-refactor detector loops, restated)


def reference_sxnm(config: SxnmConfig, document: XmlDocument,
                   window=None, key_selection=None, decision="gates",
                   use_filters=False, duplicate_elimination=False,
                   closure_method="union_find"):
    """The historical SxnmDetector loop: bottom-up multipass windows."""
    hierarchy = CandidateHierarchy(config)
    tables = generate_gk(document, config, hierarchy)
    cluster_sets: dict[str, ClusterSet] = {}
    outcomes = {}
    for node in hierarchy.order:
        spec = node.spec
        table = tables[spec.name]
        measure = SimilarityMeasure(spec, config, cluster_sets,
                                    decision=decision,
                                    use_filters=use_filters)
        pairs, comparisons = multipass(
            table, window if window is not None
            else config.effective_window(spec), measure.compare,
            key_indices=select_key_indices(table, key_selection),
            duplicate_elimination=duplicate_elimination)
        cluster_sets[spec.name] = ClusterSet.from_pairs(
            spec.name, pairs, table.eids(), method=closure_method)
        outcomes[spec.name] = (pairs, comparisons,
                               measure.filtered_comparisons,
                               partition(cluster_sets[spec.name]))
    return outcomes


def reference_adaptive(config: SxnmConfig, document: XmlDocument,
                       min_window=2, max_window=20,
                       key_similarity_floor=0.6):
    """The historical AdaptiveSxnmDetector loop."""
    hierarchy = CandidateHierarchy(config)
    tables = generate_gk(document, config, hierarchy)
    cluster_sets: dict[str, ClusterSet] = {}
    outcomes = {}
    for node in hierarchy.order:
        spec = node.spec
        table = tables[spec.name]
        measure = SimilarityMeasure(spec, config, cluster_sets)
        pairs: set[tuple[int, int]] = set()
        comparisons = 0
        for key_index in range(table.key_count):
            comparisons += adaptive_window_pass(
                table, key_index, measure.compare, pairs,
                min_window=min_window, max_window=max_window,
                key_similarity_floor=key_similarity_floor)
        cluster_sets[spec.name] = ClusterSet.from_pairs(spec.name, pairs,
                                                        table.eids())
        outcomes[spec.name] = (pairs, comparisons,
                               partition(cluster_sets[spec.name]))
    return outcomes


def reference_dogmatix(config: SxnmConfig, document: XmlDocument,
                       use_filters=True):
    """The historical DogmatixDetector loop: filtered all-pairs."""
    hierarchy = CandidateHierarchy(config)
    tables = generate_gk(document, config, hierarchy)
    cluster_sets: dict[str, ClusterSet] = {}
    outcomes = {}
    for node in hierarchy.order:
        spec = node.spec
        table = tables[spec.name]
        od_threshold = config.effective_od_threshold(spec)
        measure = SimilarityMeasure(spec, config, cluster_sets)
        rows = list(table)
        pairs: set[tuple[int, int]] = set()
        comparisons = filtered = 0
        for i, left in enumerate(rows):
            for right in rows[i + 1:]:
                if use_filters and od_similarity_upper_bound(
                        left, right, spec) < od_threshold:
                    filtered += 1
                    continue
                comparisons += 1
                if measure.compare(left, right).is_duplicate:
                    pairs.add((min(left.eid, right.eid),
                               max(left.eid, right.eid)))
        cluster_sets[spec.name] = ClusterSet.from_pairs(spec.name, pairs,
                                                        table.eids())
        outcomes[spec.name] = (pairs, comparisons, filtered,
                               partition(cluster_sets[spec.name]))
    return outcomes


def reference_topdown(config: SxnmConfig, document: XmlDocument,
                      window=None):
    """The historical TopDownDetector loop: parent-grouped OD-only windows."""
    hierarchy = CandidateHierarchy(config)
    tables = generate_gk(document, config, hierarchy)
    cluster_sets: dict[str, ClusterSet] = {}
    outcomes = {}
    for node in reversed(hierarchy.order):
        spec = node.spec
        table = tables[spec.name]
        measure = SimilarityMeasure(od_only_spec(spec), config,
                                    cluster_sets={}, decision="gates")
        effective = (window if window is not None
                     else config.effective_window(spec))
        if node.parent is None or node.parent.name not in cluster_sets:
            groups = [table.eids()]
        else:
            parent_clusters = cluster_sets[node.parent.name]
            by_cid: dict[int, list[int]] = {}
            for parent_row in tables[node.parent.name]:
                for child_eid in parent_row.children.get(node.name, []):
                    cid = parent_clusters.cid(parent_row.eid)
                    by_cid.setdefault(cid, []).append(child_eid)
            groups = [sorted(eids) for eids in by_cid.values()]
            seen = {eid for group in groups for eid in group}
            orphans = [eid for eid in table.eids() if eid not in seen]
            if orphans:
                groups.append(orphans)
        pairs: set[tuple[int, int]] = set()
        comparisons = 0
        for key_index in range(table.key_count):
            for group in groups:
                rows = [table.row(eid) for eid in group]
                ordered = sorted(rows,
                                 key=lambda row: (row.keys[key_index], row.eid))
                for index, row in enumerate(ordered):
                    for other in ordered[max(0, index - effective + 1):index]:
                        pair = (min(other.eid, row.eid),
                                max(other.eid, row.eid))
                        if pair in pairs:
                            continue
                        comparisons += 1
                        if measure.compare(other, row).is_duplicate:
                            pairs.add(pair)
        cluster_sets[spec.name] = ClusterSet.from_pairs(spec.name, pairs,
                                                        table.eids())
        outcomes[spec.name] = (pairs, comparisons,
                               partition(cluster_sets[spec.name]))
    return outcomes


def reference_incremental(config: SxnmConfig, batches, window: int,
                          compared: list | None = None):
    """The historical IncrementalSxnm loop, restated on the kernels.

    It walks every sorted key list in full on every batch; ``compared``,
    if given, receives ``(candidate, left_eid, right_eid, od,
    descendants)`` per compare call, in call order, with the verdict's
    OD and descendant similarities.
    """
    hierarchy = CandidateHierarchy(config)
    names = [spec.name for spec in config.candidates]
    tables = {spec.name: GkTable(spec.name, key_count=len(spec.keys),
                                 od_count=len(spec.ods))
              for spec in config.candidates}
    sorted_keys = {spec.name: [[] for _ in spec.keys]
                   for spec in config.candidates}
    forests = {name: UnionFind() for name in names}
    all_pairs: dict[str, set[tuple[int, int]]] = {name: set()
                                                  for name in names}
    comparisons = dict.fromkeys(names, 0)
    eid_offset = 0
    for batch in batches:
        batch_gk = generate_gk(batch, config, hierarchy)
        offset = eid_offset
        eid_offset += batch.element_count()
        new_rows: dict[str, list[GkRow]] = {}
        for name, table in batch_gk.items():
            new_rows[name] = []
            for row in table:
                children = {child: [eid + offset for eid in eids]
                            for child, eids in row.children.items()}
                shifted = GkRow(row.eid + offset, list(row.keys),
                                list(row.ods), children)
                tables[name].add(shifted)
                new_rows[name].append(shifted)
        cluster_sets: dict[str, ClusterSet] = {}
        for node in hierarchy.order:
            name = node.spec.name
            table = tables[name]
            measure = SimilarityMeasure(node.spec, config, cluster_sets)
            new_eids = {row.eid for row in new_rows[name]}
            for key_index, order in enumerate(sorted_keys[name]):
                for row in new_rows[name]:
                    entry = (row.keys[key_index], row.eid)
                    order.insert(bisect.bisect_left(order, entry), entry)
                for index, (_, eid) in enumerate(order):
                    for other_index in range(max(0, index - window + 1),
                                             index):
                        other_eid = order[other_index][1]
                        if eid not in new_eids and other_eid not in new_eids:
                            continue
                        pair = (min(other_eid, eid), max(other_eid, eid))
                        if pair in all_pairs[name]:
                            continue
                        comparisons[name] += 1
                        verdict = measure.compare(table.row(pair[0]),
                                                  table.row(pair[1]))
                        if compared is not None:
                            compared.append((name, *pair, verdict.od,
                                             verdict.descendants))
                        if verdict.is_duplicate:
                            all_pairs[name].add(pair)
            forest = forests[name]
            for eid in table.eids():
                forest.add(eid)
            for left, right in all_pairs[name]:
                forest.union(left, right)
            cluster_sets[name] = ClusterSet(name, forest.groups())
    return {name: (all_pairs[name], comparisons[name],
                   partition(ClusterSet(name, forests[name].groups())))
            for name in names}


# ---------------------------------------------------------------------------
# SxnmDetector vs the reference, across its configuration space


class TestSxnmDetectorGolden:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"decision": "combined"},
        {"use_filters": True},
        {"duplicate_elimination": True},
        {"closure_method": "quadratic"},
    ], ids=["plain", "combined", "filters", "de", "quadratic"])
    def test_movies(self, movies, kwargs):
        config = dataset1_config()
        reference = reference_sxnm(config, movies, window=6, **kwargs)
        detector = SxnmDetector(
            config,
            decision=kwargs.get("decision", "gates"),
            use_filters=kwargs.get("use_filters", False),
            duplicate_elimination=kwargs.get("duplicate_elimination", False),
            closure_method=kwargs.get("closure_method", "union_find"))
        result = detector.run(movies, window=6)
        for name, (pairs, comparisons, filtered, clusters) in reference.items():
            outcome = result.outcomes[name]
            assert outcome.pairs == pairs
            assert outcome.comparisons == comparisons
            assert outcome.filtered_comparisons == filtered
            assert partition(outcome.cluster_set) == clusters

    def test_discs_with_key_selection(self, discs):
        config = dataset2_config()
        reference = reference_sxnm(config, discs, window=8, key_selection=0)
        result = SxnmDetector(config).run(discs, window=8, key_selection=0)
        for name, (pairs, comparisons, _, clusters) in reference.items():
            assert result.outcomes[name].pairs == pairs
            assert result.outcomes[name].comparisons == comparisons
            assert partition(result.outcomes[name].cluster_set) == clusters

    def test_streaming_keygen_matches_reference(self, movies):
        config = dataset1_config()
        reference = reference_sxnm(config, movies, window=6)
        result = SxnmDetector(config, streaming_keygen=True).run(
            serialize(movies), window=6)
        for name, (pairs, comparisons, _, clusters) in reference.items():
            assert result.outcomes[name].pairs == pairs
            assert result.outcomes[name].comparisons == comparisons


class TestVariantDetectorsGolden:
    def test_adaptive(self, movies):
        config = dataset1_config()
        reference = reference_adaptive(config, movies, min_window=2,
                                       max_window=10,
                                       key_similarity_floor=0.55)
        result = AdaptiveSxnmDetector(config, min_window=2, max_window=10,
                                      key_similarity_floor=0.55).run(movies)
        for name, (pairs, comparisons, clusters) in reference.items():
            assert result.outcomes[name].pairs == pairs
            assert result.outcomes[name].comparisons == comparisons
            assert partition(result.outcomes[name].cluster_set) == clusters

    @pytest.mark.parametrize("use_filters", [True, False],
                             ids=["filtered", "unfiltered"])
    def test_dogmatix(self, discs, use_filters):
        config = dataset2_config()
        reference = reference_dogmatix(config, discs, use_filters=use_filters)
        result = DogmatixDetector(config, use_filters=use_filters).run(discs)
        for name, (pairs, comparisons, filtered, clusters) in reference.items():
            outcome = result.outcomes[name]
            assert outcome.pairs == pairs
            assert outcome.comparisons == comparisons
            assert outcome.filtered_comparisons == filtered
            assert partition(outcome.cluster_set) == clusters

    def test_topdown(self, movies):
        config = dataset1_config()
        reference = reference_topdown(config, movies, window=6)
        result = TopDownDetector(config).run(movies, window=6)
        for name, (pairs, comparisons, clusters) in reference.items():
            assert result.outcomes[name].pairs == pairs
            assert result.outcomes[name].comparisons == comparisons
            assert partition(result.outcomes[name].cluster_set) == clusters


class TestComparisonScoreGolden:
    """The comparison plane reproduces *scores*, not just decisions."""

    @staticmethod
    def naive_od(left: GkRow, right: GkRow, spec) -> float:
        """The historical per-field OD loop, restated on the registry."""
        weighted = 0.0
        total = 0.0
        for index, (_, relevance, phi) in enumerate(spec.od_items()):
            left_value = left.ods[index]
            right_value = right.ods[index]
            if left_value is None and right_value is None:
                continue
            total += relevance
            if left_value is None or right_value is None:
                continue
            weighted += relevance * get_similarity(phi)(left_value,
                                                        right_value)
        if total == 0.0:
            return 0.0
        return weighted / total

    def test_od_similarity_bitwise_equal_naive_loop(self, movies):
        config = dataset1_config()
        hierarchy = CandidateHierarchy(config)
        tables = generate_gk(movies, config, hierarchy)
        for node in hierarchy.order:
            spec = node.spec
            rows = list(tables[spec.name])[:40]
            for i, left in enumerate(rows):
                for right in rows[i + 1:]:
                    assert (od_similarity(left, right, spec)
                            == self.naive_od(left, right, spec))

    def test_filtered_verdicts_sound_and_exact_on_acceptance(self, movies):
        """Filtered verdicts: same decisions; bitwise od when accepted;
        otherwise a dominating bound of the exact od."""
        config = dataset1_config()
        hierarchy = CandidateHierarchy(config)
        tables = generate_gk(movies, config, hierarchy)
        cluster_sets: dict[str, ClusterSet] = {}
        prefiltered_total = 0
        for node in hierarchy.order:
            spec = node.spec
            table = tables[spec.name]
            plain = SimilarityMeasure(spec, config, cluster_sets)
            fast = SimilarityMeasure(spec, config, cluster_sets,
                                     use_filters=True)
            pairs: set[tuple[int, int]] = set()
            rows = list(table)
            for i, left in enumerate(rows):
                for right in rows[i + 1:]:
                    exact = plain.compare(left, right)
                    filtered = fast.compare(left, right)
                    assert filtered.is_duplicate == exact.is_duplicate
                    assert filtered.od >= exact.od
                    if filtered.is_duplicate:
                        assert filtered.od == exact.od
                        assert filtered.descendants == exact.descendants
                        pairs.add((left.eid, right.eid))
            prefiltered_total += fast.filtered_comparisons
            cluster_sets[spec.name] = ClusterSet.from_pairs(
                spec.name, pairs, table.eids())
        assert prefiltered_total > 0  # the filters actually fired

    def test_detector_filters_do_not_change_results(self, movies):
        config = dataset1_config()
        plain = SxnmDetector(config, use_filters=False).run(movies, window=6)
        fast = SxnmDetector(config, use_filters=True).run(movies, window=6)
        assert sum(outcome.filtered_comparisons
                   for outcome in fast.outcomes.values()) > 0
        for name, outcome in plain.outcomes.items():
            assert fast.outcomes[name].pairs == outcome.pairs
            assert fast.outcomes[name].comparisons == outcome.comparisons
            assert (partition(fast.outcomes[name].cluster_set)
                    == partition(outcome.cluster_set))


class TestIncrementalGolden:
    def test_single_batch_matches_from_scratch(self, movies):
        """One batch through the incremental engine == the plain detector."""
        config = dataset1_config()
        incremental = IncrementalSxnm(config, window=6)
        incremental.add_batch(movies)
        scratch = SxnmDetector(config).run(movies, window=6)
        for name in scratch.outcomes:
            assert incremental.pairs(name) == scratch.pairs(name)
            assert (incremental.comparisons(name)
                    == scratch.outcomes[name].comparisons)
            assert (partition(incremental.cluster_set(name))
                    == partition(scratch.outcomes[name].cluster_set))

    def test_batch_deltas_sum_to_totals(self):
        config = dataset1_config()
        batches = [generate_dirty_movies(25, seed=seed,
                                         profile="effectiveness")
                   for seed in (21, 22, 23)]
        incremental = IncrementalSxnm(config, window=6)
        delta_total = {}
        for batch in batches:
            for name, delta in incremental.add_batch(batch).items():
                assert delta >= 0
                delta_total[name] = delta_total.get(name, 0) + delta
        for name, total in delta_total.items():
            assert total == len(incremental.pairs(name))

    @staticmethod
    def assert_session_matches_reference(config, batches, window):
        class CompareOrder(EngineObserver):
            def __init__(self):
                self.calls = []

            def pair_compared(self, candidate, left_eid, right_eid,
                              verdict):
                self.calls.append((candidate, left_eid, right_eid,
                                   verdict.od, verdict.descendants))

        order = CompareOrder()
        incremental = IncrementalSxnm(config, window=window,
                                      observers=[order])
        for batch in batches:
            incremental.add_batch(batch)
        compared = []
        reference = reference_incremental(config, batches, window=window,
                                          compared=compared)
        for name, (pairs, comparisons, clusters) in reference.items():
            assert incremental.pairs(name) == pairs
            assert incremental.comparisons(name) == comparisons
            assert partition(incremental.cluster_set(name)) == clusters
        assert order.calls == compared
        return compared

    def test_multi_batch_matches_frozen_reference(self):
        """Three batches through IncrementalSxnm == the restated loop.

        The session visits only sort positions near new entries, yet
        makes the reference's full-walk compare calls in the same order,
        each with a bit-identical OD score.
        """
        config = dataset1_config()
        batches = [generate_dirty_movies(20, seed=seed,
                                         profile="effectiveness")
                   for seed in (31, 32, 33)]
        self.assert_session_matches_reference(config, batches, window=6)

    def test_multi_batch_with_descendants_matches_frozen_reference(self):
        """Movie/title/person batches: descendant evidence comes from the
        session's live cluster labels, whose cids are smallest eids where
        the reference's are ordinals; every verdict's descendant
        similarity is still bit-identical."""
        config = scalability_config()
        batches = [generate_dirty_movies(8, seed=seed, profile="many")
                   for seed in (41, 42, 43, 44)]
        compared = self.assert_session_matches_reference(config, batches,
                                                         window=3)
        scores = {call[4] for call in compared if call[0] == "movie"}
        assert None not in scores and len(scores) > 2


class TestParallelDetectionGolden:
    """Sharded detection is bit-identical to serial on every configuration.

    Each of the five detector configurations runs once serially and once
    with the passes sharded across worker processes
    (``SXNM_TEST_WORKERS``, default 2; CI re-runs this suite with an
    explicit worker count).  Pairs and cluster partitions must match
    exactly; comparison counts may only rise, and the rise must equal
    the recorded ``redundant_comparisons``.
    """

    WORKERS = int(os.environ.get("SXNM_TEST_WORKERS", "2"))

    @pytest.mark.parametrize("kwargs", [
        {},
        {"decision": "combined"},
        {"use_filters": True},
        {"duplicate_elimination": True},
        {"closure_method": "quadratic"},
    ], ids=["plain", "combined", "filters", "de", "quadratic"])
    def test_movies(self, movies, kwargs):
        config = dataset1_config()
        config.parallel_min_rows = 0
        common = dict(
            decision=kwargs.get("decision", "gates"),
            use_filters=kwargs.get("use_filters", False),
            duplicate_elimination=kwargs.get("duplicate_elimination", False),
            closure_method=kwargs.get("closure_method", "union_find"))
        serial = SxnmDetector(config, workers=1, **common).run(movies,
                                                               window=6)
        parallel = SxnmDetector(config, workers=self.WORKERS,
                                **common).run(movies, window=6)
        for name, outcome in serial.outcomes.items():
            sharded = parallel.outcomes[name]
            assert sharded.pairs == outcome.pairs
            assert (partition(sharded.cluster_set)
                    == partition(outcome.cluster_set))
            assert sharded.comparisons >= outcome.comparisons
            if sharded.compare_stats is not None:
                assert (sharded.comparisons - outcome.comparisons
                        == sharded.compare_stats.redundant_comparisons)

    def test_parallel_matches_frozen_reference(self, movies):
        """Transitively: sharded == serial wrapper == pre-refactor loop."""
        config = dataset1_config()
        config.parallel_min_rows = 0
        reference = reference_sxnm(config, movies, window=6)
        result = SxnmDetector(config, workers=self.WORKERS).run(movies,
                                                                window=6)
        for name, (pairs, _, _, clusters) in reference.items():
            assert result.outcomes[name].pairs == pairs
            assert partition(result.outcomes[name].cluster_set) == clusters


class TestStreamingDetectionGolden:
    """Out-of-core detection is bit-identical to the frozen references.

    Each of the five detector configurations runs once through the
    in-memory reference loop and once out-of-core (``stream=True``, a
    tiny ``spill_max_rows`` so dozens of run files really form and
    merge).  Pairs, comparison counts, and cluster partitions must match
    exactly.  Extra dimensions re-run the streamed detector from a
    file-backed source (``XmlFileSource`` — the document never
    materializes) and sharded across worker processes on the
    shared-memory plane (``SXNM_TEST_WORKERS``);
    ``SXNM_TEST_STREAM=1`` widens the file-source battery from the
    plain configuration to all five.
    """

    WORKERS = int(os.environ.get("SXNM_TEST_WORKERS", "2"))
    ALL_DIMENSIONS = os.environ.get("SXNM_TEST_STREAM") == "1"

    PARAMS = pytest.mark.parametrize("kwargs", [
        {},
        {"decision": "combined"},
        {"use_filters": True},
        {"duplicate_elimination": True},
        {"closure_method": "quadratic"},
    ], ids=["plain", "combined", "filters", "de", "quadratic"])

    @staticmethod
    def common(kwargs):
        return dict(
            decision=kwargs.get("decision", "gates"),
            use_filters=kwargs.get("use_filters", False),
            duplicate_elimination=kwargs.get("duplicate_elimination", False),
            closure_method=kwargs.get("closure_method", "union_find"))

    @PARAMS
    def test_movies(self, movies, kwargs, tmp_path):
        config = dataset1_config()
        reference = reference_sxnm(config, movies, window=6, **kwargs)
        result = SxnmDetector(config, stream=True,
                              spill_dir=str(tmp_path / "spill"),
                              spill_max_rows=7,
                              **self.common(kwargs)).run(movies, window=6)
        for name, (pairs, comparisons, filtered, clusters) in reference.items():
            outcome = result.outcomes[name]
            assert outcome.pairs == pairs
            assert outcome.comparisons == comparisons
            assert outcome.filtered_comparisons == filtered
            assert partition(outcome.cluster_set) == clusters

    @PARAMS
    def test_movies_from_file_source(self, movies, kwargs, tmp_path):
        if kwargs and not self.ALL_DIMENSIONS:
            pytest.skip("file-source battery beyond 'plain' runs under "
                        "SXNM_TEST_STREAM=1")
        from repro.core import XmlFileSource
        from repro.xmlmodel import write_file
        config = dataset1_config()
        path = tmp_path / "movies.xml"
        write_file(movies, str(path))
        reference = reference_sxnm(config, movies, window=6, **kwargs)
        result = SxnmDetector(config, stream=True,
                              spill_dir=str(tmp_path / "spill"),
                              spill_max_rows=7, **self.common(kwargs)).run(
            XmlFileSource(path), window=6)
        for name, (pairs, comparisons, _, clusters) in reference.items():
            assert result.outcomes[name].pairs == pairs
            assert result.outcomes[name].comparisons == comparisons
            assert partition(result.outcomes[name].cluster_set) == clusters

    @PARAMS
    def test_movies_with_parallel_plane(self, movies, kwargs, tmp_path):
        config = dataset1_config()
        config.parallel_min_rows = 0
        serial = SxnmDetector(config, stream=True,
                              spill_dir=str(tmp_path / "spill-serial"),
                              spill_max_rows=7,
                              **self.common(kwargs)).run(movies, window=6)
        sharded = SxnmDetector(config, stream=True, workers=self.WORKERS,
                               spill_dir=str(tmp_path / "spill-sharded"),
                               spill_max_rows=7,
                               **self.common(kwargs)).run(movies, window=6)
        for name, outcome in serial.outcomes.items():
            other = sharded.outcomes[name]
            assert other.pairs == outcome.pairs
            assert (partition(other.cluster_set)
                    == partition(outcome.cluster_set))
            assert other.comparisons >= outcome.comparisons

    def test_discs_with_key_selection(self, discs, tmp_path):
        config = dataset2_config()
        reference = reference_sxnm(config, discs, window=8, key_selection=0)
        result = SxnmDetector(config, stream=True,
                              spill_dir=str(tmp_path / "spill"),
                              spill_max_rows=16).run(discs, window=8,
                                                     key_selection=0)
        for name, (pairs, comparisons, _, clusters) in reference.items():
            assert result.outcomes[name].pairs == pairs
            assert result.outcomes[name].comparisons == comparisons
            assert partition(result.outcomes[name].cluster_set) == clusters

    def test_observer_sees_spill_and_merge_events(self, movies, tmp_path):
        from repro.core import CounterObserver
        observer = CounterObserver()
        SxnmDetector(dataset1_config(), stream=True,
                     spill_dir=str(tmp_path / "spill"), spill_max_rows=7,
                     observers=[observer]).run(movies, window=6)
        assert observer.counts.get("run_spilled", 0) > 0
        assert observer.counts.get("run_merged", 0) > 0
        assert observer.counts.get("spill_runs_written", 0) > 0
        assert observer.counts.get("spill_runs_merged", 0) > 0


class TestWarmCacheGolden:
    """Persistent-φ-cache detection is bit-identical to cacheless detection.

    Each of the five detector configurations runs twice against the
    *same* persistent cache directory — run 1 cold (it writes the
    segment), run 2 warm (it serves every exact φ from disk) — plus a
    no-cache baseline.  All three must agree exactly on pairs,
    comparison counts, and cluster partitions, and the warm run must
    actually hit the disk (otherwise this test guards nothing).
    """

    @pytest.mark.parametrize("kwargs", [
        {},
        {"decision": "combined"},
        {"use_filters": True},
        {"duplicate_elimination": True},
        {"closure_method": "quadratic"},
    ], ids=["plain", "combined", "filters", "de", "quadratic"])
    def test_movies(self, movies, kwargs, tmp_path):
        config = dataset1_config()
        common = dict(
            decision=kwargs.get("decision", "gates"),
            use_filters=kwargs.get("use_filters", False),
            duplicate_elimination=kwargs.get("duplicate_elimination", False),
            closure_method=kwargs.get("closure_method", "union_find"))
        cache_dir = str(tmp_path / "phi-cache")
        baseline = SxnmDetector(config, **common).run(movies, window=6)
        cold = SxnmDetector(dataset1_config(), phi_cache_dir=cache_dir,
                            **common).run(movies, window=6)
        warm = SxnmDetector(dataset1_config(), phi_cache_dir=cache_dir,
                            **common).run(movies, window=6)
        for name, outcome in baseline.outcomes.items():
            for run in (cold, warm):
                other = run.outcomes[name]
                assert other.pairs == outcome.pairs
                assert other.comparisons == outcome.comparisons
                assert (partition(other.cluster_set)
                        == partition(outcome.cluster_set))
        cold_stats = [o.compare_stats for o in cold.outcomes.values()
                      if o.compare_stats is not None]
        warm_stats = [o.compare_stats for o in warm.outcomes.values()
                      if o.compare_stats is not None]
        assert sum(s.phi_cache_spilled for s in cold_stats) > 0
        assert sum(s.phi_cache_disk_hits for s in warm_stats) > 0
        assert sum(s.phi_cache_spilled for s in warm_stats) == 0


class TestStrategyGolden:
    """Union(window + blocking + LSH) against the window-only goldens.

    Each of the five detector configurations runs once through the
    frozen window-only reference loop and once with the union
    neighborhood (window + exact-key + composite + MinHash/LSH).  The
    union's confirmed pairs must be a superset of the reference's, its
    cluster partition a *coarsening* of the reference partition (the
    closure of a pair superset can only merge clusters, never split
    them), and the per-strategy ``compared`` counters must sum exactly
    to its total comparisons.  A union whose only member is the window
    must stay bit-identical to the plain detector — pairs, comparison
    counts, filtered counts, and partitions.  ``SXNM_TEST_STRATEGY=1``
    widens both batteries from the plain configuration to all five;
    the sharded dimension honors ``SXNM_TEST_WORKERS``.
    """

    WORKERS = int(os.environ.get("SXNM_TEST_WORKERS", "2"))
    ALL_DIMENSIONS = os.environ.get("SXNM_TEST_STRATEGY") == "1"

    STRATEGIES = ["window", "exact-key", "composite",
                  "minhash-lsh:hashes=32,bands=8,seed=3"]

    PARAMS = pytest.mark.parametrize("kwargs", [
        {},
        {"decision": "combined"},
        {"use_filters": True},
        {"duplicate_elimination": True},
        {"closure_method": "quadratic"},
    ], ids=["plain", "combined", "filters", "de", "quadratic"])

    @staticmethod
    def common(kwargs):
        return dict(
            decision=kwargs.get("decision", "gates"),
            use_filters=kwargs.get("use_filters", False),
            duplicate_elimination=kwargs.get("duplicate_elimination", False),
            closure_method=kwargs.get("closure_method", "union_find"))

    @staticmethod
    def assert_coarsens(fine, coarse):
        """Every cluster of ``fine`` sits inside one ``coarse`` cluster."""
        for cluster in fine:
            assert any(cluster <= other for other in coarse), \
                f"cluster {set(cluster)} split by the union partition"

    def _skip_unless_all(self, kwargs):
        if kwargs and not self.ALL_DIMENSIONS:
            pytest.skip("strategy battery beyond 'plain' runs under "
                        "SXNM_TEST_STRATEGY=1")

    @PARAMS
    def test_union_supersets_window_reference(self, movies, kwargs):
        self._skip_unless_all(kwargs)
        config = dataset1_config()
        reference = reference_sxnm(config, movies, window=6, **kwargs)
        result = SxnmDetector(config, strategies=self.STRATEGIES,
                              **self.common(kwargs)).run(movies, window=6)
        for name, (pairs, _, _, clusters) in reference.items():
            outcome = result.outcomes[name]
            assert outcome.pairs >= pairs
            self.assert_coarsens(clusters, partition(outcome.cluster_set))
            counters = outcome.compare_stats.strategy_counters
            assert set(counters) == {"window", "exact-key", "composite",
                                     "minhash-lsh"}
            assert sum(slot["compared"] for slot in counters.values()) \
                == outcome.comparisons

    @PARAMS
    def test_window_only_union_is_bit_identical(self, movies, kwargs):
        self._skip_unless_all(kwargs)
        config = dataset1_config()
        reference = reference_sxnm(config, movies, window=6, **kwargs)
        result = SxnmDetector(config, strategies=["window"],
                              **self.common(kwargs)).run(movies, window=6)
        for name, (pairs, comparisons, filtered, clusters) in reference.items():
            outcome = result.outcomes[name]
            assert outcome.pairs == pairs
            assert outcome.comparisons == comparisons
            assert outcome.filtered_comparisons == filtered
            assert partition(outcome.cluster_set) == clusters

    @PARAMS
    def test_union_with_parallel_plane(self, movies, kwargs):
        self._skip_unless_all(kwargs)
        config = dataset1_config()
        config.parallel_min_rows = 0
        serial = SxnmDetector(config, strategies=self.STRATEGIES,
                              **self.common(kwargs)).run(movies, window=6)
        sharded = SxnmDetector(config, strategies=self.STRATEGIES,
                               workers=self.WORKERS,
                               **self.common(kwargs)).run(movies, window=6)
        for name, outcome in serial.outcomes.items():
            other = sharded.outcomes[name]
            assert other.pairs == outcome.pairs
            # Pair shards are disjoint, so unlike sharded window passes
            # the comparison counts (and attributions) match exactly.
            assert other.comparisons == outcome.comparisons
            assert (other.compare_stats.strategy_counters
                    == outcome.compare_stats.strategy_counters)
            assert (partition(other.cluster_set)
                    == partition(outcome.cluster_set))


class TestDecisionGolden:
    """Degenerate three-way decisions are bit-identical to the plain policy.

    A :class:`~repro.decision.ThreeWayPolicy` with no calibration
    collapses to a zero-width REVIEW band at the configured threshold —
    the banding layer then must be pure bookkeeping: pairs, comparison
    counts, filtered counts, and cluster partitions bit-identical to the
    frozen pre-refactor references, with every confirmed pair accounted
    AUTO_DUP and nothing in REVIEW.  Extra dimensions re-run the
    degenerate policy sharded across worker processes on the
    shared-memory plane and out-of-core (``stream=True``).
    ``SXNM_TEST_DECISION=1`` widens all three batteries from the plain
    configuration to all five.
    """

    WORKERS = int(os.environ.get("SXNM_TEST_WORKERS", "2"))
    ALL_DIMENSIONS = os.environ.get("SXNM_TEST_DECISION") == "1"

    PARAMS = pytest.mark.parametrize("kwargs", [
        {},
        {"decision": "combined"},
        {"use_filters": True},
        {"duplicate_elimination": True},
        {"closure_method": "quadratic"},
    ], ids=["plain", "combined", "filters", "de", "quadratic"])

    @staticmethod
    def common(kwargs):
        return dict(
            decision=kwargs.get("decision", "gates"),
            use_filters=kwargs.get("use_filters", False),
            duplicate_elimination=kwargs.get("duplicate_elimination", False),
            closure_method=kwargs.get("closure_method", "union_find"))

    def _skip_unless_all(self, kwargs):
        if kwargs and not self.ALL_DIMENSIONS:
            pytest.skip("decision battery beyond 'plain' runs under "
                        "SXNM_TEST_DECISION=1")

    @PARAMS
    def test_movies(self, movies, kwargs):
        self._skip_unless_all(kwargs)
        config = dataset1_config()
        reference = reference_sxnm(config, movies, window=6, **kwargs)
        result = SxnmDetector(config, decision_mode="three-way",
                              **self.common(kwargs)).run(movies, window=6)
        for name, (pairs, comparisons, filtered, clusters) in reference.items():
            outcome = result.outcomes[name]
            assert outcome.pairs == pairs
            assert outcome.comparisons == comparisons
            assert outcome.filtered_comparisons == filtered
            assert partition(outcome.cluster_set) == clusters
            stats = outcome.compare_stats
            assert stats.pairs_auto_dup == len(pairs)
            assert stats.pairs_review == 0

    @PARAMS
    def test_movies_with_parallel_plane(self, movies, kwargs):
        self._skip_unless_all(kwargs)
        config = dataset1_config()
        config.parallel_min_rows = 0
        threshold = SxnmDetector(config, workers=self.WORKERS,
                                 **self.common(kwargs)).run(movies, window=6)
        three_way = SxnmDetector(config, decision_mode="three-way",
                                 workers=self.WORKERS,
                                 **self.common(kwargs)).run(movies, window=6)
        for name, outcome in threshold.outcomes.items():
            other = three_way.outcomes[name]
            assert other.pairs == outcome.pairs
            assert other.comparisons == outcome.comparisons
            assert (partition(other.cluster_set)
                    == partition(outcome.cluster_set))

    @PARAMS
    def test_movies_streaming(self, movies, kwargs, tmp_path):
        self._skip_unless_all(kwargs)
        config = dataset1_config()
        reference = reference_sxnm(config, movies, window=6, **kwargs)
        result = SxnmDetector(config, decision_mode="three-way", stream=True,
                              spill_dir=str(tmp_path / "spill"),
                              spill_max_rows=7,
                              **self.common(kwargs)).run(movies, window=6)
        for name, (pairs, comparisons, filtered, clusters) in reference.items():
            outcome = result.outcomes[name]
            assert outcome.pairs == pairs
            assert outcome.comparisons == comparisons
            assert outcome.filtered_comparisons == filtered
            assert partition(outcome.cluster_set) == clusters

"""Unit tests for cluster sets (Def. 1) and the live cluster labels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterSet, LiveClosure
from repro.core.clusters import ClusterLabels


class TestClusterSet:
    def test_from_pairs_closure(self):
        cs = ClusterSet.from_pairs("person", [(1, 2), (2, 3)], [1, 2, 3, 4])
        assert len(cs) == 2
        assert cs.cluster_of(1) == [1, 2, 3]
        assert cs.cluster_of(4) == [4]

    def test_cid_unique_per_cluster(self):
        cs = ClusterSet.from_pairs("person", [(1, 2)], [1, 2, 3])
        assert cs.cid(1) == cs.cid(2)
        assert cs.cid(1) != cs.cid(3)

    def test_every_instance_in_exactly_one_cluster(self):
        cs = ClusterSet.from_pairs("x", [(0, 1), (2, 3)], range(5))
        assert sorted(cs.members()) == [0, 1, 2, 3, 4]
        flattened = sorted(eid for cluster in cs for eid in cluster)
        assert flattened == [0, 1, 2, 3, 4]

    def test_unknown_eid(self):
        cs = ClusterSet.from_pairs("x", [], [1])
        with pytest.raises(KeyError, match="not a known instance"):
            cs.cid(9)

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            ClusterSet("x", [[1, 2], [2, 3]])

    def test_duplicate_clusters_filter(self):
        cs = ClusterSet.from_pairs("x", [(0, 1)], range(4))
        assert cs.duplicate_clusters() == [[0, 1]]

    def test_duplicate_pair_count(self):
        cs = ClusterSet("x", [[0, 1, 2], [3], [4, 5]])
        assert cs.duplicate_pair_count() == 3 + 0 + 1

    def test_as_pairs(self):
        cs = ClusterSet("x", [[0, 1, 2], [3]])
        assert cs.as_pairs() == {(0, 1), (0, 2), (1, 2)}

    def test_cluster_ids_stable_by_smallest_eid(self):
        cs = ClusterSet("x", [[5, 6], [0, 1]])
        assert cs.cid(0) == 0
        assert cs.cid(5) == 1


class TestClusterLabels:
    def test_labels_are_smallest_eids(self):
        labels = ClusterLabels([7, 3, 9, 5])
        labels.union(9, 5)
        labels.union(7, 9)
        snapshot = labels.snapshot("x")
        assert [snapshot.cid(eid) for eid in (3, 5, 7, 9)] == [3, 5, 5, 5]
        assert list(snapshot) == [[3], [5, 7, 9]]
        assert snapshot.cluster_of(9) == [5, 7, 9]

    def test_smaller_cluster_holding_the_smallest_eid(self):
        labels = ClusterLabels(range(1, 6))
        for eid in (3, 4, 5):
            labels.union(2, eid)
        labels.union(5, 1)  # {1} joins {2, 3, 4, 5}: all four relabel
        snapshot = labels.snapshot("x")
        assert {snapshot.cid(eid) for eid in range(1, 6)} == {1}
        assert list(snapshot) == [[1, 2, 3, 4, 5]]


#: One batch: how many new eids it registers, then pairs drawn over
#: every eid registered so far (as indices, resolved per batch).
batches = st.lists(
    st.tuples(st.integers(0, 4),
              st.lists(st.tuples(st.integers(0, 10 ** 6),
                                 st.integers(0, 10 ** 6)), max_size=5)),
    min_size=1, max_size=8)


class TestLiveClosureDifferential:
    """:class:`LiveClosure` fed batch by batch against a from-scratch
    :meth:`ClusterSet.from_pairs` over everything so far."""

    @staticmethod
    def cids(cluster_set, eids):
        return {eid: cluster_set.cid(eid) for eid in eids}

    @given(batches=batches, gaps=st.lists(st.integers(1, 3), min_size=40,
                                          max_size=40))
    @settings(max_examples=200)
    def test_batches_match_closure_from_scratch(self, batches, gaps):
        closure = LiveClosure()
        eids: list[int] = []
        pairs: set[tuple[int, int]] = set()
        snapshots = []
        for new_count, drawn in batches:
            new_eids = []
            for _ in range(new_count):
                eid = (eids[-1] if eids else 0) + gaps[len(eids)]
                new_eids.append(eid)
                eids.append(eid)
            batch_pairs = []
            for left, right in drawn if eids else ():
                left, right = eids[left % len(eids)], eids[right % len(eids)]
                if left != right:
                    batch_pairs.append((min(left, right), max(left, right)))
            pairs.update(batch_pairs)

            snapshot = closure.close("item", batch_pairs, new_eids)
            reference = ClusterSet.from_pairs("item", pairs, eids)
            clusters = list(map(list, reference))
            smallest = {eid: cluster[0] for cluster in clusters
                        for eid in cluster}
            # Read through cid alone: the snapshot's cluster list is
            # built only at the end, after every later batch.
            assert self.cids(snapshot, eids) == smallest
            for left in eids:
                for right in eids:
                    assert ((snapshot.cid(left) == snapshot.cid(right))
                            == (reference.cid(left) == reference.cid(right)))
            with pytest.raises(KeyError, match="not a known instance"):
                snapshot.cid((eids[-1] if eids else 0) + 1)
            snapshots.append((snapshot, clusters, smallest))
            for earlier, _, earlier_smallest in snapshots:
                assert self.cids(earlier, earlier_smallest) == earlier_smallest

            live = closure.labels("item").snapshot("item")
            assert list(map(list, live)) == clusters
            rebuilt = LiveClosure()
            rebuilt.rebuild("item", eids, pairs)
            again = rebuilt.labels("item").snapshot("item")
            assert list(map(list, again)) == clusters
            assert self.cids(again, eids) == smallest

        for snapshot, clusters, _ in snapshots:
            assert list(map(list, snapshot)) == clusters

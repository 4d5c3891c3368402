"""Cluster sets — Def. 1 of the paper.

A :class:`ClusterSet` for candidate *s* partitions every instance of *s*
into clusters, each representing one real-world object and carrying a
unique cluster id.  ``cid(eid)`` is the paper's *cid* function, used by
the descendant similarity of ancestor candidates.

:class:`ClusterLabels` is the live form an incremental session keeps: it
grows by instances and confirmed pairs, and hands out
:class:`ClusterSet` snapshots without re-partitioning the session.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from ..clustering import UnionFind, quadratic_transitive_closure


class ClusterSet:
    """Partition of candidate-instance eids into duplicate clusters.

    A set built from cluster lists numbers its clusters 0, 1, … in the
    order of their smallest eids.  A set built :meth:`from_labels` uses
    each cluster's smallest eid as its cid instead.  The two numberings
    order clusters alike, so every descendant similarity (Def. 3), and
    every sorted list of cids, agrees up to the renaming.
    """

    def __init__(self, candidate_name: str, clusters: list[list[int]]):
        self.candidate_name = candidate_name
        self._labelled = False
        self._clusters = [sorted(cluster) for cluster in clusters]
        self._clusters.sort(key=lambda cluster: cluster[0])
        self._cid_by_eid: dict[int, int] = {}
        for cluster_id, cluster in enumerate(self._clusters):
            for eid in cluster:
                if eid in self._cid_by_eid:
                    raise ValueError(
                        f"CS_{candidate_name}: eid {eid} appears in two clusters")
                self._cid_by_eid[eid] = cluster_id

    @classmethod
    def from_labels(cls, candidate_name: str,
                    labels: dict[int, int]) -> ClusterSet:
        """A cluster set over ``labels``, eid → smallest eid of its cluster.

        The set keeps ``labels`` as its cid map, so callers hand over a
        copy they no longer change; the sorted cluster list is built
        only when the set is first iterated.
        """
        cluster_set = cls.__new__(cls)
        cluster_set.candidate_name = candidate_name
        cluster_set._labelled = True
        cluster_set._clusters = None
        cluster_set._cid_by_eid = labels
        return cluster_set

    @classmethod
    def from_pairs(cls, candidate_name: str,
                   pairs: Iterable[tuple[int, int]],
                   universe: Iterable[int],
                   method: str = "union_find") -> ClusterSet:
        """Build via transitive closure over duplicate ``pairs``.

        ``universe`` must list every instance eid; unpaired instances
        become singleton clusters (Def. 1: "each instance of s belongs to
        exactly one cluster").  ``method`` selects the closure algorithm:
        ``"union_find"`` (near-linear, default) or ``"quadratic"`` (the
        2006-era repeated-merge algorithm used to reproduce the paper's
        Fig. 5 TC curves).
        """
        if method == "quadratic":
            return cls(candidate_name,
                       quadratic_transitive_closure(pairs, universe))
        if method != "union_find":
            raise ValueError(f"unknown closure method {method!r}")
        forest = UnionFind(universe)
        for left, right in pairs:
            forest.union(left, right)
        return cls(candidate_name, forest.groups())

    @property
    def clusters(self) -> list[list[int]]:
        """The clusters, each sorted, in the order of their smallest eids."""
        if self._clusters is None:
            groups: dict[int, list[int]] = {}
            for eid, label in self._cid_by_eid.items():
                groups.setdefault(label, []).append(eid)
            self._clusters = [sorted(groups[label]) for label in sorted(groups)]
        return self._clusters

    def cid(self, eid: int) -> int:
        """Unique cluster id of the cluster containing ``eid``: its
        ordinal, or its smallest eid in a set built from labels."""
        try:
            return self._cid_by_eid[eid]
        except KeyError:
            raise KeyError(
                f"CS_{self.candidate_name}: eid {eid} is not a known instance"
            ) from None

    def cluster_of(self, eid: int) -> list[int]:
        """All member eids of the cluster containing ``eid``."""
        position = self.cid(eid)
        if self._labelled:
            # The label is the cluster's first member, and clusters are
            # sorted by it.
            position = bisect.bisect_left(self.clusters, [position])
        return list(self.clusters[position])

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def members(self) -> list[int]:
        """All instance eids (every instance appears exactly once)."""
        return sorted(self._cid_by_eid)

    def duplicate_clusters(self) -> list[list[int]]:
        """Only the clusters with two or more members."""
        return [list(cluster) for cluster in self.clusters if len(cluster) > 1]

    def duplicate_pair_count(self) -> int:
        """Number of unordered duplicate pairs implied by the clusters."""
        return sum(len(c) * (len(c) - 1) // 2 for c in self.clusters)

    def as_pairs(self) -> set[tuple[int, int]]:
        """All unordered duplicate pairs implied by the clusters."""
        pairs: set[tuple[int, int]] = set()
        for cluster in self.clusters:
            for i, left in enumerate(cluster):
                for right in cluster[i + 1:]:
                    pairs.add((left, right))
        return pairs


class ClusterLabels:
    """Live Def. 1 cluster state that grows by instances and pairs.

    Every instance maps to the smallest eid of its cluster, and each
    cluster of two or more keeps its member list.  A union relabels the
    members of the cluster whose smallest eid is the larger, and moves
    the shorter member list onto the longer.  In an incremental session
    eids grow batch by batch, so the relabelled cluster is the newer
    one: as a rule the batch's own few rows.  :meth:`snapshot` copies
    the label map at C speed, so a snapshot costs no Python work per
    instance until it is iterated.

    Labels are a function of the partition alone: any order of the same
    ``add`` and ``union`` calls leaves the same map, which is what makes
    a rebuild from restored eids and pairs equal the maintained state.
    """

    def __init__(self, universe: Iterable[int] = (),
                 pairs: Iterable[tuple[int, int]] = ()):
        self._labels: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}
        self.add(universe)
        for left, right in pairs:
            self.union(left, right)

    def add(self, eids: Iterable[int]) -> None:
        """Register each of ``eids`` as a singleton (idempotent)."""
        setdefault = self._labels.setdefault
        for eid in eids:
            setdefault(eid, eid)

    def union(self, left: int, right: int) -> None:
        """Merge the clusters of ``left`` and ``right`` (adds them if new)."""
        labels = self._labels
        keep = labels.setdefault(left, left)
        move = labels.setdefault(right, right)
        if keep == move:
            return
        if move < keep:
            keep, move = move, keep
        members = self._members
        moved = members.pop(move, None) or [move]
        for eid in moved:
            labels[eid] = keep
        kept = members.get(keep) or [keep]
        if len(kept) < len(moved):
            kept, moved = moved, kept
        kept.extend(moved)
        members[keep] = kept

    def snapshot(self, candidate_name: str) -> ClusterSet:
        """The current partition as a :class:`ClusterSet` that later
        ``add`` and ``union`` calls leave unchanged."""
        return ClusterSet.from_labels(candidate_name, self._labels.copy())

"""Equational theory for XML elements (paper Sec. 5 outlook).

The relational SNM classifies with an *equational theory* — domain rules
such as "duplicates iff the names are very similar AND (the address
matches OR the phone matches)".  The paper states SXNM "is ready for the
usage of equational theory"; this module supplies it.

An :class:`XmlEquationalTheory` is a boolean combination of atomic
conditions over a candidate's OD paths and its descendant overlap::

    theory = XmlEquationalTheory(
        require=[OdCondition("title/text()", "edit", 0.85)],
        alternatives=[OdCondition("@year", "exact", 1.0),
                      DescendantsCondition("person", 0.5)])

A pair is a duplicate iff every ``require`` condition holds and (when
``alternatives`` is non-empty) at least one alternative holds.  Plug a
theory into :class:`~repro.core.SxnmDetector` via ``theory={"movie":
theory}`` — candidates without a theory keep the threshold decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CandidateSpec
from ..errors import DetectionError
from ..similarity import get_similarity, jaccard
from .clusters import ClusterSet
from .gk import GkRow


@dataclass(frozen=True)
class OdCondition:
    """Atomic condition on one OD path: φ(left, right) ≥ ``at_least``.

    ``rel_path`` must be one of the candidate's OD paths (matched by its
    string form).  ``missing_matches`` controls pairs where either side
    lacks the value (default: condition fails).
    """

    rel_path: str
    phi: str = "edit"
    at_least: float = 0.8
    missing_matches: bool = False

    def holds(self, left: GkRow, right: GkRow, spec: CandidateSpec) -> bool:
        index = _od_index(spec, self.rel_path)
        left_value = left.ods[index]
        right_value = right.ods[index]
        if left_value is None or right_value is None:
            return self.missing_matches
        return get_similarity(self.phi)(left_value, right_value) >= self.at_least


@dataclass(frozen=True)
class DescendantsCondition:
    """Atomic condition on descendant overlap of one candidate type.

    Jaccard over the two elements' cluster-id lists for ``candidate``
    must reach ``at_least``.  Pairs where neither side has descendants of
    the type satisfy the condition iff ``empty_matches``.
    """

    candidate: str
    at_least: float = 0.3
    empty_matches: bool = True

    def holds(self, left: GkRow, right: GkRow,
              cluster_sets: dict[str, ClusterSet]) -> bool:
        left_children = left.children.get(self.candidate, [])
        right_children = right.children.get(self.candidate, [])
        if not left_children and not right_children:
            return self.empty_matches
        if self.candidate not in cluster_sets:
            raise DetectionError(
                f"descendant candidate {self.candidate!r} has no cluster set "
                f"yet; bottom-up order violated")
        cluster_set = cluster_sets[self.candidate]
        left_ids = [cluster_set.cid(eid) for eid in left_children]
        right_ids = [cluster_set.cid(eid) for eid in right_children]
        return jaccard(left_ids, right_ids) >= self.at_least


Condition = OdCondition | DescendantsCondition


def _od_index(spec: CandidateSpec, rel_path: str) -> int:
    for index, (path, _, _) in enumerate(spec.od_items()):
        if str(path) == rel_path:
            return index
    known = [str(path) for path, _, _ in spec.od_items()]
    raise DetectionError(
        f"candidate {spec.name!r} has no OD path {rel_path!r}; known: {known}")


class XmlEquationalTheory:
    """AND over ``require``, then OR over ``alternatives`` (if any)."""

    def __init__(self, require: list[Condition] | None = None,
                 alternatives: list[Condition] | None = None):
        self.require = list(require or [])
        self.alternatives = list(alternatives or [])
        if not self.require and not self.alternatives:
            raise DetectionError("an equational theory needs conditions")

    def __repr__(self) -> str:
        return (f"XmlEquationalTheory(require={self.require!r}, "
                f"alternatives={self.alternatives!r})")

    def _holds(self, condition: Condition, left: GkRow, right: GkRow,
               spec: CandidateSpec,
               cluster_sets: dict[str, ClusterSet]) -> bool:
        if isinstance(condition, OdCondition):
            return condition.holds(left, right, spec)
        return condition.holds(left, right, cluster_sets)

    def decide(self, left: GkRow, right: GkRow, spec: CandidateSpec,
               cluster_sets: dict[str, ClusterSet]) -> bool:
        """True iff the theory classifies the pair as duplicates."""
        for condition in self.require:
            if not self._holds(condition, left, right, spec, cluster_sets):
                return False
        if self.alternatives:
            return any(self._holds(condition, left, right, spec, cluster_sets)
                       for condition in self.alternatives)
        return True

"""Duplicate-Elimination SNM (DE-SNM).

Hernández' thesis variant (paper ref [19], mentioned in the outlook):
records whose generated keys are *exactly equal* are pulled aside before
windowing.  Equal-key records are matched pairwise immediately (they are
the cheapest duplicates to confirm), and only one representative per key
group enters the sliding window.  With heavily duplicated data the
windowed list shrinks substantially, saving comparisons; confirmed pairs
from both stages are unioned before transitive closure.
"""

from __future__ import annotations

import time

from ..clustering import transitive_closure
from ..core.execution import match_classifier
from ..core.window import slide
from .matchers import Matcher
from .record import Relation
from .snm import RelationalKey, SnmResult


def duplicate_elimination_snm(relation: Relation, keys: list[RelationalKey],
                              matcher: Matcher, window: int = 5,
                              trust_equal_keys: bool = False) -> SnmResult:
    """Run DE-SNM over ``relation``.

    Parameters
    ----------
    trust_equal_keys:
        When true, records sharing an identical non-empty key are declared
        duplicates without consulting ``matcher`` (the aggressive variant);
        when false the matcher confirms every pair (safer with weak keys).
    """
    if not keys:
        raise ValueError("at least one key is required")
    if window < 2:
        raise ValueError("window size must be >= 2")

    result = SnmResult()
    all_rids = [record.rid for record in relation]

    for key in keys:
        start = time.perf_counter()
        by_key: dict[str, list[int]] = {}
        for rid in all_rids:
            by_key.setdefault(key.generate(relation[rid]), []).append(rid)
        sorted_keys = sorted(by_key)
        result.key_generation_seconds += time.perf_counter() - start

        start = time.perf_counter()
        # Stage 1: equal-key groups.
        for key_value, group in by_key.items():
            if len(group) < 2:
                continue
            anchor = group[0]
            for rid in group[1:]:
                if key_value and trust_equal_keys:
                    result.pairs.add((min(anchor, rid), max(anchor, rid)))
                    continue
                result.comparisons += 1
                if matcher(relation[anchor], relation[rid]):
                    result.pairs.add((min(anchor, rid), max(anchor, rid)))

        # Stage 2: window over one representative per key value.
        representatives = [relation[by_key[key_value][0]]
                           for key_value in sorted_keys]
        result.comparisons += slide(representatives, window,
                                    match_classifier(matcher), result.pairs,
                                    skip_known=False)
        result.window_seconds += time.perf_counter() - start

    start = time.perf_counter()
    result.clusters = transitive_closure(result.pairs, all_rids)
    result.closure_seconds = time.perf_counter() - start
    return result

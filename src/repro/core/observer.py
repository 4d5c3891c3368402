"""Instrumentation hooks for the detection engine.

An :class:`EngineObserver` receives the engine's life-cycle events —
run/phase/candidate/pass started and finished, every pair compared,
filtered, or confirmed, plus warnings — and replaces the ad-hoc
``time.perf_counter()`` plumbing the detector variants used to carry.
All methods are no-ops on the base class, so observers override only
what they care about.

Event order within one run::

    run_started
      phase_started("KG") … phase_finished("KG")
      candidate_started(name)                # bottom-up (or top-down) order
        phase_started("SW", name)
          pass_started(name, key_index)      # strategies with key passes
            pass_dispatched(name, key_index, shards)   # parallel strategies
            pair_compared / pair_filtered / pair_confirmed …
            pass_merged(name, key_index, comparisons, redundant)
          pass_finished(name, key_index)
        phase_finished("SW", name)
        phase_started("TC", name) … phase_finished("TC", name)
      candidate_finished(name, outcome)
    run_finished(result)

The engine pays for instrumentation only when observers are attached:
without any, the comparison hot path runs the raw decision callable.
"""

from __future__ import annotations

from ..similarity import ComparisonStats
from .results import CandidateOutcome, PhaseTimings, SxnmResult

# Phase names (paper Fig. 5): key generation, sliding window, closure.
PHASE_KEY_GENERATION = "KG"
PHASE_WINDOW = "SW"
PHASE_CLOSURE = "TC"


class EngineObserver:
    """Base observer: every hook is a no-op.  Subclass and override."""

    def run_started(self) -> None:
        """A detection run is beginning (before key generation)."""

    def run_finished(self, result: SxnmResult) -> None:
        """The run completed; ``result`` is fully populated."""

    def phase_started(self, phase: str, candidate: str | None = None) -> None:
        """Phase ``phase`` ("KG"/"SW"/"TC") began.

        ``candidate`` is ``None`` for the run-wide KG phase and the
        candidate name for the per-candidate SW and TC phases.
        """

    def phase_finished(self, phase: str, seconds: float,
                       candidate: str | None = None) -> None:
        """Phase ``phase`` ended after ``seconds`` of wall-clock time."""

    def candidate_started(self, candidate: str, instances: int) -> None:
        """Detection for ``candidate`` (``instances`` GK rows) began."""

    def candidate_finished(self, candidate: str,
                           outcome: CandidateOutcome) -> None:
        """Detection for ``candidate`` ended with ``outcome``."""

    def pass_started(self, candidate: str, key_index: int) -> None:
        """A neighborhood pass over key ``key_index`` began."""

    def pass_finished(self, candidate: str, key_index: int,
                      comparisons: int) -> None:
        """The pass over key ``key_index`` made ``comparisons`` comparisons."""

    def pass_dispatched(self, candidate: str, key_index: int,
                        shards: int) -> None:
        """The pass was sharded into ``shards`` parallel worker tasks.

        Emitted (between ``pass_started`` and ``pass_merged``) only by
        parallel neighborhood strategies; worker processes do not emit
        per-pair events.
        """

    def pass_merged(self, candidate: str, key_index: int, comparisons: int,
                    redundant: int) -> None:
        """The pass's shard results were unioned in the parent.

        ``redundant`` counts confirmed pairs already known from earlier
        shards or passes — comparisons the serial ``skip_known`` path
        would have avoided.
        """

    def pair_compared(self, candidate: str, left_eid: int, right_eid: int,
                      verdict) -> None:
        """A pair was fully compared; ``verdict`` is the PairVerdict."""

    def pair_filtered(self, candidate: str, left_eid: int,
                      right_eid: int) -> None:
        """A pair was pruned by a cheap filter before full comparison."""

    def pair_confirmed(self, candidate: str, left_eid: int,
                       right_eid: int) -> None:
        """A compared pair was classified as a duplicate."""

    def comparison_stats(self, candidate: str, stats) -> None:
        """The candidate's comparison-plane counters, emitted once just
        before ``candidate_finished``.

        ``stats`` is the decider's cumulative
        :class:`~repro.similarity.plan.ComparisonStats` (φ cache
        hits/misses, filter short-circuits, fields evaluated, pruned
        pairs) for this candidate's run.  Deciders without a comparison
        plan (equational theories) emit nothing.
        """

    def plane_opened(self, plane: str, workers: int) -> None:
        """The run's execution plane was selected and opened.

        ``plane`` is the backend name ("serial" or "shm"),
        ``workers`` its worker count (1 for serial).  Emitted once per
        run, after ``run_started`` and before the first candidate.
        """

    def segment_published(self, candidate: str, segment: str,
                          nbytes: int) -> None:
        """A shared-memory segment was published for ``candidate``.

        ``segment`` is the OS-level segment name and ``nbytes`` its
        size.  Emitted only by the shared-memory plane, for candidates
        whose payload clears ``sharedMemoryMinBytes``.
        """

    def cache_loaded(self, directory: str, entries: int,
                     segments: int) -> None:
        """The persistent φ cache was opened for this run.

        ``entries`` is the number of exact scores currently visible
        (loaded from ``segments`` readable segment files, plus any still
        pending from an earlier run of the same engine).  Emitted after
        ``run_started`` whenever persistence is active, even when the
        directory was empty (``entries == 0`` → a cold start).
        """

    def cache_flushed(self, directory: str, entries: int,
                      segments: int) -> None:
        """The run's new exact φ scores were spilled to disk.

        ``entries`` counts the scores written by this flush (0 when
        nothing new was recorded or the write failed — failures also
        produce a ``warning``); ``segments`` is the store's cumulative
        segments-written count.  Emitted just before ``run_finished``.
        """

    def index_opened(self, directory: str, candidates: int,
                     segments: int) -> None:
        """A :class:`~repro.core.index.DetectionIndex` was opened.

        ``candidates`` counts candidates with committed run state in
        the index (0 → a cold index) and ``segments`` the segment files
        its manifest references.  Emitted after ``run_started``
        whenever an index directory is active; incremental sessions
        emit it once at construction.
        """

    def index_committed(self, directory: str, candidate: str | None,
                        pairs: int) -> None:
        """State was durably committed to the detection index.

        ``candidate`` names the candidate whose run state was written,
        or is ``None`` for an incremental-session commit; ``pairs``
        counts the confirmed pairs in the committed state.  Failed
        commits emit a ``warning`` instead.
        """

    def run_spilled(self, candidate: str, rows: int, runs: int) -> None:
        """Streaming key generation spilled ``candidate`` to disk runs.

        ``rows`` is the candidate's GK row count and ``runs`` the number
        of run files written (document-order plus per-key sorted).
        Emitted during the KG phase, only in out-of-core mode.
        """

    def run_merged(self, candidate: str, key_index: int, runs: int) -> None:
        """A window pass merged ``runs`` spilled runs for one key.

        Emitted (between ``pass_started`` and ``pass_finished``) by the
        disk-resident window strategy after the k-way merge for
        ``key_index`` has been fully consumed.
        """

    def strategy_pairs_generated(self, candidate: str, strategy: str,
                                 generated: int, fresh: int) -> None:
        """A union-member strategy proposed its candidate pairs.

        ``generated`` counts every pair the strategy proposed for
        ``candidate`` and ``fresh`` the subset no earlier member had
        already claimed — the pairs attributed to ``strategy`` in the
        per-strategy :class:`~repro.similarity.plan.ComparisonStats`
        counters.  Emitted once per member, in member order, before the
        unioned pair set is compared.
        """

    def decision_calibrated(self, candidate: str, calibration) -> None:
        """A three-way decision band was installed for ``candidate``.

        ``calibration`` is the
        :class:`~repro.decision.calibrate.ThreeWayCalibration` whose
        ``upper``/``lower`` bounds the candidate's decider will band
        pairs with (degenerate zero-width calibrations are emitted
        too).  Emitted once per candidate, before its first comparison;
        only by three-way policies.
        """

    def pair_demoted(self, candidate: str, left_eid: int, right_eid: int,
                     score: float) -> None:
        """An AUTO_DUP pair was demoted to REVIEW.

        The consistency pass found the pair on an anti-transitive
        duplicate chain (its closure would swallow an AUTO_KEEP pair)
        and it was the chain's weakest edge; it no longer reaches
        transitive closure.  Emitted between the neighborhood and
        closure phases, only by three-way policies with a non-degenerate
        band.
        """

    def warning(self, message: str) -> None:
        """The engine noticed something questionable but recoverable."""


class ObserverGroup(EngineObserver):
    """Fans every event out to a list of observers, in order."""

    def __init__(self, observers: list[EngineObserver]):
        self.observers = list(observers)

    def run_started(self):
        for observer in self.observers:
            observer.run_started()

    def run_finished(self, result):
        for observer in self.observers:
            observer.run_finished(result)

    def phase_started(self, phase, candidate=None):
        for observer in self.observers:
            observer.phase_started(phase, candidate)

    def phase_finished(self, phase, seconds, candidate=None):
        for observer in self.observers:
            observer.phase_finished(phase, seconds, candidate)

    def candidate_started(self, candidate, instances):
        for observer in self.observers:
            observer.candidate_started(candidate, instances)

    def candidate_finished(self, candidate, outcome):
        for observer in self.observers:
            observer.candidate_finished(candidate, outcome)

    def pass_started(self, candidate, key_index):
        for observer in self.observers:
            observer.pass_started(candidate, key_index)

    def pass_finished(self, candidate, key_index, comparisons):
        for observer in self.observers:
            observer.pass_finished(candidate, key_index, comparisons)

    def pass_dispatched(self, candidate, key_index, shards):
        for observer in self.observers:
            observer.pass_dispatched(candidate, key_index, shards)

    def pass_merged(self, candidate, key_index, comparisons, redundant):
        for observer in self.observers:
            observer.pass_merged(candidate, key_index, comparisons, redundant)

    def pair_compared(self, candidate, left_eid, right_eid, verdict):
        for observer in self.observers:
            observer.pair_compared(candidate, left_eid, right_eid, verdict)

    def pair_filtered(self, candidate, left_eid, right_eid):
        for observer in self.observers:
            observer.pair_filtered(candidate, left_eid, right_eid)

    def pair_confirmed(self, candidate, left_eid, right_eid):
        for observer in self.observers:
            observer.pair_confirmed(candidate, left_eid, right_eid)

    def comparison_stats(self, candidate, stats):
        for observer in self.observers:
            observer.comparison_stats(candidate, stats)

    def plane_opened(self, plane, workers):
        for observer in self.observers:
            # getattr-guarded: observers written before the plane events
            # existed (duck-typed, not subclassing EngineObserver) keep
            # working.
            hook = getattr(observer, "plane_opened", None)
            if hook is not None:
                hook(plane, workers)

    def segment_published(self, candidate, segment, nbytes):
        for observer in self.observers:
            hook = getattr(observer, "segment_published", None)
            if hook is not None:
                hook(candidate, segment, nbytes)

    def cache_loaded(self, directory, entries, segments):
        for observer in self.observers:
            observer.cache_loaded(directory, entries, segments)

    def cache_flushed(self, directory, entries, segments):
        for observer in self.observers:
            observer.cache_flushed(directory, entries, segments)

    def index_opened(self, directory, candidates, segments):
        for observer in self.observers:
            hook = getattr(observer, "index_opened", None)
            if hook is not None:
                hook(directory, candidates, segments)

    def index_committed(self, directory, candidate, pairs):
        for observer in self.observers:
            hook = getattr(observer, "index_committed", None)
            if hook is not None:
                hook(directory, candidate, pairs)

    def run_spilled(self, candidate, rows, runs):
        for observer in self.observers:
            hook = getattr(observer, "run_spilled", None)
            if hook is not None:
                hook(candidate, rows, runs)

    def run_merged(self, candidate, key_index, runs):
        for observer in self.observers:
            hook = getattr(observer, "run_merged", None)
            if hook is not None:
                hook(candidate, key_index, runs)

    def strategy_pairs_generated(self, candidate, strategy, generated, fresh):
        for observer in self.observers:
            hook = getattr(observer, "strategy_pairs_generated", None)
            if hook is not None:
                hook(candidate, strategy, generated, fresh)

    def decision_calibrated(self, candidate, calibration):
        for observer in self.observers:
            hook = getattr(observer, "decision_calibrated", None)
            if hook is not None:
                hook(candidate, calibration)

    def pair_demoted(self, candidate, left_eid, right_eid, score):
        for observer in self.observers:
            hook = getattr(observer, "pair_demoted", None)
            if hook is not None:
                hook(candidate, left_eid, right_eid, score)

    def warning(self, message):
        for observer in self.observers:
            observer.warning(message)


class TimingObserver(EngineObserver):
    """Accumulates phase durations from engine events.

    ``timings`` rebuilds the familiar :class:`PhaseTimings`;
    ``phase_seconds`` holds the raw per-phase totals keyed by phase name
    ("KG"/"SW"/"TC"), summed over candidates and runs.
    """

    def __init__(self):
        self.phase_seconds: dict[str, float] = {}

    def phase_finished(self, phase, seconds, candidate=None):
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    @property
    def timings(self) -> PhaseTimings:
        return PhaseTimings(
            key_generation=self.phase_seconds.get(PHASE_KEY_GENERATION, 0.0),
            window=self.phase_seconds.get(PHASE_WINDOW, 0.0),
            closure=self.phase_seconds.get(PHASE_CLOSURE, 0.0))


class CounterObserver(EngineObserver):
    """Counts engine events; the engine's odometer.

    ``counts`` maps event name to a total; per-candidate comparison and
    confirmation counts live in ``comparisons_by_candidate`` /
    ``confirmed_by_candidate``, and ``warnings`` collects warning text.
    Comparison-plane counters (φ cache hits, filter short-circuits, …)
    are merged into ``counts`` by stat name and accumulated per
    candidate in ``compare_stats_by_candidate``.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.comparisons_by_candidate: dict[str, int] = {}
        self.confirmed_by_candidate: dict[str, int] = {}
        self.compare_stats_by_candidate: dict[str, "ComparisonStats"] = {}
        self.warnings: list[str] = []

    def _bump(self, event: str) -> None:
        self.counts[event] = self.counts.get(event, 0) + 1

    def run_started(self):
        self._bump("run_started")

    def run_finished(self, result):
        self._bump("run_finished")

    def candidate_started(self, candidate, instances):
        self._bump("candidate_started")

    def candidate_finished(self, candidate, outcome):
        self._bump("candidate_finished")

    def pass_started(self, candidate, key_index):
        self._bump("pass_started")

    def pass_finished(self, candidate, key_index, comparisons):
        self._bump("pass_finished")

    def pass_dispatched(self, candidate, key_index, shards):
        self._bump("pass_dispatched")
        self.counts["shards_dispatched"] = \
            self.counts.get("shards_dispatched", 0) + shards

    def pass_merged(self, candidate, key_index, comparisons, redundant):
        self._bump("pass_merged")

    def plane_opened(self, plane, workers):
        self._bump("plane_opened")
        self.counts[f"plane_{plane}"] = self.counts.get(f"plane_{plane}", 0) + 1

    def segment_published(self, candidate, segment, nbytes):
        self._bump("segment_published")
        self.counts["segment_bytes"] = \
            self.counts.get("segment_bytes", 0) + nbytes

    def pair_compared(self, candidate, left_eid, right_eid, verdict):
        self._bump("pair_compared")
        self.comparisons_by_candidate[candidate] = \
            self.comparisons_by_candidate.get(candidate, 0) + 1

    def pair_filtered(self, candidate, left_eid, right_eid):
        self._bump("pair_filtered")

    def pair_confirmed(self, candidate, left_eid, right_eid):
        self._bump("pair_confirmed")
        self.confirmed_by_candidate[candidate] = \
            self.confirmed_by_candidate.get(candidate, 0) + 1

    def comparison_stats(self, candidate, stats):
        merged = self.compare_stats_by_candidate.setdefault(
            candidate, ComparisonStats())
        merged.merge(stats)
        for name, value in stats.as_dict().items():
            if isinstance(value, dict):
                # Mapping-valued counters (per-strategy attribution)
                # flatten into dotted count keys.
                for key, inner in value.items():
                    for counter, count in (
                            inner.items() if isinstance(inner, dict)
                            else ((None, inner),)):
                        flat = (f"{name}.{key}.{counter}"
                                if counter is not None else f"{name}.{key}")
                        self.counts[flat] = self.counts.get(flat, 0) + count
                continue
            self.counts[name] = self.counts.get(name, 0) + value

    def cache_loaded(self, directory, entries, segments):
        self._bump("cache_loaded")
        self.counts["cache_entries_loaded"] = \
            self.counts.get("cache_entries_loaded", 0) + entries

    def cache_flushed(self, directory, entries, segments):
        self._bump("cache_flushed")
        self.counts["cache_entries_flushed"] = \
            self.counts.get("cache_entries_flushed", 0) + entries

    def index_opened(self, directory, candidates, segments):
        self._bump("index_opened")
        self.counts["index_candidates_resumable"] = \
            self.counts.get("index_candidates_resumable", 0) + candidates

    def index_committed(self, directory, candidate, pairs):
        self._bump("index_committed")
        self.counts["index_pairs_committed"] = \
            self.counts.get("index_pairs_committed", 0) + pairs

    def run_spilled(self, candidate, rows, runs):
        self._bump("run_spilled")
        self.counts["spill_runs_written"] = \
            self.counts.get("spill_runs_written", 0) + runs

    def run_merged(self, candidate, key_index, runs):
        self._bump("run_merged")
        self.counts["spill_runs_merged"] = \
            self.counts.get("spill_runs_merged", 0) + runs

    def decision_calibrated(self, candidate, calibration):
        self._bump("decision_calibrated")

    def pair_demoted(self, candidate, left_eid, right_eid, score):
        self._bump("pair_demoted")

    def strategy_pairs_generated(self, candidate, strategy, generated, fresh):
        self._bump("strategy_pairs_generated")
        self.counts[f"strategy_{strategy}_generated"] = \
            self.counts.get(f"strategy_{strategy}_generated", 0) + generated
        self.counts[f"strategy_{strategy}_fresh"] = \
            self.counts.get(f"strategy_{strategy}_fresh", 0) + fresh

    def warning(self, message):
        self._bump("warning")
        self.warnings.append(message)

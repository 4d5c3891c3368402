"""Typed configuration model for SXNM.

The paper's configuration (Sec. 3.2) consists, per candidate schema
element *s*, of three relations:

* ``PATH_s(id, relPath)`` — the relative paths into *s* used anywhere;
* ``OD_s(pid, relevance)`` — which paths form the object description and
  their weights;
* ``KEY_{s,i}(pid, order, pattern)`` — the parts of the *i*-th key.

:class:`CandidateSpec` holds all three for one candidate plus the
detection parameters the paper lists in Sec. 3.4 (window size, thresholds,
whether to use descendants).  :class:`SxnmConfig` is the full parameter
set *P* plus global defaults.

As an extension over the paper, each OD entry may name the φ similarity
function to use for its path (default ``"edit"``, the paper's choice),
and each candidate may set the descendant φ (default ``"jaccard"``, the
paper's intersection/union ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..keys import KeyDefinition, KeyPart, parse_pattern
from ..similarity.plan import DEFAULT_PHI_CACHE_SIZE
from ..xpath import Path, parse_path

# The defaults of every config knob are defined here, once; the modules
# that consume a knob (repro.core.execution, repro.core.spill,
# repro.core.blocking, ...) import them from this module, which sits
# below repro.core.  The φ memo size (entries, LRU; 0 disables it) is
# the comparison plane's own default.
DEFAULT_WINDOW_SIZE = 5
DEFAULT_OD_THRESHOLD = 0.65
DEFAULT_DESC_THRESHOLD = 0.3
DEFAULT_DUPLICATE_THRESHOLD = 0.65
# Worker processes for the detection phase (1 = serial, 2+ = the
# shared-memory plane) and the table size below which a candidate
# always runs serially (process start-up and row pickling dwarf the
# comparison work on small tables).
DEFAULT_WORKERS = 1
DEFAULT_PARALLEL_MIN_ROWS = 64
# The shared-memory transport: warm worker pools persist across runs,
# and candidate payloads below DEFAULT_SHARED_MEMORY_MIN_BYTES ship
# inline with the worker tasks instead of through a shared-memory
# segment.
DEFAULT_WORKER_POOL_PERSIST = True
DEFAULT_SHARED_MEMORY_MIN_BYTES = 65536
# Detection index: a directory where per-run state (GK tables,
# confirmed pairs, incremental session state) persists across
# process restarts, making runs resumable.  None keeps all run state
# in memory; index_persist gates the directory without forgetting the
# path.
DEFAULT_INDEX_PERSIST = True
# Out-of-core streaming detection: stream_parse runs the pipeline over
# the event stream with GK rows spilled to bounded sorted run files
# (external merge sort) instead of in-memory tables; spill_dir names
# the run-file directory (None resolves to <index_dir>/spill or a
# temporary directory) and spill_max_rows bounds the rows buffered
# before each spill.
DEFAULT_SPILL_MAX_ROWS = 4096
# Union-of-strategies candidate generation (repro.core.blocking): the
# strategy names the config layer accepts, the block-size cap above
# which a blocking strategy skips a block (one giant block is an
# all-pairs explosion, not a neighborhood), and the MinHash/LSH shape
# (hashes must divide evenly into bands; rows-per-band = hashes/bands).
STRATEGY_NAMES = ("window", "exact-key", "composite", "minhash-lsh")
DEFAULT_MAX_BLOCK_SIZE = 64
DEFAULT_MINHASH_HASHES = 64
DEFAULT_MINHASH_BANDS = 16
DEFAULT_MINHASH_SEED = 0
DEFAULT_COMPOSITE_FIELDS = "0:4"
# Three-way decision calibration (repro.decision): decision_mode selects
# the plain two-way threshold decision ("threshold") or the calibrated
# AUTO_DUP/REVIEW/AUTO_KEEP bands ("three-way"); decision_fpr is the
# Neyman-Pearson false-positive-rate target for the AUTO_DUP cutoff and
# decision_coverage the split-conformal coverage target for the REVIEW
# band.
DECISION_MODES = ("threshold", "three-way")
DEFAULT_DECISION_MODE = "threshold"
DEFAULT_DECISION_FPR = 0.05
DEFAULT_DECISION_COVERAGE = 0.9


@dataclass
class StrategySpec:
    """One entry of ``neighborhoodStrategies``: a name plus raw params.

    ``params`` maps the strategy's camelCase knob names to their string
    values exactly as they appear as XML attributes
    (``<strategy name="minhash-lsh" hashes="64" bands="16"/>``); the
    strategy factory in :mod:`repro.core.blocking` parses them.  See
    :func:`strategy_from_string` for the CLI's compact spelling.
    """

    name: str
    params: dict[str, str] = field(default_factory=dict)


def strategy_from_string(text: str) -> StrategySpec:
    """Parse the CLI spelling ``name`` or ``name:key=value,key=value``.

    The same params reach XML as attributes of a ``<strategy>`` element;
    values stay strings here — range checking happens in
    :func:`~repro.config.validate.validate_config`.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if not name:
        raise ConfigError(f"strategy spec {text!r} has an empty name")
    params: dict[str, str] = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(
                    f"strategy spec {text!r}: expected key=value, "
                    f"got {item.strip()!r}")
            params[key] = value.strip()
    return StrategySpec(name, params)


def parse_composite_fields(text: str) -> list[tuple[int, int]]:
    """Parse a composite-block field spec: ``odIndex[:prefixLen],...``.

    ``"0:4,1"`` blocks on the first four normalized characters of OD 0
    together with the full normalized value of OD 1.  A prefix length of
    0 (the default) means the full value.
    """
    fields_out: list[tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"composite fields {text!r}: empty entry")
        index_text, _, prefix_text = part.partition(":")
        try:
            od_index = int(index_text)
            prefix = int(prefix_text) if prefix_text else 0
        except ValueError:
            raise ConfigError(f"composite fields {text!r}: entry "
                              f"{part!r} is not odIndex[:prefixLen]")
        if od_index < 0 or prefix < 0:
            raise ConfigError(f"composite fields {text!r}: entry "
                              f"{part!r} must be non-negative")
        fields_out.append((od_index, prefix))
    if not fields_out:
        raise ConfigError(f"composite fields {text!r}: no entries")
    return fields_out


@dataclass(frozen=True)
class PathEntry:
    """A row of ``PATH_s``: unique ``pid`` and a relative path."""

    pid: int
    rel_path: str

    def parsed(self) -> Path:
        return parse_path(self.rel_path)


@dataclass(frozen=True)
class OdEntry:
    """A row of ``OD_s``: path reference, weight, and φ function name."""

    pid: int
    relevance: float
    phi: str = "edit"


@dataclass(frozen=True)
class KeyEntry:
    """A row of ``KEY_{s,i}``: path reference, position in key, pattern."""

    pid: int
    order: int
    pattern: str


@dataclass
class CandidateSpec:
    """Complete configuration for one candidate schema element.

    Parameters
    ----------
    name:
        Unique candidate name used to associate configuration with the
        temporary GK/CS tables (paper: ``name = movie``).
    xpath:
        Absolute path identifying instances, e.g.
        ``movie_database/movies/movie``.
    paths, ods, keys:
        The PATH/OD/KEY relations.  ``keys`` is a list of keys, each a
        list of :class:`KeyEntry` (multi-pass uses one pass per key).
    window_size, od_threshold, desc_threshold, duplicate_threshold:
        Per-candidate overrides of the global detection settings
        (``None`` → use the config default).
    use_descendants:
        The paper's "information about when not to use descendants".
    desc_phi:
        φ_desc function: ``"jaccard"`` (paper), ``"multiset_jaccard"``,
        or ``"overlap"``.
    desc_weights:
        Per-descendant-candidate weights for the agg() combination —
        the paper's announced extension ("future implementations will
        have declarations of different weights in the configuration").
        Unlisted descendants weigh 1.0.
    """

    name: str
    xpath: str
    paths: list[PathEntry] = field(default_factory=list)
    ods: list[OdEntry] = field(default_factory=list)
    keys: list[list[KeyEntry]] = field(default_factory=list)
    key_names: list[str] = field(default_factory=list)
    window_size: int | None = None
    od_threshold: float | None = None
    desc_threshold: float | None = None
    duplicate_threshold: float | None = None
    use_descendants: bool = True
    desc_phi: str = "jaccard"
    desc_weights: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, name: str, xpath: str,
              od: list[tuple[str, float]] | list[tuple[str, float, str]] | None = None,
              keys: list[list[tuple[str, str]]] | None = None,
              **detection_overrides) -> CandidateSpec:
        """Ergonomic constructor from literal paths.

        ``od`` is ``[(rel_path, relevance[, phi])...]`` and ``keys`` is
        ``[[(rel_path, pattern), ...], ...]`` — paths are interned into
        the PATH relation automatically.
        """
        spec = cls(name=name, xpath=xpath, **detection_overrides)
        for entry in od or []:
            if len(entry) == 3:
                rel_path, relevance, phi = entry
            else:
                rel_path, relevance = entry  # type: ignore[misc]
                phi = "edit"
            spec.add_od(rel_path, relevance, phi=phi)
        for index, key_parts in enumerate(keys or [], start=1):
            spec.add_key(key_parts, name=f"Key {index}")
        return spec

    def _intern_path(self, rel_path: str) -> int:
        parse_path(rel_path)  # validate eagerly
        for entry in self.paths:
            if entry.rel_path == rel_path:
                return entry.pid
        pid = max((entry.pid for entry in self.paths), default=0) + 1
        self.paths.append(PathEntry(pid, rel_path))
        return pid

    def add_od(self, rel_path: str, relevance: float, phi: str = "edit") -> None:
        """Add an object-description entry for ``rel_path``."""
        pid = self._intern_path(rel_path)
        self.ods.append(OdEntry(pid, relevance, phi=phi))

    def add_key(self, parts: list[tuple[str, str]], name: str | None = None) -> None:
        """Add a key made of ``[(rel_path, pattern), ...]`` in order."""
        if not parts:
            raise ConfigError(f"candidate {self.name!r}: key needs at least one part")
        entries = []
        for order, (rel_path, pattern) in enumerate(parts, start=1):
            parse_pattern(pattern)  # validate eagerly
            entries.append(KeyEntry(self._intern_path(rel_path), order, pattern))
        self.keys.append(entries)
        self.key_names.append(name or f"Key {len(self.keys)}")

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def path_by_pid(self, pid: int) -> PathEntry:
        for entry in self.paths:
            if entry.pid == pid:
                return entry
        raise ConfigError(f"candidate {self.name!r}: unknown path id {pid}")

    def key_definitions(self) -> list[KeyDefinition]:
        """Resolve the KEY relations into :class:`KeyDefinition` objects."""
        definitions = []
        for index, entries in enumerate(self.keys):
            ordered = sorted(entries, key=lambda entry: entry.order)
            parts = tuple(
                KeyPart(self.path_by_pid(entry.pid).parsed(),
                        parse_pattern(entry.pattern))
                for entry in ordered)
            name = self.key_names[index] if index < len(self.key_names) \
                else f"Key {index + 1}"
            definitions.append(KeyDefinition(parts, name=name))
        return definitions

    def od_items(self) -> list[tuple[Path, float, str]]:
        """Resolve OD entries into ``(path, relevance, phi_name)`` triples."""
        return [(self.path_by_pid(od.pid).parsed(), od.relevance, od.phi)
                for od in self.ods]

    @property
    def pass_count(self) -> int:
        """Number of sliding-window passes (one per key)."""
        return len(self.keys)


@dataclass
class SxnmConfig:
    """The full parameter set *P*: all candidates plus global defaults.

    ``use_filters`` arms the comparison plane's pruning layers by
    default (overridable per detector); ``phi_cache_size`` bounds the
    shared φ memo cache (0 disables it).  ``workers`` shards the window
    passes across that many processes (1 = serial), except for
    candidates with fewer than ``parallel_min_rows`` GK rows, which stay
    serial.  ``phi_cache_dir`` names a directory where exact φ scores
    persist *across* runs (``None`` keeps the memo in-memory only) and
    ``phi_cache_persist`` gates it without forgetting the path.
    ``worker_pool_persist`` keeps worker pools warm across runs in the
    same process; ``shared_memory_min_bytes`` is the payload size below
    which candidates ship inline rather than via a shared segment.
    ``index_dir`` names a :class:`~repro.core.index.DetectionIndex`
    directory where per-run detection state persists so interrupted
    runs and incremental sessions resume from disk (``None`` keeps run
    state in memory only); ``index_persist`` gates it without
    forgetting the path.  ``stream_parse`` selects the out-of-core
    path: key generation consumes the raw event stream and spills GK
    rows to checksummed sorted run files under ``spill_dir``, at most
    ``spill_max_rows`` rows buffered at a time, and window passes
    slide over the externally merged streams.  None of these knobs
    changes detected duplicates — only how much work comparisons cost,
    where they run, and whether state survives a restart.

    ``neighborhood_strategies`` is the exception: a non-empty list
    replaces the window-only neighborhood with a union of candidate-pair
    generators (window, exact-key blocks, composite OD-field blocks,
    MinHash/LSH — :mod:`repro.core.blocking`), trading extra
    comparisons for recall on duplicates whose keys sort far apart.
    """

    candidates: list[CandidateSpec] = field(default_factory=list)
    window_size: int = DEFAULT_WINDOW_SIZE
    od_threshold: float = DEFAULT_OD_THRESHOLD
    desc_threshold: float = DEFAULT_DESC_THRESHOLD
    duplicate_threshold: float = DEFAULT_DUPLICATE_THRESHOLD
    use_filters: bool = False
    phi_cache_size: int = DEFAULT_PHI_CACHE_SIZE
    phi_cache_dir: str | None = None
    phi_cache_persist: bool = True
    workers: int = DEFAULT_WORKERS
    parallel_min_rows: int = DEFAULT_PARALLEL_MIN_ROWS
    worker_pool_persist: bool = DEFAULT_WORKER_POOL_PERSIST
    shared_memory_min_bytes: int = DEFAULT_SHARED_MEMORY_MIN_BYTES
    index_dir: str | None = None
    index_persist: bool = DEFAULT_INDEX_PERSIST
    stream_parse: bool = False
    spill_dir: str | None = None
    spill_max_rows: int = DEFAULT_SPILL_MAX_ROWS
    #: Decision mode ("threshold" or "three-way") plus the calibration
    #: targets for three-way bands (repro.decision): the AUTO_DUP
    #: cutoff's false-positive-rate target and the REVIEW band's
    #: conformal coverage target.  "threshold" ignores both targets and
    #: decides exactly as the paper does.
    decision_mode: str = DEFAULT_DECISION_MODE
    decision_fpr: float = DEFAULT_DECISION_FPR
    decision_coverage: float = DEFAULT_DECISION_COVERAGE
    #: Candidate-pair generation strategies unioned per candidate
    #: (repro.core.blocking).  Empty keeps the classic window-only
    #: neighborhood; a non-empty list replaces it with the union of the
    #: listed members (include "window" to keep the paper's window as
    #: one member).
    neighborhood_strategies: list[StrategySpec] = field(default_factory=list)

    def add(self, candidate: CandidateSpec) -> CandidateSpec:
        """Register ``candidate``; names must be unique."""
        if any(existing.name == candidate.name for existing in self.candidates):
            raise ConfigError(f"duplicate candidate name {candidate.name!r}")
        self.candidates.append(candidate)
        return candidate

    def candidate(self, name: str) -> CandidateSpec:
        """Look up a candidate by name."""
        for spec in self.candidates:
            if spec.name == name:
                return spec
        raise ConfigError(f"unknown candidate {name!r}")

    # Effective (override-or-default) detection parameters ---------------
    def effective_window(self, spec: CandidateSpec) -> int:
        return spec.window_size if spec.window_size is not None else self.window_size

    def effective_od_threshold(self, spec: CandidateSpec) -> float:
        return (spec.od_threshold if spec.od_threshold is not None
                else self.od_threshold)

    def effective_desc_threshold(self, spec: CandidateSpec) -> float:
        return (spec.desc_threshold if spec.desc_threshold is not None
                else self.desc_threshold)

    def effective_duplicate_threshold(self, spec: CandidateSpec) -> float:
        return (spec.duplicate_threshold if spec.duplicate_threshold is not None
                else self.duplicate_threshold)

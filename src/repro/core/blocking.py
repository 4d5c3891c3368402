"""High-recall candidate generation: blocking and MinHash/LSH strategies.

The paper's fixed sorted-neighborhood window is its own documented
weakness: two true duplicates whose generated keys sort far apart are
never compared, no matter the similarity threshold.  This module
attacks exactly that gap behind the engine's existing
``NeighborhoodStrategy`` seam with a family of candidate-pair
*generators* — they propose pairs without comparing them — plus a
:class:`UnionStrategy` that unions the proposals, deduplicates them,
compares each exactly once through the execution plane's
:meth:`~repro.core.execution.ExecutionPlane.pairs_pass`, and attributes
every generated/compared/confirmed pair to the member that first
proposed it (per-strategy counters in
:class:`~repro.similarity.plan.ComparisonStats`).

Members:

* :class:`WindowMember` — the paper's multi-pass window re-stated as a
  generator: it enumerates exactly the candidate pairs the plain window
  passes would compare (including the DE variant's equal-key anchor
  pairs), so the union is always a superset of the window's reach.
* :class:`ExactKeyBlock` — groups rows by their full normalized key
  string, per key; two rows agreeing on any complete key are candidates
  regardless of where the sort placed them.
* :class:`CompositeFieldBlock` — groups rows by a configurable tuple of
  normalized OD fields (e.g. year + title-prefix), the classical
  blocking move for corpora whose keys lead with an error-prone field.
* :class:`MinHashLshStrategy` — MinHash signatures over each row's OD
  token set with banded LSH bucketing: rows whose token sets are
  Jaccard-similar collide in some band with high probability, no shared
  prefix or exact field needed.  Deterministic under a config seed and
  invariant to document order (signatures are functions of token sets).

Blocking strategies respect a block-size cap (``maxBlock``): a block
larger than the cap — say every row sharing one degenerate key — is an
all-pairs explosion, not a neighborhood, so it is skipped and reported
through a warn-once observer event.  Spilled (out-of-core) GK tables
are materialized in memory with a one-time warning: pair generation
needs random row access by construction.

A union with the window as its *only* member delegates to the native
:class:`~repro.core.stages.FixedWindowStrategy` path — bit-identical
pairs and comparison counts, sharded execution included.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace

from ..config.model import (DEFAULT_COMPOSITE_FIELDS, DEFAULT_MAX_BLOCK_SIZE,
                            DEFAULT_MINHASH_BANDS, DEFAULT_MINHASH_HASHES,
                            DEFAULT_MINHASH_SEED, STRATEGY_NAMES,
                            StrategySpec, parse_composite_fields)
from ..errors import ConfigError
from ..similarity.tokens import tokenize
from .gk import GkRow, GkTable
from .simmeasure import PairVerdict
from .stages import (BOTTOM_UP, CandidateContext, FixedWindowStrategy,
                     NeighborhoodOutcome)
from .window import key_pass

#: The prime modulus of the MinHash permutation family (2^61 - 1); the
#: universal-hash coefficients are drawn below it from the config seed.
_MERSENNE_PRIME = (1 << 61) - 1

#: Counter keys of one strategy's attribution slot in
#: ``ComparisonStats.strategy_counters``.
COUNTER_GENERATED = "generated"   # pairs the member proposed
COUNTER_FRESH = "fresh"           # proposals no earlier member claimed
COUNTER_COMPARED = "compared"     # fresh pairs actually compared (== fresh)
COUNTER_DUPLICATES = "duplicates"  # compared pairs confirmed as duplicates

#: The verdict a proposing window member gives every pair it sees.
_PROPOSED = PairVerdict(0.0, None, 0.0, False)


def _normalize(value: str) -> str:
    """Lowercased alphanumeric characters only — the block-key form."""
    return "".join(ch for ch in value.lower() if ch.isalnum())


@dataclass
class GeneratedPairs:
    """One member's proposals: normalized eid pairs plus skipped blocks."""

    pairs: set[tuple[int, int]] = field(default_factory=set)
    oversized_blocks: int = 0


def _pairs_from_blocks(blocks, max_block_size: int) -> GeneratedPairs:
    """All within-block pairs, skipping (and counting) oversized blocks."""
    generated = GeneratedPairs()
    for eids in blocks:
        if len(eids) < 2:
            continue
        if len(eids) > max_block_size:
            generated.oversized_blocks += 1
            continue
        ordered = sorted(set(eids))
        for left_index, left in enumerate(ordered):
            for right in ordered[left_index + 1:]:
                generated.pairs.add((left, right))
    return generated


class ExactKeyBlock:
    """Block on the full normalized key string, one grouping per key.

    Two rows whose generated keys are byte-equal after normalization
    are duplicate candidates no matter how far apart a *different* key
    sorted them.  ``key_index`` restricts blocking to one key
    (0-based); ``None`` blocks on every selected key.  Empty keys carry
    no grouping evidence and never form blocks.
    """

    name = "exact-key"

    def __init__(self, key_index: int | None = None,
                 max_block_size: int = DEFAULT_MAX_BLOCK_SIZE):
        if max_block_size < 2:
            raise ConfigError("exact-key maxBlock must be >= 2")
        self.key_index = key_index
        self.max_block_size = max_block_size

    def generate(self, ctx: CandidateContext) -> GeneratedPairs:
        key_indices = (ctx.key_indices if self.key_index is None
                       else [self.key_index])
        blocks: dict[tuple[int, str], list[int]] = {}
        for row in ctx.table:
            for key_index in key_indices:
                if key_index >= len(row.keys):
                    continue
                value = row.keys[key_index]
                if not value:
                    continue
                normalized = _normalize(value)
                if not normalized:
                    continue
                blocks.setdefault((key_index, normalized),
                                  []).append(row.eid)
        return _pairs_from_blocks(blocks.values(), self.max_block_size)


class CompositeFieldBlock:
    """Block on a tuple of normalized OD fields, optionally prefixed.

    ``fields`` is a sequence of ``(od_index, prefix_length)`` pairs
    (prefix 0 = the full normalized value); the config spelling is
    ``"odIndex[:prefixLen],..."`` — e.g. ``"1,0:4"`` blocks on OD 1
    (say, the year) together with the first four normalized characters
    of OD 0 (say, the title).  Rows missing any component field carry
    no evidence for this blocking and are skipped.
    """

    name = "composite"

    def __init__(self, fields=None,
                 max_block_size: int = DEFAULT_MAX_BLOCK_SIZE):
        if max_block_size < 2:
            raise ConfigError("composite maxBlock must be >= 2")
        if fields is None:
            fields = parse_composite_fields(DEFAULT_COMPOSITE_FIELDS)
        elif isinstance(fields, str):
            fields = parse_composite_fields(fields)
        self.fields = [(int(od_index), int(prefix))
                       for od_index, prefix in fields]
        if not self.fields:
            raise ConfigError("composite fields must name at least one OD")
        self.max_block_size = max_block_size

    def _block_key(self, row: GkRow) -> tuple[str, ...] | None:
        parts: list[str] = []
        for od_index, prefix in self.fields:
            if od_index >= len(row.ods):
                return None
            value = row.ods[od_index]
            if value is None:
                return None
            normalized = _normalize(value)
            if not normalized:
                return None
            parts.append(normalized[:prefix] if prefix else normalized)
        return tuple(parts)

    def generate(self, ctx: CandidateContext) -> GeneratedPairs:
        blocks: dict[tuple[str, ...], list[int]] = {}
        for row in ctx.table:
            block_key = self._block_key(row)
            if block_key is not None:
                blocks.setdefault(block_key, []).append(row.eid)
        return _pairs_from_blocks(blocks.values(), self.max_block_size)


class MinHashLshStrategy:
    """MinHash signatures over OD token sets with banded LSH bucketing.

    Each row's token set is the union of the word tokens of its
    non-missing OD values; its signature is the minimum of each of
    ``hashes`` seeded universal hashes over the set.  Signatures are
    split into ``bands`` bands of ``hashes // bands`` values; rows
    agreeing on any whole band share a bucket and pair up.  Token base
    hashes come from BLAKE2b (process-stable, unlike salted ``hash()``)
    and the permutation coefficients from ``random.Random(seed)`` — the
    whole construction is bit-identical across runs for a fixed seed
    and invariant to document order.  Rows with empty token sets have
    no signature and never pair.
    """

    name = "minhash-lsh"

    def __init__(self, hashes: int = DEFAULT_MINHASH_HASHES,
                 bands: int = DEFAULT_MINHASH_BANDS,
                 seed: int = DEFAULT_MINHASH_SEED,
                 max_block_size: int = DEFAULT_MAX_BLOCK_SIZE):
        if hashes < 1 or bands < 1:
            raise ConfigError("minhash-lsh hashes and bands must be >= 1")
        if hashes % bands:
            raise ConfigError(f"minhash-lsh hashes ({hashes}) must divide "
                              f"evenly into bands ({bands})")
        if max_block_size < 2:
            raise ConfigError("minhash-lsh maxBlock must be >= 2")
        self.hashes = hashes
        self.bands = bands
        self.rows_per_band = hashes // bands
        self.seed = seed
        self.max_block_size = max_block_size
        rng = random.Random(seed)
        self._coefficients = [
            (rng.randrange(1, _MERSENNE_PRIME),
             rng.randrange(0, _MERSENNE_PRIME))
            for _ in range(hashes)]

    @staticmethod
    def _token_hash(token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def signature(self, tokens) -> tuple[int, ...] | None:
        """The row signature of a token set (``None`` when empty)."""
        if not tokens:
            return None
        base_hashes = [self._token_hash(token) for token in set(tokens)]
        return tuple(
            min((a * value + b) % _MERSENNE_PRIME for value in base_hashes)
            for a, b in self._coefficients)

    def row_tokens(self, row: GkRow) -> set[str]:
        """The OD token set of one GK row."""
        tokens: set[str] = set()
        for value in row.ods:
            if value:
                tokens.update(tokenize(value))
        return tokens

    def generate(self, ctx: CandidateContext) -> GeneratedPairs:
        buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        width = self.rows_per_band
        for row in ctx.table:
            signature = self.signature(self.row_tokens(row))
            if signature is None:
                continue
            for band in range(self.bands):
                band_slice = signature[band * width:(band + 1) * width]
                buckets.setdefault((band, band_slice), []).append(row.eid)
        return _pairs_from_blocks(buckets.values(), self.max_block_size)


class WindowMember:
    """The paper's multi-pass window as a union member.

    :meth:`generate` enumerates exactly the candidate pairs the plain
    window passes would *compare* — every in-window predecessor pair
    per selected key, plus (under duplicate elimination) the equal-key
    anchor/member pairs with only representatives entering the window.
    It runs the window kernel itself with a classifier that records each
    pair and confirms none, so nothing is ever skipped as known: the
    enumeration is verdict-independent and runs before any comparison.

    Note the union's deduplication changes comparison *counts* relative
    to the plain multi-pass path (which re-compares unconfirmed pairs
    seen by several keys); a union whose only member is the window
    therefore bypasses generation entirely and delegates to the native
    strategy (see :class:`UnionStrategy`).
    """

    name = "window"

    def __init__(self, duplicate_elimination: bool = False):
        self.duplicate_elimination = duplicate_elimination
        self.native = FixedWindowStrategy(duplicate_elimination)

    def generate(self, ctx: CandidateContext) -> GeneratedPairs:
        generated = GeneratedPairs()

        def propose(left, right):
            generated.pairs.add((min(left.eid, right.eid),
                                 max(left.eid, right.eid)))
            return _PROPOSED

        for key_index in ctx.key_indices:
            ordered = ctx.table.sorted_by_key(key_index)
            key_pass(lambda: ordered, key_index, ctx.window, propose, set(),
                     self.duplicate_elimination)
        return generated


class UnionStrategy:
    """Union the pair sets of several generators; compare each pair once.

    Members propose in list order; the first proposer of a pair owns it
    for attribution.  The deduplicated union is compared through the
    execution plane's ``pairs_pass`` (sharding across workers like any
    other pass), confirmed pairs land in ``ctx.pairs``, and the
    per-strategy generated/fresh/compared/duplicates counters are
    written into the decider's ``ComparisonStats.strategy_counters`` —
    by construction the ``compared`` counters sum exactly to the pass's
    total comparisons.

    A union whose only member is the window delegates to the native
    window strategy — bit-identical to not using strategies at all.
    Spilled tables are materialized with a one-time warning.
    """

    traversal = BOTTOM_UP

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ConfigError("union strategy needs at least one member")
        names = [member.name for member in members]
        if len(set(names)) != len(names):
            raise ConfigError(f"union strategy members must be unique, "
                              f"got {names}")
        self.members = members
        self._warned_spill = False
        self._warned_oversized = False

    # -- table access ---------------------------------------------------

    def _materialized(self, ctx: CandidateContext) -> CandidateContext:
        if not getattr(ctx.table, "spilled", False):
            return ctx
        if not self._warned_spill:
            self._warned_spill = True
            ctx.warning("union neighborhood strategies need random row "
                        "access; materializing the spilled GK table in "
                        "memory (warning once)")
        table = GkTable(ctx.table.candidate_name, ctx.table.key_count,
                        ctx.table.od_count)
        for row in ctx.table:
            table.add(row)
        return replace(ctx, table=table)

    # -- proposal -------------------------------------------------------

    def propose(self, ctx: CandidateContext):
        """All members' proposals: ``(union, owner_by_pair, counters)``.

        ``counters`` carries each member's attribution slot with
        ``compared``/``duplicates`` still zero — :meth:`find_pairs`
        fills those after the comparison pass.
        """
        proposed: set[tuple[int, int]] = set()
        owners: dict[tuple[int, int], str] = {}
        counters: dict[str, dict[str, int]] = {}
        for member in self.members:
            generated = member.generate(ctx)
            fresh = generated.pairs - proposed
            for pair in fresh:
                owners[pair] = member.name
            proposed |= fresh
            counters[member.name] = {
                COUNTER_GENERATED: len(generated.pairs),
                COUNTER_FRESH: len(fresh),
                COUNTER_COMPARED: 0,
                COUNTER_DUPLICATES: 0,
            }
            if generated.oversized_blocks and not self._warned_oversized:
                self._warned_oversized = True
                ctx.warning(
                    f"strategy {member.name!r}: "
                    f"{generated.oversized_blocks} block(s) exceeded the "
                    f"maxBlock cap ({getattr(member, 'max_block_size', 0)}) "
                    f"and were skipped (warning once)")
            ctx.strategy_pairs_generated(member.name, len(generated.pairs),
                                         len(fresh))
        return proposed, owners, counters

    # -- the strategy protocol ------------------------------------------

    def _record(self, ctx: CandidateContext,
                counters: dict[str, dict[str, int]]) -> None:
        stats = getattr(ctx.decider, "stats", None)
        if stats is None:
            return
        for name, slot in counters.items():
            merged = stats.strategy_counters.setdefault(name, {})
            for counter, count in slot.items():
                merged[counter] = merged.get(counter, 0) + count

    def find_pairs(self, ctx: CandidateContext) -> NeighborhoodOutcome:
        ctx = self._materialized(ctx)
        if len(self.members) == 1 and isinstance(self.members[0],
                                                 WindowMember):
            # Degenerate union: the native window path is bit-identical
            # (same pairs, same multi-pass comparison counts), so run
            # it; attribution degenerates to the comparison count.
            before = set(ctx.pairs)
            outcome = self.members[0].native.find_pairs(ctx)
            confirmed = len(ctx.pairs - before)
            ctx.strategy_pairs_generated(self.members[0].name,
                                         outcome.comparisons,
                                         outcome.comparisons)
            self._record(ctx, {self.members[0].name: {
                COUNTER_GENERATED: outcome.comparisons,
                COUNTER_FRESH: outcome.comparisons,
                COUNTER_COMPARED: outcome.comparisons,
                COUNTER_DUPLICATES: confirmed,
            }})
            return outcome
        proposed, owners, counters = self.propose(ctx)
        pair_list = sorted(proposed)
        outcome = ctx.execution_plane().pairs_pass(ctx, pair_list)
        for pair in pair_list:
            counters[owners[pair]][COUNTER_COMPARED] += 1
        for pair in ctx.pairs & proposed:
            counters[owners[pair]][COUNTER_DUPLICATES] += 1
        self._record(ctx, counters)
        return outcome


# ---------------------------------------------------------------------------
# Spec -> member factory


def _pop_int(params: dict[str, str], key: str, default: int) -> int:
    text = params.pop(key, None)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"strategy parameter {key}={text!r} is not an "
                          f"integer") from None


def build_member(spec: StrategySpec, duplicate_elimination: bool = False):
    """One union member from its config spec (validated params only)."""
    params = dict(spec.params)
    if spec.name == "window":
        member = WindowMember(duplicate_elimination)
    elif spec.name == "exact-key":
        key_text = params.pop("key", None)
        member = ExactKeyBlock(
            key_index=int(key_text) if key_text is not None else None,
            max_block_size=_pop_int(params, "maxBlock",
                                    DEFAULT_MAX_BLOCK_SIZE))
    elif spec.name == "composite":
        member = CompositeFieldBlock(
            fields=params.pop("fields", None),
            max_block_size=_pop_int(params, "maxBlock",
                                    DEFAULT_MAX_BLOCK_SIZE))
    elif spec.name == "minhash-lsh":
        member = MinHashLshStrategy(
            hashes=_pop_int(params, "hashes", DEFAULT_MINHASH_HASHES),
            bands=_pop_int(params, "bands", DEFAULT_MINHASH_BANDS),
            seed=_pop_int(params, "seed", DEFAULT_MINHASH_SEED),
            max_block_size=_pop_int(params, "maxBlock",
                                    DEFAULT_MAX_BLOCK_SIZE))
    else:
        raise ConfigError(f"unknown neighborhood strategy {spec.name!r} "
                          f"(expected one of {sorted(STRATEGY_NAMES)})")
    if params:
        raise ConfigError(f"strategy {spec.name!r}: unknown parameter(s) "
                          f"{sorted(params)}")
    return member


def build_union_strategy(specs, duplicate_elimination: bool = False,
                         ) -> UnionStrategy:
    """The engine-facing factory: config specs to a ready union."""
    return UnionStrategy([build_member(spec, duplicate_elimination)
                          for spec in specs])

"""Command-line interface: ``sxnm``.

Subcommands::

    sxnm detect  -c config.xml data.xml [-w N] [--report out.txt] [--gk gk.xml]
    sxnm keygen  -c config.xml data.xml -o gk.xml
    sxnm dedup   -c config.xml data.xml -o clean.xml
    sxnm evaluate -c config.xml data.xml --candidate NAME [--oid oid]
    sxnm generate {movies,cds} -n COUNT [-o out.xml] [--profile P] [--seed S]
    sxnm index {init,status,compact} DIR [-c config.xml]
    sxnm review export QUEUE.jsonl

``detect`` prints per-candidate duplicate clusters (``--index DIR``
persists run state; ``--resume`` continues an interrupted indexed run;
``--decision three-way`` calibrates AUTO_DUP / REVIEW / AUTO_KEEP bands
from the corpus's oid ground truth and ``--review-out`` saves the
REVIEW-banded pairs as JSONL); ``dedup`` writes a deduplicated copy
(prime representatives); ``evaluate`` scores detected pairs against the
oid ground truth; ``generate`` produces the synthetic corpora used
throughout the evaluation; ``index`` manages detection-index
directories; ``review export`` renders a review queue as a table.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config_file
from .core import EngineObserver, SxnmDetector, deduplicate_document
from .datagen import generate_dataset2, generate_dataset3, generate_dirty_movies
from .errors import ReproError
from .eval import evaluate_pairs, gold_pairs, render_table
from .xmlmodel import parse_file, write_file


class ProgressObserver(EngineObserver):
    """Streams phase/candidate/pass progress lines to a text stream.

    Backs ``sxnm detect --progress``; every line is prefixed with ``#``
    so progress can be separated from the report on stdout.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def _line(self, text: str) -> None:
        print(f"# {text}", file=self.stream, flush=True)

    def phase_finished(self, phase, seconds, candidate=None):
        if candidate is None:
            self._line(f"{phase} phase finished in {seconds:.3f}s")

    def candidate_started(self, candidate, instances):
        self._line(f"candidate {candidate}: {instances} instances")

    def pass_finished(self, candidate, key_index, comparisons):
        self._line(f"candidate {candidate}: pass over key {key_index + 1} "
                   f"made {comparisons} comparisons")

    def pass_dispatched(self, candidate, key_index, shards):
        self._line(f"candidate {candidate}: pass over key {key_index + 1} "
                   f"dispatched as {shards} parallel shard(s)")

    def pass_merged(self, candidate, key_index, comparisons, redundant):
        self._line(f"candidate {candidate}: pass over key {key_index + 1} "
                   f"merged ({comparisons} comparisons, "
                   f"{redundant} redundant)")

    def strategy_pairs_generated(self, candidate, strategy, generated, fresh):
        self._line(f"candidate {candidate}: strategy {strategy} proposed "
                   f"{generated} pair(s) ({fresh} fresh)")

    def decision_calibrated(self, candidate, calibration):
        self._line(f"candidate {candidate}: three-way bands "
                   f"auto-dup>={calibration.upper:.4f} "
                   f"review>={calibration.lower:.4f} "
                   f"(target FPR {calibration.target_fpr:.3f}, "
                   f"empirical {calibration.empirical_fpr:.4f}, "
                   f"CP bound {calibration.fpr_upper_bound:.4f})")

    def pair_demoted(self, candidate, left_eid, right_eid, score):
        self._line(f"candidate {candidate}: demoted {left_eid}~{right_eid} "
                   f"(score {score:.4f}) to REVIEW "
                   f"(anti-transitive evidence)")

    def candidate_finished(self, candidate, outcome):
        self._line(f"candidate {candidate}: {len(outcome.pairs)} duplicate "
                   f"pair(s) from {outcome.comparisons} comparisons "
                   f"(SW {outcome.window_seconds:.3f}s, "
                   f"TC {outcome.closure_seconds:.3f}s)")

    def comparison_stats(self, candidate, stats):
        self._line(
            f"candidate {candidate}: comparison plane: "
            f"{stats.pairs_prefiltered} prefiltered, "
            f"{stats.pairs_pruned} pruned mid-pair, "
            f"{stats.edit_full_evals} full edit DPs, "
            f"phi cache {stats.phi_cache_hit_rate:.0%} hits")

    def cache_loaded(self, directory, entries, segments):
        self._line(f"phi cache: loaded {entries} entries from "
                   f"{segments} segment(s) in {directory}")

    def cache_flushed(self, directory, entries, segments):
        self._line(f"phi cache: flushed {entries} new entries to {directory}")

    def index_opened(self, directory, candidates, segments):
        self._line(f"index: opened {directory} ({candidates} candidate(s) "
                   f"resumable, {segments} segment(s))")

    def index_committed(self, directory, candidate, pairs):
        what = f"candidate {candidate}" if candidate is not None \
            else "session state"
        self._line(f"index: committed {what} ({pairs} pair(s)) "
                   f"to {directory}")

    def warning(self, message):
        self._line(f"warning: {message}")


class TraceObserver(EngineObserver):
    """Streams one line per compared pair (``sxnm detect --trace``)."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def pair_compared(self, candidate, left_eid, right_eid, verdict):
        descendants = ("-" if verdict.descendants is None
                       else f"{verdict.descendants:.3f}")
        marker = " DUPLICATE" if verdict.is_duplicate else ""
        print(f"# {candidate} {left_eid}~{right_eid} od={verdict.od:.3f} "
              f"desc={descendants}{marker}", file=self.stream, flush=True)

    def pair_filtered(self, candidate, left_eid, right_eid):
        print(f"# {candidate} {left_eid}~{right_eid} filtered",
              file=self.stream, flush=True)

    def pair_demoted(self, candidate, left_eid, right_eid, score):
        print(f"# {candidate} {left_eid}~{right_eid} score={score:.3f} "
              f"DEMOTED", file=self.stream, flush=True)

    def comparison_stats(self, candidate, stats):
        print(f"# {candidate} comparison plane: "
              f"scored={stats.pairs_scored} "
              f"prefiltered={stats.pairs_prefiltered} "
              f"pruned={stats.pairs_pruned} "
              f"fields={stats.fields_evaluated} "
              f"skipped={stats.fields_skipped} "
              f"short-circuits={stats.filter_short_circuits} "
              f"cache-hits={stats.phi_cache_hits} "
              f"cache-misses={stats.phi_cache_misses} "
              f"cache-disk-hits={stats.phi_cache_disk_hits} "
              f"cache-spilled={stats.phi_cache_spilled} "
              f"edit-full={stats.edit_full_evals} "
              f"edit-banded={stats.edit_bounded_evals}",
              file=self.stream, flush=True)
        for name, counters in sorted(stats.strategy_counters.items()):
            print(f"# {candidate} strategy {name}: "
                  + " ".join(f"{key}={counters[key]}"
                             for key in sorted(counters)),
                  file=self.stream, flush=True)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data", help="XML data file")
    parser.add_argument("-c", "--config", required=True,
                        help="SXNM configuration XML file")
    parser.add_argument("-w", "--window", type=int, default=None,
                        help="override the configured window size")


def _cmd_keygen(args: argparse.Namespace) -> int:
    from .core import generate_gk, save_gk
    config = load_config_file(args.config)
    document = parse_file(args.data)
    tables = generate_gk(document, config)
    save_gk(tables, args.output)
    total_rows = sum(len(table) for table in tables.values())
    print(f"wrote {args.output} ({len(tables)} GK tables, {total_rows} rows)")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = load_config_file(args.config)
    stream = getattr(args, "stream", False)
    if stream:
        # Out-of-core mode never materializes the document: the
        # detector consumes the file as an event stream.
        from .core import XmlFileSource
        source = XmlFileSource(args.data)
    else:
        source = parse_file(args.data)
    gk = None
    if getattr(args, "gk", None):
        from .core import load_gk
        gk = load_gk(args.gk)
    observers: list[EngineObserver] = []
    if getattr(args, "progress", False):
        observers.append(ProgressObserver())
    if getattr(args, "trace", False):
        observers.append(TraceObserver())
    use_filters = True if getattr(args, "filters", False) else None
    decision = getattr(args, "decision", None) or "gates"
    review_out = getattr(args, "review_out", None)
    if review_out and decision != "three-way":
        print("error: --review-out requires --decision three-way",
              file=sys.stderr)
        return 1
    review_queue = None
    calibration = None
    if decision == "three-way":
        from .decision import ReviewQueue, calibrate_document
        from .errors import DetectionError
        review_queue = ReviewQueue()
        if stream:
            print("# warning: --stream cannot self-calibrate (the document "
                  "is never materialized); using the configured thresholds "
                  "as a degenerate zero-width band", file=sys.stderr)
        else:
            fpr = getattr(args, "fpr", None)
            coverage = getattr(args, "coverage", None)
            try:
                calibration = calibrate_document(
                    source, config,
                    fpr=fpr if fpr is not None else config.decision_fpr,
                    coverage=(coverage if coverage is not None
                              else config.decision_coverage),
                    window=args.window)
            except DetectionError as error:
                print(f"# warning: {error}", file=sys.stderr)
                print("# warning: falling back to the configured thresholds "
                      "as a degenerate zero-width band", file=sys.stderr)
    result = SxnmDetector(config, use_filters=use_filters,
                          workers=getattr(args, "workers", None),
                          phi_cache_dir=getattr(args, "phi_cache_dir", None),
                          index_dir=getattr(args, "index", None),
                          stream=(True if stream else None),
                          spill_dir=getattr(args, "spill_dir", None),
                          spill_max_rows=getattr(args, "spill_max_rows", None),
                          strategies=getattr(args, "strategy", None),
                          decision=decision,
                          decision_fpr=getattr(args, "fpr", None),
                          decision_coverage=getattr(args, "coverage", None),
                          calibration=calibration,
                          review_queue=review_queue,
                          observers=observers).run(
        source, window=args.window, gk=gk,
        resume=getattr(args, "resume", False))
    lines = []
    for name, outcome in result.outcomes.items():
        clusters = outcome.cluster_set.duplicate_clusters()
        lines.append(f"candidate {name}: {len(clusters)} duplicate cluster(s), "
                     f"{outcome.comparisons} comparisons")
        for cluster in clusters:
            lines.append(f"  eids {cluster}")
        stats = outcome.compare_stats
        if review_queue is not None and stats is not None:
            lines.append(f"  bands: {stats.pairs_auto_dup} auto-dup, "
                         f"{stats.pairs_review} review, "
                         f"{stats.pairs_auto_keep} auto-keep")
    if review_queue is not None:
        lines.append(f"review queue: {len(review_queue)} pair(s), "
                     f"{review_queue.demoted_count()} demoted")
        if review_out:
            written = review_queue.write(review_out)
            lines.append(f"wrote {written} review item(s) to {review_out}")
    timings = result.timings
    lines.append(f"KG {timings.key_generation:.3f}s  "
                 f"SW {timings.window:.3f}s  TC {timings.closure:.3f}s")
    output = "\n".join(lines)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    print(output)
    return 0


def _cmd_dedup(args: argparse.Namespace) -> int:
    config = load_config_file(args.config)
    document = parse_file(args.data)
    result = SxnmDetector(config).run(document, window=args.window)
    deduped = deduplicate_document(document, result)
    write_file(deduped, args.output)
    removed = document.element_count() - deduped.element_count()
    print(f"wrote {args.output} ({removed} elements removed)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config_file(args.config)
    document = parse_file(args.data)
    result = SxnmDetector(config).run(document, window=args.window)
    rows = []
    names = [args.candidate] if args.candidate else \
        [spec.name for spec in config.candidates]
    for name in names:
        spec = config.candidate(name)
        gold = gold_pairs(document, spec.xpath, oid_attribute=args.oid)
        metrics = evaluate_pairs(result.pairs(name), gold)
        rows.append([name, metrics.precision, metrics.recall,
                     metrics.f_measure, len(result.pairs(name))])
    print(render_table(["candidate", "precision", "recall", "f-measure",
                        "pairs"], rows))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.corpus == "movies":
        if args.profile == "clean":
            from .datagen import generate_clean_movies
            document = generate_clean_movies(args.count, seed=args.seed)
        else:
            document = generate_dirty_movies(args.count, seed=args.seed,
                                             profile=args.profile)
    elif args.profile == "large":
        document = generate_dataset3(args.count, seed=args.seed)
    else:
        document = generate_dataset2(args.count, seed=args.seed)
    write_file(document, args.output)
    print(f"wrote {args.output} ({document.element_count()} elements)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core import explain_pair
    config = load_config_file(args.config)
    document = parse_file(args.data)
    try:
        left_text, right_text = args.pair.split(",", 1)
        left_eid, right_eid = int(left_text), int(right_text)
    except ValueError:
        print("error: --pair expects two integers like '12,47'",
              file=sys.stderr)
        return 1
    result = SxnmDetector(config).run(document, window=args.window)
    try:
        explanation = explain_pair(result, config, args.candidate,
                                   left_eid, right_eid)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(explanation.render())
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .core.index import DetectionIndex

    if args.action == "init":
        if not args.config:
            print("error: 'sxnm index init' requires -c/--config",
                  file=sys.stderr)
            return 1
        config = load_config_file(args.config)
        index = DetectionIndex(args.directory,
                               warn=lambda m: print(f"# warning: {m}",
                                                    file=sys.stderr))
        index.open()
        if not index.usable:
            print(f"error: cannot use index directory {args.directory!r}",
                  file=sys.stderr)
            return 1
        index.initialize(config)
        print(f"initialized index {args.directory} "
              f"(config fingerprint {index.fingerprint})")
        return 0

    index = DetectionIndex(args.directory,
                           read_only=(args.action == "status"),
                           warn=lambda m: print(f"# warning: {m}",
                                                file=sys.stderr))
    index.open()
    if args.action == "compact":
        if not index.usable:
            print(f"error: cannot use index directory {args.directory!r}",
                  file=sys.stderr)
            return 1
        removed = index.compact()
        print(f"compacted {args.directory} "
              f"({removed} unreferenced segment file(s) removed)")
        return 0

    # status
    status = index.status()
    lines = [f"index {status['directory']}"]
    if not status["usable"]:
        lines.append("  (directory missing or unreadable)")
    lines.append(f"  config fingerprint: {status['config_fingerprint']}")
    lines.append(f"  corpus checksum:    {status['corpus_checksum']}")
    lines.append(f"  run parameters:     {status['run_params']}")
    completed = status["completed"]
    lines.append(f"  completed candidates: "
                 f"{', '.join(completed) if completed else '(none)'}")
    deltas = status["session_deltas"]
    lines.append(f"  segments: {len(status['segments']) + len(deltas)} "
                 f"referenced, {status['segment_files']} on disk "
                 f"({len(status['orphan_segments'])} orphaned)")
    for role, name in sorted(status["segments"].items()):
        lines.append(f"    {role}: {name}")
    if deltas:
        lines.append(f"    session deltas: {len(deltas)} "
                     f"(last {deltas[-1]})")
    counters = status["counters"]
    if counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name}: {counters[name]}")
    print("\n".join(lines))
    return 0


def _cmd_review(args: argparse.Namespace) -> int:
    from .decision import ReviewQueue

    queue = ReviewQueue.load(args.queue)
    rows = []
    for item in queue.sorted_items():
        disagreeing = [term for term in item.fields
                       if term.get("similarity") is not None
                       and term["similarity"] < 1.0]
        worst = min(disagreeing,
                    key=lambda term: term["similarity"], default=None)
        worst_text = "-" if worst is None else \
            f"{worst['path']} ({worst['phi']} {worst['similarity']:.3f})"
        rows.append([item.candidate, f"{item.left_eid}~{item.right_eid}",
                     item.band, f"{item.od:.4f}", f"{item.combined:.4f}",
                     "yes" if item.demoted else "no", worst_text])
    print(render_table(["candidate", "pair", "band", "od", "combined",
                        "demoted", "weakest field"], rows,
                       title=f"review queue {args.queue} "
                             f"({len(queue)} pair(s))"))
    if args.fields:
        for item in queue.sorted_items():
            print(f"\n{item.candidate} {item.left_eid}~{item.right_eid}:")
            for term in item.fields:
                similarity = term.get("similarity")
                rendered = "-" if similarity is None else f"{similarity:.4f}"
                print(f"  {term['path']} ({term['phi']}, "
                      f"w={term['relevance']:g}): {rendered}  "
                      f"{term.get('left')!r} ~ {term.get('right')!r}")
    return 0


_EXPERIMENTS = {
    "4a": "recall vs window size, data set 1 (movies)",
    "4b": "precision vs window size, data set 1 (movies)",
    "4c": "f-measure vs window size, data set 2 (CDs)",
    "4d": "precision and duplicate counts, data set 3 (large catalog)",
    "5": "scalability of the SXNM phases (clean/few/many)",
    "6a": "OD-threshold impact, data set 2",
    "6b": "descendants-threshold impact, data set 2",
}


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .eval import render_series, render_table
    from . import experiments as exp

    figure = args.figure
    print(f"Reproducing figure {figure}: {_EXPERIMENTS[figure]}")
    if figure in ("4a", "4b"):
        result = exp.run_dataset1(movie_count=args.scale, seed=args.seed)
        metric = "recall" if figure == "4a" else "precision"
        print(render_series("window", result.windows,
                            exp.series_values(result.sweep, metric),
                            title=f"Fig {figure} ({metric})"))
    elif figure == "4c":
        result = exp.run_dataset2(disc_count=args.scale, seed=args.seed)
        print(render_series("window", result.windows,
                            exp.series_values(result.sweep, "f_measure"),
                            title="Fig 4(c) (f-measure)"))
    elif figure == "4d":
        result = exp.run_dataset3(disc_count=max(args.scale, 500),
                                  seed=args.seed)
        print(render_series("window", result.windows,
                            exp.series_values(result.sweep, "precision"),
                            title="Fig 4(d) (precision)"))
        print()
        print(render_series("window", result.windows,
                            exp.series_values(result.sweep,
                                              "duplicate_pairs"),
                            title="Fig 4(d) (duplicates found)"))
    elif figure == "5":
        sizes = [args.scale // 4, args.scale // 2, args.scale]
        rows = []
        for profile in ("clean", "few", "many"):
            for point in exp.run_scalability(profile, sizes=sizes,
                                             seed=args.seed):
                rows.append([profile, point.movie_count, point.element_count,
                             point.kg_seconds, point.sw_seconds,
                             point.tc_seconds, point.dd_seconds])
        print(render_table(["profile", "movies", "elements", "KG s", "SW s",
                            "TC s", "DD s"], rows, title="Fig 5 (phases)"))
    else:  # 6a / 6b
        if figure == "6a":
            points = exp.sweep_od_threshold(disc_count=args.scale,
                                            seed=args.seed)
        else:
            points = exp.sweep_desc_threshold(disc_count=args.scale,
                                              seed=args.seed)
        rows = [[p.threshold, p.metrics.precision, p.metrics.recall,
                 p.metrics.f_measure] for p in points]
        print(render_table(["threshold", "precision", "recall", "f-measure"],
                           rows, title=f"Fig {figure}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sxnm",
        description="XML duplicate detection using sorted neighborhoods")
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="detect duplicates")
    _add_common(detect)
    detect.add_argument("--report", default=None, help="also write report here")
    detect.add_argument("--gk", default=None,
                        help="reuse GK tables written by 'sxnm keygen' "
                             "(must stem from exactly this data file)")
    detect.add_argument("--progress", action="store_true",
                        help="stream per-candidate progress events from the "
                             "engine observer API to stderr")
    detect.add_argument("--trace", action="store_true",
                        help="stream one line per compared pair to stderr "
                             "(verbose; implies per-pair instrumentation)")
    detect.add_argument("--filters", action="store_true",
                        help="arm the comparison plane's pruning layers "
                             "(length/bag filters, capped edit distances, "
                             "upper-bound aborts); identical results, "
                             "fewer expensive comparisons")
    detect.add_argument("--workers", type=int, default=None, metavar="N",
                        help="shard window passes across N worker processes "
                             "(identical pairs and clusters; comparison "
                             "counts may rise); default: the configuration's "
                             "'workers' attribute")
    detect.add_argument("--phi-cache-dir", default=None, metavar="DIR",
                        dest="phi_cache_dir",
                        help="persist exact phi scores in DIR across runs "
                             "(identical results; repeated detections skip "
                             "recomputing edit distances); default: the "
                             "configuration's 'phiCacheDir' attribute")
    detect.add_argument("--index", default=None, metavar="DIR",
                        help="persist run state (GK tables, per-candidate "
                             "pairs and stats) to a detection index in DIR; "
                             "default: the configuration's 'indexDir' "
                             "attribute")
    detect.add_argument("--resume", action="store_true",
                        help="continue an interrupted run from the detection "
                             "index: committed candidates restore from disk, "
                             "only the rest are detected (bit-identical "
                             "results); refuses when the index does not "
                             "match this configuration, corpus, and "
                             "parameters")
    detect.add_argument("--stream", action="store_true",
                        help="run out-of-core: read the data file as an "
                             "event stream (never materializing the "
                             "document), spill GK rows to checksummed "
                             "sorted run files, and slide the window over "
                             "the externally merged streams; identical "
                             "pairs and clusters to the in-memory path")
    detect.add_argument("--spill-dir", default=None, metavar="DIR",
                        help="directory for --stream run files; default: "
                             "the configuration's 'spillDir' attribute, "
                             "then '<index>/spill', then a self-cleaning "
                             "temporary directory")
    detect.add_argument("--spill-max-rows", type=int, default=None,
                        metavar="N",
                        help="GK rows buffered in memory before each spill "
                             "under --stream (smaller = less memory, more "
                             "run files); default: the configuration's "
                             "'spillMaxRows' attribute")
    detect.add_argument("--strategy", action="append", default=None,
                        metavar="NAME[:K=V,...]", dest="strategy",
                        help="repeatable: candidate-pair generation strategy "
                             "('window', 'exact-key', 'composite', "
                             "'minhash-lsh') with optional parameters, e.g. "
                             "'minhash-lsh:hashes=64,bands=16,seed=7'; the "
                             "deduplicated union of all named strategies "
                             "replaces the window-only neighborhood (include "
                             "'window' to keep the paper's passes as one "
                             "member); default: the configuration's "
                             "<neighborhoodStrategies> element")
    detect.add_argument("--decision", default=None,
                        choices=("gates", "combined", "three-way"),
                        help="pair decision rule: 'gates' the paper's "
                             "od/descendant thresholds, 'combined' one "
                             "weighted score, 'three-way' calibrated "
                             "AUTO_DUP / REVIEW / AUTO_KEEP bands fitted "
                             "from the corpus's oid ground truth "
                             "(Neyman-Pearson FPR cutoff plus a "
                             "split-conformal review floor); without "
                             "labels the band collapses to the configured "
                             "threshold and a warning is printed")
    detect.add_argument("--fpr", type=float, default=None,
                        help="three-way: target false-positive rate for the "
                             "AUTO_DUP band (default: the configuration's "
                             "<decision fpr=>, then 0.05)")
    detect.add_argument("--coverage", type=float, default=None,
                        help="three-way: duplicate coverage level of "
                             "AUTO_DUP+REVIEW (default: the configuration's "
                             "<decision coverage=>, then 0.9)")
    detect.add_argument("--review-out", default=None, metavar="FILE",
                        dest="review_out",
                        help="three-way: write REVIEW-banded pairs (scores, "
                             "band, per-field phi attribution) as JSON "
                             "Lines to FILE; render with "
                             "'sxnm review export FILE'")
    detect.set_defaults(handler=_cmd_detect)

    keygen = sub.add_parser(
        "keygen", help="run only the key-generation phase, store GK tables")
    _add_common(keygen)
    keygen.add_argument("-o", "--output", required=True,
                        help="where to write the GK tables (XML)")
    keygen.set_defaults(handler=_cmd_keygen)

    dedup = sub.add_parser("dedup", help="write a deduplicated document")
    _add_common(dedup)
    dedup.add_argument("-o", "--output", required=True)
    dedup.set_defaults(handler=_cmd_dedup)

    evaluate = sub.add_parser("evaluate",
                              help="score detection against oid ground truth")
    _add_common(evaluate)
    evaluate.add_argument("--candidate", default=None,
                          help="evaluate only this candidate")
    evaluate.add_argument("--oid", default="oid",
                          help="ground-truth attribute name (default: oid)")
    evaluate.set_defaults(handler=_cmd_evaluate)

    generate = sub.add_parser("generate", help="generate synthetic corpora")
    generate.add_argument("corpus", choices=["movies", "cds"])
    generate.add_argument("-n", "--count", type=int, default=100)
    generate.add_argument("-o", "--output", default="generated.xml")
    generate.add_argument("--profile", default="effectiveness",
                          help="movies: clean/few/many/effectiveness; "
                               "cds: dataset2/large")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    explain = sub.add_parser(
        "explain", help="explain why a pair of elements is (not) a duplicate")
    _add_common(explain)
    explain.add_argument("--candidate", required=True)
    explain.add_argument("--pair", required=True,
                         help="two element ids, comma-separated (eids as "
                              "printed by 'sxnm detect')")
    explain.set_defaults(handler=_cmd_explain)

    index = sub.add_parser(
        "index", help="manage detection-index directories")
    index_sub = index.add_subparsers(dest="action", required=True)
    index_init = index_sub.add_parser(
        "init", help="create an index stamped with a config fingerprint")
    index_init.add_argument("directory", help="index directory")
    index_init.add_argument("-c", "--config", required=True,
                            help="SXNM configuration XML file")
    index_init.set_defaults(handler=_cmd_index)
    index_status = index_sub.add_parser(
        "status", help="report an index's manifest, segments, and counters")
    index_status.add_argument("directory", help="index directory")
    index_status.set_defaults(handler=_cmd_index, config=None)
    index_compact = index_sub.add_parser(
        "compact", help="remove segment files the manifest no longer "
                        "references")
    index_compact.add_argument("directory", help="index directory")
    index_compact.set_defaults(handler=_cmd_index, config=None)

    review = sub.add_parser(
        "review", help="work with review queues written by "
                       "'sxnm detect --review-out'")
    review_sub = review.add_subparsers(dest="action", required=True)
    review_export = review_sub.add_parser(
        "export", help="render a review-queue JSONL file as a table")
    review_export.add_argument("queue", help="review queue (JSON Lines)")
    review_export.add_argument("--fields", action="store_true",
                               help="also print the full per-field phi "
                                    "attribution of every queued pair")
    review_export.set_defaults(handler=_cmd_review)

    experiments = sub.add_parser(
        "experiments", help="reproduce a figure of the paper's evaluation")
    experiments.add_argument("figure", choices=sorted(_EXPERIMENTS))
    experiments.add_argument("--scale", type=int, default=200,
                             help="corpus size (movies or discs)")
    experiments.add_argument("--seed", type=int, default=42)
    experiments.set_defaults(handler=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``sxnm`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

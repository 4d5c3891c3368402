"""Concrete battery for the blocking/LSH candidate generators.

Faults and edges — empty OD token sets, degenerate all-identical keys
tripping the block-size cap (warn once), unknown strategies itemized by
config validation — plus the configuration surface (compact strings,
XML round-trip), execution-plane composition, the streaming fallback,
and the CLI flag.
"""

import pytest

from repro.config import (StrategySpec, SxnmConfig, dump_config, load_config,
                          parse_composite_fields, strategy_from_string,
                          validate_config)
from repro.core import CounterObserver, EngineObserver, SxnmDetector
from repro.core.blocking import (CompositeFieldBlock, ExactKeyBlock,
                                 MinHashLshStrategy, UnionStrategy,
                                 WindowMember, build_member,
                                 build_union_strategy)
from repro.core.gk import GkRow, GkTable
from repro.datagen import generate_dirty_movies
from repro.errors import ConfigError
from repro.experiments import dataset1_config
from repro.xmlmodel import serialize


class StubContext:
    def __init__(self, table, window=4, key_indices=(0,)):
        self.table = table
        self.window = window
        self.key_indices = list(key_indices)
        self.warnings = []

    def warning(self, message):
        self.warnings.append(message)


def table_of(rows, key_count=1, od_count=2):
    table = GkTable("item", key_count, od_count)
    for eid, keys, ods in rows:
        table.add(GkRow(eid, keys=list(keys), ods=list(ods)))
    return table


@pytest.fixture(scope="module")
def movies():
    return generate_dirty_movies(40, seed=11, profile="effectiveness")


UNION = ["window", "exact-key", "composite",
         "minhash-lsh:hashes=32,bands=8,seed=3"]


class TestGeneratorEdges:
    def test_empty_od_token_sets_never_pair(self):
        strategy = MinHashLshStrategy(hashes=8, bands=2, seed=1)
        table = table_of([(1, ["k1"], [None, ""]),
                          (2, ["k2"], [None, None]),
                          (3, ["k3"], ["", ""])])
        assert strategy.signature(set()) is None
        generated = strategy.generate(StubContext(table))
        assert generated.pairs == set()
        assert generated.oversized_blocks == 0

    def test_exact_key_skips_empty_and_unnormalizable_keys(self):
        table = table_of([(1, [""], ["a", "b"]),
                          (2, [""], ["a", "b"]),
                          (3, ["!!!"], ["a", "b"]),
                          (4, ["?!?"], ["a", "b"]),
                          (5, ["Song A"], ["a", "b"]),
                          (6, ["song-a"], ["a", "b"])])
        generated = ExactKeyBlock().generate(StubContext(table))
        # Only the two normalized-equal keys ("songa") form a block.
        assert generated.pairs == {(5, 6)}

    def test_composite_skips_rows_missing_a_component(self):
        block = CompositeFieldBlock(fields="0,1:3")
        table = table_of([(1, ["k"], ["1999", "matrix"]),
                          (2, ["k"], ["1999", "matrox"]),
                          (3, ["k"], [None, "matrix"]),
                          (4, ["k"], ["1999", ""])])
        generated = block.generate(StubContext(table))
        assert generated.pairs == {(1, 2)}

    def test_oversized_block_is_skipped_and_counted(self):
        rows = [(eid, ["same"], ["x", "y"]) for eid in range(1, 11)]
        generated = ExactKeyBlock(max_block_size=4).generate(
            StubContext(table_of(rows)))
        assert generated.pairs == set()
        assert generated.oversized_blocks == 1

    def test_minhash_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            MinHashLshStrategy(hashes=10, bands=16)
        with pytest.raises(ConfigError):
            MinHashLshStrategy(hashes=0, bands=1)
        with pytest.raises(ConfigError):
            MinHashLshStrategy(max_block_size=1)

    def test_window_member_covers_de_anchor_pairs(self):
        table = table_of([(1, ["a"], ["x", "y"]),
                          (2, ["a"], ["x", "y"]),
                          (3, ["a"], ["x", "y"]),
                          (4, ["b"], ["x", "y"])])
        generated = WindowMember(duplicate_elimination=True).generate(
            StubContext(table, window=2))
        # Anchor pairs within the equal-key group plus the
        # representatives-only window.
        assert {(1, 2), (1, 3)} <= generated.pairs
        assert (1, 4) in generated.pairs
        assert (2, 4) not in generated.pairs


class TestUnionStrategy:
    def test_needs_at_least_one_member(self):
        with pytest.raises(ConfigError):
            UnionStrategy([])

    def test_members_must_be_unique(self):
        with pytest.raises(ConfigError):
            UnionStrategy([ExactKeyBlock(), ExactKeyBlock()])

    def test_build_member_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown neighborhood"):
            build_member(StrategySpec("sorted-hat"))

    def test_build_member_rejects_leftover_params(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            build_member(StrategySpec("exact-key", {"widnow": "3"}))

    def test_build_union_strategy_from_specs(self):
        union = build_union_strategy(
            [StrategySpec("window"),
             StrategySpec("minhash-lsh", {"hashes": "8", "bands": "4"})])
        assert [member.name for member in union.members] \
            == ["window", "minhash-lsh"]

    def test_giant_block_warns_once(self, movies):
        observer = CounterObserver()
        # Every movie block collapses into one giant per-year block far
        # above the cap; the skip must be reported exactly once.
        SxnmDetector(dataset1_config(),
                     strategies=["window", "composite:fields=1,maxBlock=2"],
                     observers=[observer]).run(movies)
        oversized = [text for text in observer.warnings
                     if "maxBlock cap" in text]
        assert len(oversized) == 1

    def test_spilled_table_materializes_with_one_warning(self, movies):
        in_memory = SxnmDetector(dataset1_config(),
                                 strategies=UNION).run(movies)
        observer = CounterObserver()
        streamed = SxnmDetector(dataset1_config(), strategies=UNION,
                                stream=True,
                                observers=[observer]).run(serialize(movies))
        assert streamed.pairs("movie") == in_memory.pairs("movie")
        materialize = [text for text in observer.warnings
                       if "materializing" in text]
        assert len(materialize) == 1

    def test_counter_observer_sees_strategy_events(self, movies):
        observer = CounterObserver()
        result = SxnmDetector(dataset1_config(), strategies=UNION,
                              observers=[observer]).run(movies)
        assert observer.counts["strategy_pairs_generated"] \
            == len(UNION)
        assert observer.counts["strategy_window_generated"] > 0
        stats = result.outcomes["movie"].compare_stats
        assert set(stats.strategy_counters) \
            == {"window", "exact-key", "composite", "minhash-lsh"}


class TestPlaneComposition:
    def test_parallel_plane_matches_serial(self, movies):
        serial = SxnmDetector(dataset1_config(), strategies=UNION,
                              workers=1).run(movies)
        parallel = SxnmDetector(dataset1_config(), strategies=UNION,
                                workers=2).run(movies)
        assert parallel.pairs("movie") == serial.pairs("movie")
        assert parallel.outcomes["movie"].comparisons \
            == serial.outcomes["movie"].comparisons
        assert parallel.outcomes["movie"].compare_stats.strategy_counters \
            == serial.outcomes["movie"].compare_stats.strategy_counters

    def test_phi_cache_dir_composes(self, movies, tmp_path):
        cache = str(tmp_path / "phicache")
        cold = SxnmDetector(dataset1_config(), strategies=UNION,
                            phi_cache_dir=cache).run(movies)
        warm = SxnmDetector(dataset1_config(), strategies=UNION,
                            phi_cache_dir=cache).run(movies)
        assert warm.pairs("movie") == cold.pairs("movie")
        assert warm.outcomes["movie"].compare_stats.phi_cache_disk_hits > 0

    def test_index_dir_composes(self, movies, tmp_path):
        index = str(tmp_path / "index")
        indexed = SxnmDetector(dataset1_config(), strategies=UNION,
                               index_dir=index).run(movies)
        plain = SxnmDetector(dataset1_config(), strategies=UNION).run(movies)
        assert indexed.pairs("movie") == plain.pairs("movie")
        resumed = SxnmDetector(dataset1_config(), strategies=UNION,
                               index_dir=index).run(movies, resume=True)
        assert resumed.pairs("movie") == plain.pairs("movie")


class TestConfigSurface:
    def test_unknown_strategy_name_itemized(self):
        config = dataset1_config()
        config.neighborhood_strategies.append(StrategySpec("sorted-hat"))
        problems = validate_config(config)
        assert any("unknown neighborhood strategy 'sorted-hat'" in text
                   for text in problems)

    def test_duplicate_strategies_rejected(self):
        config = dataset1_config()
        config.neighborhood_strategies = [StrategySpec("window"),
                                          StrategySpec("window")]
        assert any("more than once" in text
                   for text in validate_config(config))

    def test_bad_params_each_itemized(self):
        config = dataset1_config()
        config.neighborhood_strategies = [
            StrategySpec("exact-key", {"maxBlock": "1", "sigma": "9"}),
            StrategySpec("minhash-lsh", {"hashes": "10"})]
        problems = validate_config(config)
        assert any("maxBlock must be >= 2" in text for text in problems)
        assert any("unknown parameter 'sigma'" in text for text in problems)
        assert any("divide evenly" in text for text in problems)

    def test_strategy_from_string_forms(self):
        assert strategy_from_string("window") == StrategySpec("window")
        spec = strategy_from_string("minhash-lsh:hashes=32,bands=8")
        assert spec == StrategySpec("minhash-lsh",
                                    {"hashes": "32", "bands": "8"})
        with pytest.raises(ConfigError):
            strategy_from_string("")
        with pytest.raises(ConfigError):
            strategy_from_string("exact-key:maxBlock")

    def test_parse_composite_fields(self):
        assert parse_composite_fields("1,0:4") == [(1, 0), (0, 4)]
        # An empty prefix is the lenient spelling of "full value".
        assert parse_composite_fields("0:") == [(0, 0)]
        for bad in ("", "a", "-1", "0:x"):
            with pytest.raises(ConfigError):
                parse_composite_fields(bad)

    def test_xml_round_trip(self):
        config = dataset1_config()
        config.neighborhood_strategies = [
            StrategySpec("window"),
            StrategySpec("minhash-lsh", {"hashes": "32", "bands": "8",
                                         "seed": "7"})]
        restored = load_config(dump_config(config))
        assert restored.neighborhood_strategies \
            == config.neighborhood_strategies

    def test_round_trip_omits_empty_strategy_list(self):
        text = dump_config(dataset1_config())
        assert "neighborhoodStrategies" not in text
        assert load_config(text).neighborhood_strategies == []

    def test_invalid_strategy_rejected_at_load(self):
        config = dataset1_config()
        config.neighborhood_strategies = [StrategySpec("sorted-hat")]
        from repro.config.xml_io import config_to_document
        from repro.config import config_from_document
        with pytest.raises(ConfigError, match="unknown neighborhood"):
            config_from_document(config_to_document(config))


class TestCli:
    def test_strategy_flag(self, movies, tmp_path, capsys):
        from repro.cli import main
        from repro.xmlmodel import write_file
        config_path = tmp_path / "config.xml"
        data_path = tmp_path / "data.xml"
        config_path.write_text(dump_config(dataset1_config()),
                               encoding="utf-8")
        write_file(movies, str(data_path))
        assert main(["detect", "-c", str(config_path), str(data_path),
                     "--progress",
                     "--strategy", "window",
                     "--strategy", "minhash-lsh:seed=3"]) == 0
        captured = capsys.readouterr()
        assert "duplicate cluster" in captured.out
        assert "strategy window proposed" in captured.err
        assert "strategy minhash-lsh proposed" in captured.err

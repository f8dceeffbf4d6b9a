"""Program DSL tests: fg/bg splitting and C-source rendering."""

import pytest

from repro.suite.registry import (
    SUITE_REGISTRY,
    TABLE1_GROUPS,
    TABLE2_BENCHMARKS,
    TABLE2_ORDER,
    benchmarks_in_group,
    get_benchmark,
)


class TestProgramSplit:
    def test_foreground_keeps_everything(self):
        program = get_benchmark("close")
        assert len(program.foreground_ops()) == 2

    def test_background_drops_target(self):
        program = get_benchmark("close")
        background = program.background_ops()
        assert len(background) == 1
        assert background[0].call == "open"

    def test_target_ops(self):
        program = get_benchmark("close")
        (target,) = program.target_ops()
        assert target.call == "close"

    def test_expectation_lookup(self):
        program = get_benchmark("dup")
        assert program.expectation("spade") == ("empty", "SC")
        assert program.expectation("opus") == ("ok", "")
        assert program.expectation("nonexistent") is None


class TestCSource:
    def test_close_matches_paper_shape(self):
        source = get_benchmark("close").to_c_source()
        assert "#ifdef TARGET" in source
        assert "#endif" in source
        assert 'open("test.txt", O_RDWR)' in source
        assert "close(id);" in source

    def test_ifdef_wraps_only_target(self):
        source = get_benchmark("read").to_c_source()
        before, _, after = source.partition("#ifdef TARGET")
        assert "open" in before
        assert "read" in after

    def test_trailing_target_closed(self):
        source = get_benchmark("creat").to_c_source()
        assert source.rstrip().endswith("}")
        assert source.count("#ifdef TARGET") == source.count("#endif")


class TestRegistry:
    def test_table2_has_44_rows(self):
        # 23 file + 6 process + 12 permission + 3 pipe rows in Table 2.
        assert len(TABLE2_BENCHMARKS) == 44

    def test_table2_order_matches_registry(self):
        assert set(TABLE2_ORDER) == set(TABLE2_BENCHMARKS)

    def test_every_benchmark_has_three_expectations(self):
        for program in TABLE2_BENCHMARKS.values():
            tools = {tool for tool, _, _ in program.expected}
            assert tools == {"spade", "opus", "camflow"}, program.name

    def test_groups_match_table1(self):
        for program in TABLE2_BENCHMARKS.values():
            assert program.group in TABLE1_GROUPS
            assert program.group_name == TABLE1_GROUPS[program.group][0]

    def test_group_counts(self):
        assert len(benchmarks_in_group(1)) == 23
        assert len(benchmarks_in_group(2)) == 6
        assert len(benchmarks_in_group(3)) == 12
        assert len(benchmarks_in_group(4)) == 3

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("made_up")

    def test_every_target_op_marked(self):
        for _, program in SUITE_REGISTRY.items():
            assert program.target_ops(), f"{program.name} has no target"

    def test_notes_limited_to_paper_vocabulary(self):
        for program in TABLE2_BENCHMARKS.values():
            for _, classification, note in program.expected:
                assert classification in ("ok", "empty")
                assert note in ("", "NR", "SC", "LP", "DV")

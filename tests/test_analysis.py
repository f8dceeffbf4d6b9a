"""Analysis-layer tests: tables, figures, coverage, module sizes."""

import pytest

from repro.analysis.coverage import (
    blind_spot_overlap,
    coverage_for,
    group_coverage,
    render_group_coverage,
)
from repro.analysis.figures import generate_figures
from repro.analysis.loc import count_loc, generate_table4
from repro.analysis.table2 import NOTE_MEANINGS, generate_table2
from repro.analysis.table3 import generate_table3
from repro import ProvMark


@pytest.fixture(scope="module")
def subset_table2():
    return generate_table2(
        benchmarks=["open", "dup", "mknodat", "vfork"], seed=5
    )


class TestTable2:
    def test_cells_match_paper(self, subset_table2):
        assert subset_table2.mismatches() == []
        assert subset_table2.agreement == 1.0

    def test_rendered_cells(self, subset_table2):
        cells = subset_table2.rows["dup"]
        assert cells["spade"].rendered == "empty (SC)"
        assert cells["opus"].rendered == "ok"
        assert cells["camflow"].rendered == "empty (NR)"

    def test_render_includes_notes_legend(self, subset_table2):
        text = subset_table2.render()
        for note, meaning in NOTE_MEANINGS.items():
            assert meaning in text

    def test_vfork_dv_note(self, subset_table2):
        assert subset_table2.rows["vfork"]["spade"].rendered == "ok (DV)"

    def test_universal_blind_spot_row(self, subset_table2):
        cells = subset_table2.rows["mknodat"]
        assert all(c.classification == "empty" for c in cells.values())


class TestTable3:
    def test_structure_summaries(self):
        table = generate_table3(syscalls=("open", "dup"), tools=("spade", "opus"))
        assert table.cells["spade"]["dup"].rendered == "Empty"
        assert "nodes" in table.cells["spade"]["open"].rendered
        assert "digraph" in table.cells["opus"]["open"].dot

    def test_render_lists_all_tools(self):
        table = generate_table3(syscalls=("open",), tools=("spade",))
        assert "--- spade ---" in table.render()

    def test_empty_cells_match_paper(self):
        paper_empty = {
            ("spade", "dup"), ("camflow", "dup"),
            ("opus", "read"), ("opus", "write"), ("opus", "setresuid"),
        }
        table = generate_table3()
        assert set(table.cells) == {"spade", "opus", "camflow"}
        for tool, cells in table.cells.items():
            for syscall, cell in cells.items():
                empty = cell.summary.nodes == 0
                assert empty == ((tool, syscall) in paper_empty), (tool, syscall)


class TestFigures:
    """§5.1's claims about Figures 5-10, on the virtual processing clock."""

    @pytest.fixture(scope="class")
    def figures(self):
        return generate_figures()

    def test_opus_processing_dwarfs_the_others(self, figures):
        opus = figures.processing("opus")
        assert opus > 3 * figures.processing("spade")
        assert opus > 3 * figures.processing("camflow")

    def test_opus_transformation_is_most_of_its_processing(self, figures):
        transformation = sum(
            r.timings.virtual_transformation
            for r in figures.stages["opus"].values()
        )
        assert transformation > figures.processing("opus") / 2

    def test_processing_grows_with_target_size(self, figures):
        for column in figures.scales.values():
            assert all(r.is_ok for r in column.values())
            assert (
                column["scale8"].timings.virtual_processing
                > column["scale1"].timings.virtual_processing
            )

    def test_scale_ratios(self, figures):
        ratios = {tool: figures.scale_ratio(tool) for tool in figures.scales}
        # Figure 9: Neo4j's start-up flattens OPUS's curve the most
        assert ratios["opus"] == min(ratios.values())
        assert ratios["camflow"] > 1.5
        assert ratios["spade"] > 1.2

    def test_every_claim_holds(self, figures):
        assert [text for text, holds in figures.claims() if not holds] == []


class TestCoverage:
    @pytest.fixture(scope="class")
    def results(self):
        provmark = ProvMark(tool="spade", seed=5)
        return [
            provmark.run_benchmark(name)
            for name in ("open", "dup", "pipe", "fork")
        ]

    def test_coverage_report(self, results):
        report = coverage_for(results)["spade"]
        assert set(report.recorded) == {"open", "fork"}
        assert set(report.blind_spots) == {"dup", "pipe"}
        assert report.coverage_ratio == 0.5

    def test_group_coverage(self, results):
        groups = group_coverage(results)["spade"]
        assert groups[1] == (1, 2)   # open ok, dup empty
        assert groups[2] == (1, 1)   # fork
        assert groups[4] == (0, 1)   # pipe

    def test_render_group_coverage(self, results):
        text = render_group_coverage(results)
        assert "spade" in text
        assert "Files 1/2" in text

    def test_blind_spot_overlap(self, results):
        # Single tool: its empties are "universal" within this result set.
        assert blind_spot_overlap(results) == ["dup", "pipe"]


class TestTable4:
    def test_loc_counts_positive(self):
        table = generate_table4()
        for tool in ("spade", "opus", "camflow"):
            assert table.recording[tool] > 50
            assert table.transformation[tool] > 30

    def test_sizes_near_the_papers(self):
        """The paper's modules: 118-192 lines of recording, 74-128 of
        transformation; the simulated recorders land within ~3x."""
        table = generate_table4()
        for tool in ("spade", "opus", "camflow"):
            assert 100 <= table.recording[tool] <= 600
            assert 40 <= table.transformation[tool] <= 300

    def test_recording_modules_bigger_than_transformers(self):
        table = generate_table4()
        for tool in ("spade", "opus", "camflow"):
            assert table.recording[tool] > table.transformation[tool]

    def test_count_loc_skips_comments_and_docstrings(self, tmp_path):
        module_path = tmp_path / "fake.py"
        module_path.write_text(
            '"""Docstring\nspanning lines."""\n# comment\n\nx = 1\ny = 2\n'
        )

        class Fake:
            __file__ = str(module_path)

        assert count_loc(Fake()) == 2

    def test_render(self):
        text = generate_table4().render()
        assert "Recording" in text
        assert "Transformation" in text

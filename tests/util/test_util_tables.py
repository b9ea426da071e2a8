"""Tests for repro.util.tables."""

import pytest

from repro.util.tables import Table, ascii_plot


class TestTable:
    def test_render_aligns_columns(self):
        t = Table(["a", "bb"])
        t.add_row([1, 2])
        t.add_row([100, 2000])
        lines = t.render().splitlines()
        assert lines[0].startswith("a")
        assert all(len(line) <= len(lines[1]) + 2 for line in lines)

    def test_header_and_rule(self):
        t = Table(["x"])
        t.add_row([5])
        lines = t.render().splitlines()
        assert lines[0].strip() == "x"
        assert set(lines[1]) <= {"-", "+"}
        assert lines[2].strip() == "5"

    def test_float_formatting(self):
        t = Table(["v"], float_fmt="{:.2f}")
        t.add_row([3.14159])
        assert "3.14" in t.render()
        assert "3.14159" not in t.render()

    def test_row_width_mismatch_raises(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            t.add_row([1])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_empty_table_renders_header_only(self):
        t = Table(["a"])
        assert len(t.render().splitlines()) == 2

    def test_str_is_render(self):
        t = Table(["a"])
        t.add_row([1])
        assert str(t) == t.render()


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        out = ascii_plot({"a": ([1, 2, 3], [1.0, 2.0, 3.0])})
        assert "o=a" in out
        assert "o" in out.replace("o=a", "")

    def test_multiple_series_distinct_markers(self):
        out = ascii_plot(
            {"a": ([1, 2], [1.0, 2.0]), "b": ([1, 2], [2.0, 1.0])}
        )
        assert "o=a" in out and "x=b" in out

    def test_empty_plot(self):
        assert ascii_plot({}) == "(empty plot)"

    def test_flat_series_no_crash(self):
        out = ascii_plot({"flat": ([1, 2, 3], [5.0, 5.0, 5.0])})
        assert "flat" in out

    def test_title_included(self):
        out = ascii_plot({"a": ([1], [1.0])}, title="speedup")
        assert out.splitlines()[0] == "speedup"

"""Tests for CSV item I/O and the bundled fixtures."""

from __future__ import annotations

import contextlib
import io
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexposure.core import Item, PositionBias, RankingProblem, utility
from fairexposure.datasets import (
    load_jobseeker,
    load_synthetic_news,
    read_items_csv,
    write_items_csv,
)
from fairexposure.lp import solve_problem


def jobseeker_recipe() -> tuple[Item, ...]:
    """Six candidates, groups M/F of three, utilities 0.82 down to 0.77."""
    ids = ("m1", "m2", "m3", "f1", "f2", "f3")
    groups = ("M", "M", "M", "F", "F", "F")
    utilities = (0.82, 0.81, 0.80, 0.79, 0.78, 0.77)
    return tuple(Item(id=i, group=g, utility=u) for i, g, u in zip(ids, groups, utilities))


def news_recipe() -> tuple[Item, ...]:
    """Twenty-five articles n01..n25, the first 15 in group A, the rest in B.

    Each draws an integer rating in 1..5 from seed 11, scales it to
    [0.2, 1.0], adds Gaussian noise (sigma 0.05) and clips to [0, 1].
    """
    rng = np.random.default_rng(11)
    ratings = rng.integers(1, 6, size=25)
    noise = rng.normal(0.0, 0.05, size=25)
    utilities = np.clip(ratings / 5.0 + noise, 0.0, 1.0)
    return tuple(
        Item(id=f"n{k + 1:02d}", group="A" if k < 15 else "B", utility=u)
        for k, u in enumerate(utilities)
    )


def csv_bytes(items) -> bytes:
    buffer = io.StringIO()
    write_items_csv(items, buffer)
    return buffer.getvalue().encode("utf-8")


def shipped_bytes(filename: str) -> bytes:
    return resources.files("fairexposure").joinpath("data", filename).read_bytes()


class TestReadItemsCsv:
    def test_parses_minimal_file(self):
        text = "id,group,utility\nx,G,0.5\ny,H,0.25\n"
        items = read_items_csv(io.StringIO(text))
        assert [it.id for it in items] == ["x", "y"]
        assert [it.group for it in items] == ["G", "H"]
        assert [it.utility for it in items] == [0.5, 0.25]

    def test_whitespace_around_fields_tolerated(self):
        items = read_items_csv(io.StringIO("id,group,utility\n a , G , 0.5 \n"))
        assert items[0].id == "a" and items[0].utility == 0.5

    def test_blank_lines_skipped(self):
        items = read_items_csv(io.StringIO("id,group,utility\n\na,G,0.5\n\n"))
        assert len(items) == 1

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="line 1: expected header"):
            read_items_csv(io.StringIO("a,G,0.5\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            read_items_csv(io.StringIO(""))

    def test_header_only_rejected(self):
        with pytest.raises(ValueError, match="no item rows"):
            read_items_csv(io.StringIO("id,group,utility\n"))

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3: expected 3 fields"):
            read_items_csv(io.StringIO("id,group,utility\na,G,0.5\nb,H\n"))

    def test_bad_utility_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2: utility must be a decimal"):
            read_items_csv(io.StringIO("id,group,utility\na,G,high\n"))

    def test_out_of_range_utility_error_carries_line_number(self):
        with pytest.raises(ValueError, match=r"line 2: utility of item 'a'"):
            read_items_csv(io.StringIO("id,group,utility\na,G,1.5\n"))

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="line 3: duplicate item id 'a'"):
            read_items_csv(io.StringIO("id,group,utility\na,G,0.5\na,H,0.6\n"))

    def test_oversized_field_rejected(self):
        # one field past the csv module's 131072-character limit
        with pytest.raises(ValueError, match="not a valid CSV file"):
            read_items_csv(io.StringIO("[" * 200000))

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="line 2: empty item id"):
            read_items_csv(io.StringIO("id,group,utility\n,G,0.5\n"))

    def test_path_input(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("id,group,utility\na,G,0.5\n", encoding="utf-8")
        assert read_items_csv(path)[0].id == "a"

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with the bytes EF BB BF
        path = tmp_path / "items.csv"
        path.write_bytes(b"\xef\xbb\xbfid,group,utility\na,G,0.5\n")
        assert read_items_csv(path)[0].id == "a"
        with open(path, encoding="utf-8", newline="") as stream:
            assert read_items_csv(stream)[0].id == "a"

    def test_only_one_byte_order_mark_dropped(self):
        with pytest.raises(ValueError, match="line 1: expected header"):
            read_items_csv(io.StringIO("\ufeff\ufeffid,group,utility\na,G,0.5\n"))


# commas, quotes, line breaks and non-ASCII text, half of them stripped
_RAW_FIELD = st.text(alphabet=' a,"\r\n\u00a0\u00e9\u4e2d', max_size=6)
_FIELD_TEXT = st.one_of(_RAW_FIELD.map(str.strip), _RAW_FIELD)
# every kind of number Item accepts: Python floats and ints, numpy scalars
_UTILITY = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0, 1]),
    st.floats(0.0, 1.0).map(np.float64),
    st.floats(0.0, 1.0, width=32).map(np.float32),
)


class TestWriteItemsCsv:
    def test_round_trips_exactly(self, tmp_path):
        items = load_synthetic_news()
        path = tmp_path / "out.csv"
        write_items_csv(items, path)
        assert read_items_csv(path) == items

    def test_carriage_return_id_round_trips(self, tmp_path):
        items = (Item(id="a\rb", group="A", utility=0.5), Item(id="c", group="B", utility=0.25))
        path = tmp_path / "cr.csv"
        write_items_csv(items, path)
        assert path.read_bytes() == b'id,group,utility\n"a\rb",A,0.5\nc,B,0.25\n'
        assert read_items_csv(path) == items

    def test_fields_that_would_read_back_changed_rejected(self):
        # the reader strips fields, so " a" and "a\u00a0" would both read back as "a"
        for item_id, group in ((" a", "A"), ("a\u00a0", "B"), ("b", " B"), ("b", "B\n")):
            with pytest.raises(ValueError, match="leading or trailing whitespace"):
                Item(id=item_id, group=group, utility=0.5)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(_FIELD_TEXT, _FIELD_TEXT, _UTILITY),
            min_size=1,
            max_size=4,
            unique_by=lambda row: row[0],
        )
    )
    def test_every_accepted_item_round_trips(self, fields):
        """Whatever ``Item`` accepts, ``write_items_csv`` then ``read_items_csv`` returns."""
        items = []
        for item_id, group, utility in fields:
            with contextlib.suppress(ValueError):
                items.append(Item(id=item_id, group=group, utility=utility))
        buffer = io.StringIO()
        write_items_csv(items, buffer)
        if items:
            assert read_items_csv(io.StringIO(buffer.getvalue(), newline="")) == tuple(items)

    def test_stream_output(self):
        buffer = io.StringIO()
        write_items_csv(load_jobseeker(), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "id,group,utility"
        assert lines[1] == "m1,M,0.82"
        assert len(lines) == 7


class TestJobseekerFixture:
    def test_generator_values(self):
        items = load_jobseeker()
        assert [it.id for it in items] == ["m1", "m2", "m3", "f1", "f2", "f3"]
        assert [it.group for it in items] == ["M", "M", "M", "F", "F", "F"]
        assert [it.utility for it in items] == [0.82, 0.81, 0.80, 0.79, 0.78, 0.77]
        assert items == jobseeker_recipe()

    def test_bundled_csv_matches_generator(self):
        assert csv_bytes(jobseeker_recipe()) == shipped_bytes("jobseeker.csv")

    def test_reproduces_known_objective(self):
        problem = RankingProblem(
            items=load_jobseeker(), position_bias=PositionBias.log_discount(6)
        )
        report = solve_problem(problem, [])
        assert report.objective == pytest.approx(3.8193, abs=5e-4)


class TestSyntheticNewsFixture:
    def test_shape_and_groups(self):
        items = load_synthetic_news()
        assert len(items) == 25
        assert [it.group for it in items].count("A") == 15
        assert [it.group for it in items].count("B") == 10
        assert items[0].id == "n01" and items[24].id == "n25"
        assert all(0.0 <= it.utility <= 1.0 for it in items)

    def test_bundled_csv_matches_generator(self):
        assert csv_bytes(news_recipe()) == shipped_bytes("synthetic_news.csv")

    def test_matches_documented_recipe(self):
        assert load_synthetic_news() == news_recipe()

    def test_prp_utility_positive(self):
        items = load_synthetic_news()
        problem = RankingProblem(
            items=items, position_bias=PositionBias.log_discount(25)
        )
        identity = np.eye(25)[np.argsort([-it.utility for it in items], kind="stable")]
        assert utility(identity.T, problem) > 0

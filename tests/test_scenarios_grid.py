"""Tests for sweep-grid expansion, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    ScenarioError,
    apply_overrides,
    expand_grid,
    grid_size,
    load_scenario,
    validate_doc,
)
from repro.scenarios.registry import Scenario


def make_scenario(doc, name="test"):
    errors = validate_doc(doc)
    assert not errors, errors
    return Scenario(name=name, title="", description="",
                    path="<inline>", doc=doc)


def base_doc(**grid):
    doc = {"scenario": {"name": "test"}, "run": {"schemes": ["hdr"]}}
    if grid:
        doc["grid"] = grid
    return doc


class TestApplyOverrides:
    def test_deep_copy_leaves_original(self):
        doc = {"settings": {"num_items": 6}}
        out = apply_overrides(doc, {"settings.num_items": 4})
        assert out["settings"]["num_items"] == 4
        assert doc["settings"]["num_items"] == 6

    def test_creates_missing_tables(self):
        out = apply_overrides({}, {"caching.onpath.strategy": "lcd"})
        assert out["caching"]["onpath"]["strategy"] == "lcd"


class TestExpandGrid:
    def test_no_grid_is_one_point(self):
        points = expand_grid(make_scenario(base_doc()))
        assert len(points) == 1
        assert points[0].overrides == ()
        assert points[0].doc["run"]["schemes"] == ["hdr"]

    def test_scalar_axis_count_and_order(self):
        doc = base_doc(axes=[
            {"key": "settings.refresh_interval_hours",
             "values": [6.0, 12.0, 24.0]},
        ])
        points = expand_grid(make_scenario(doc))
        assert [p.doc["settings"]["refresh_interval_hours"]
                for p in points] == [6.0, 12.0, 24.0]
        assert [p.label for p in points] == [
            "refresh_interval_hours=6.0",
            "refresh_interval_hours=12.0",
            "refresh_interval_hours=24.0",
        ]

    def test_cartesian_product_order(self):
        doc = base_doc(axes=[
            {"key": "settings.num_items", "values": [2, 3]},
            {"key": "settings.num_sources", "values": [1, 2]},
        ])
        points = expand_grid(make_scenario(doc))
        combos = [(p.doc["settings"]["num_items"],
                   p.doc["settings"]["num_sources"]) for p in points]
        assert combos == [(2, 1), (2, 2), (3, 1), (3, 2)]

    def test_labeled_cases(self):
        doc = base_doc(axes=[
            {"name": "engine",
             "cases": [
                 {"label": "object"},
                 {"label": "soa", "overrides": {"run.backend": "soa"}},
             ]},
        ])
        points = expand_grid(make_scenario(doc))
        assert points[0].label == "engine=object"
        assert points[0].doc["run"].get("backend", "object") == "object"
        assert points[1].label == "engine=soa"
        assert points[1].doc["run"]["backend"] == "soa"

    def test_grid_table_stripped_from_point_docs(self):
        doc = base_doc(axes=[{"key": "settings.num_items", "values": [2]}])
        points = expand_grid(make_scenario(doc))
        assert "grid" not in points[0].doc

    def test_jointly_invalid_point_rejected_with_label(self):
        # each case is individually valid, but soa + queries-on is not
        doc = {
            "scenario": {"name": "test"},
            "run": {"schemes": ["hdr"]},
            "grid": {"axes": [
                {"key": "run.with_queries", "values": [False, True]},
                {"name": "engine",
                 "cases": [
                     {"label": "object"},
                     {"label": "soa", "overrides": {"run.backend": "soa"}},
                 ]},
            ]},
        }
        with pytest.raises(ScenarioError) as err:
            expand_grid(make_scenario(doc))
        message = str(err.value)
        assert "grid point 3" in message
        assert "with_queries=True/engine=soa" in message

    def test_over_capacity_point_rejected_with_label(self):
        doc = base_doc(axes=[{"key": "settings.fanout", "values": [3, 1]}])
        with pytest.raises(ScenarioError) as err:
            expand_grid(make_scenario(doc))
        message = str(err.value)
        assert "grid point 1 (fanout=1)" in message
        assert "num_caching_nodes = 12 exceeds the hdr tree capacity 3" in message
        assert "grid point 0" not in message

    def test_grid_size_matches_expansion(self, tmp_path):
        from pathlib import Path

        for path in (Path(__file__).resolve().parents[1]
                     / "scenarios").glob("*.toml"):
            scenario = load_scenario(path)
            assert grid_size(scenario) == len(expand_grid(scenario))


# -- hypothesis property tests ---------------------------------------------

_scalar_axes = st.lists(
    st.tuples(
        st.sampled_from([
            ("settings.num_items", st.integers(1, 8)),
            # fanout 1 holds only 3 of the default 12 caching nodes at
            # depth 3, so validation rejects it (see
            # test_over_capacity_point_rejected_with_label)
            ("settings.fanout", st.integers(2, 5)),
            ("settings.refresh_interval_hours",
             st.floats(1.0, 48.0, allow_nan=False)),
            ("settings.zipf_exponent", st.floats(0.0, 2.0, allow_nan=False)),
        ]),
        st.integers(1, 4),
    ),
    min_size=0,
    max_size=3,
    unique_by=lambda pair: pair[0][0],
)


@st.composite
def grid_docs(draw):
    axes = []
    for (key, value_strategy), count in draw(_scalar_axes):
        values = draw(st.lists(value_strategy, min_size=count,
                               max_size=count, unique=True))
        axes.append({"key": key, "values": values})
    doc = base_doc(**({"axes": axes} if axes else {}))
    return doc, axes


@given(grid_docs())
@settings(max_examples=50, deadline=None)
def test_expansion_count_is_product_of_axis_sizes(case):
    doc, axes = case
    points = expand_grid(make_scenario(doc))
    expected = 1
    for axis in axes:
        expected *= len(axis["values"])
    assert len(points) == expected
    # labels are unique and indices sequential
    assert len({p.label for p in points}) == len(points)
    assert [p.index for p in points] == list(range(len(points)))


@given(grid_docs())
@settings(max_examples=50, deadline=None)
def test_every_point_carries_exactly_its_overrides(case):
    doc, axes = case
    for point in expand_grid(make_scenario(doc)):
        # each axis key appears exactly once in the overrides, and the
        # document reflects the override value
        override_keys = [k for k, _ in point.overrides]
        assert sorted(override_keys) == sorted(a["key"] for a in axes)
        for dotted, value in point.overrides:
            table, _, key = dotted.rpartition(".")
            target = point.doc
            for part in table.split("."):
                target = target[part]
            assert target[key] == value
        # every expanded document is itself a valid scenario document
        assert validate_doc(point.doc) == []


@given(grid_docs())
@settings(max_examples=25, deadline=None)
def test_expansion_is_deterministic(case):
    doc, _ = case
    scenario = make_scenario(doc)
    first = expand_grid(scenario)
    second = expand_grid(scenario)
    assert [(p.label, p.overrides) for p in first] == [
        (p.label, p.overrides) for p in second
    ]
    assert [p.doc for p in first] == [p.doc for p in second]

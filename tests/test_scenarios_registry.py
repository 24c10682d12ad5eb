"""Tests for the TOML scenario registry: loading and eager validation."""

import pytest

from repro.scenarios import (
    SCHEMA,
    ScenarioError,
    load_registry,
    load_scenario,
    validate_doc,
)

MINIMAL = """
[scenario]
name = "minimal"

[run]
schemes = ["hdr"]
"""

FULL = """
[scenario]
name = "full"
title = "Everything at once"
description = "Uses every table of the schema."

[settings]
profile = "small"
duration_hours = 24.0
seeds = [1, 2]
num_caching_nodes = 5
num_items = 4
num_sources = 1
refresh_interval_hours = 6.0
freshness_requirement = 0.9
lifetime_factor = 2.0
item_size = 512
query_rate_per_day = 4.0
zipf_exponent = 0.8
probe_interval_minutes = 20.0
warmup_fraction = 0.1
fanout = 3
max_depth = 3
max_relays = 5
refresh_jitter = 0.25

[run]
schemes = ["hdr", "flooding"]
with_queries = true
backend = "object"

[workload.diurnal]
activity = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

[[workload.flash_crowds]]
start_hours = 10.0
length_hours = 2.0
boost = 5.0
focus = 2
focus_weight = 0.6

[caching.onpath]
strategy = "lcd"
capacity = 4

[faults.messages]
loss_rate = 0.05

[[grid.axes]]
key = "settings.refresh_interval_hours"
values = [6.0, 12.0]
"""


class TestLoadScenario:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "minimal.toml"
        path.write_text(MINIMAL)
        scenario = load_scenario(path)
        assert scenario.name == "minimal"
        assert scenario.schemes == ("hdr",)
        assert scenario.path == str(path)
        assert scenario.doc["run"]["schemes"] == ["hdr"]

    def test_full_schema_round_trip(self, tmp_path):
        path = tmp_path / "full.toml"
        path.write_text(FULL)
        scenario = load_scenario(path)
        assert scenario.title == "Everything at once"
        assert scenario.doc["caching"]["onpath"]["strategy"] == "lcd"
        assert len(scenario.doc["workload"]["flash_crowds"]) == 1

    def test_parse_error_names_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[scenario\nname=")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)
        assert "TOML parse error" in str(err.value)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "absent.toml")


class TestValidation:
    def test_unknown_key_names_table_and_key(self):
        errors = validate_doc(
            {"scenario": {"name": "x", "nam": "typo"},
             "run": {"schemes": ["hdr"]}}
        )
        assert any("[scenario]" in e and "'nam'" in e for e in errors)

    def test_unknown_table_rejected(self):
        errors = validate_doc(
            {"scenario": {"name": "x"}, "run": {"schemes": ["hdr"]},
             "settngs": {}}
        )
        assert any("[settngs]" in e for e in errors)

    def test_bad_type_names_key(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "settings": {"num_items": "six"}}
        )
        assert any("[settings]" in e and "num_items" in e
                   and "expected integer" in e for e in errors)

    def test_bool_is_not_an_integer(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "settings": {"num_items": True}}
        )
        assert any("num_items" in e for e in errors)

    def test_all_errors_collected_at_once(self):
        errors = validate_doc(
            {"scenario": {},
             "run": {"schemes": ["bogus"], "backend": "gpu"},
             "settings": {"profile": "nope", "duration_hours": -1}}
        )
        assert len(errors) >= 5
        joined = "\n".join(errors)
        assert "missing required key 'name'" in joined
        assert "bogus" in joined
        assert "'object' or 'soa'" in joined
        assert "unknown profile" in joined
        assert "must be positive" in joined

    def test_out_of_range_values(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "settings": {"warmup_fraction": 1.0,
                          "freshness_requirement": 0.0}}
        )
        assert any("warmup_fraction" in e for e in errors)
        assert any("freshness_requirement" in e for e in errors)

    def test_cycle_requires_queries(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "workload": {"diurnal": {}}}
        )
        assert errors == [
            "[workload]: diurnal/flash_crowds need [run] with_queries = true"
        ]

    def test_onpath_requires_queries(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "caching": {"onpath": {"strategy": "lce"}}}
        )
        assert any("[caching.onpath]" in e and "with_queries" in e
                   for e in errors)

    def test_soa_restrictions(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"], "backend": "soa",
                     "with_queries": True},
             "placement": {"policy": "popularity"},
             "faults": {"messages": {"loss_rate": 0.1}}}
        )
        joined = "\n".join(errors)
        assert "does not support [run] with_queries" in joined
        assert "does not support [faults]" in joined
        assert "does not support [placement]" in joined

    def test_tree_capacity_names_the_keys(self):
        crowded = {"num_caching_nodes": 10, "fanout": 2, "max_depth": 2}
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "settings": crowded,
             "run": {"schemes": ["hdr", "random", "flat", "source"]}}
        )
        assert errors == [
            f"[settings]: num_caching_nodes = 10 exceeds the {scheme} tree "
            "capacity 6 (fanout = 2, max_depth = 2)"
            for scheme in ("hdr", "random")
        ]
        assert validate_doc(
            {"scenario": {"name": "x"},
             "settings": crowded,
             "run": {"schemes": ["flat", "source", "flooding"]}}
        ) == []
        assert validate_doc(
            {"scenario": {"name": "x"},
             "settings": {**crowded, "num_caching_nodes": 6},
             "run": {"schemes": ["hdr"]}}
        ) == []

    def test_fault_errors_are_forwarded(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "faults": {"messages": {"loss_rat": 0.1}}}
        )
        assert any(e.startswith("[faults]:") and "loss_rat" in e
                   for e in errors)

    def test_flash_crowd_missing_required(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"], "with_queries": True},
             "workload": {"flash_crowds": [{"boost": 2.0}]}}
        )
        joined = "\n".join(errors)
        assert "missing required key 'start_hours'" in joined
        assert "missing required key 'length_hours'" in joined

    def test_diurnal_activity_shape(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"], "with_queries": True},
             "workload": {"diurnal": {"activity": [1.0, 2.0]}}}
        )
        assert any("exactly 24" in e for e in errors)

    def test_grid_unsweepable_key(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "grid": {"axes": [{"key": "scenario.name",
                                "values": ["a"]}]}}
        )
        assert any("not sweepable" in e for e in errors)

    def test_grid_values_typed_against_schema(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "grid": {"axes": [{"key": "settings.num_items",
                                "values": [2, -3]}]}}
        )
        assert any("[grid.axes] #0" in e and "must be >= 1" in e
                   for e in errors)

    def test_grid_case_axis_validated(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "grid": {"axes": [{"name": "engine",
                                "cases": [{"label": "bad",
                                           "overrides": {
                                               "run.backend": "gpu"}}]}]}}
        )
        assert any("case #0" in e and "run.backend" in e for e in errors)

    def test_grid_axis_must_pick_a_shape(self):
        errors = validate_doc(
            {"scenario": {"name": "x"},
             "run": {"schemes": ["hdr"]},
             "grid": {"axes": [{"name": "only-a-name"}]}}
        )
        assert any("either key+values" in e for e in errors)


class TestRegistry:
    def test_empty_directory(self, tmp_path):
        assert load_registry(tmp_path) == {}

    def test_duplicate_name_names_both_files(self, tmp_path):
        (tmp_path / "a.toml").write_text(MINIMAL)
        (tmp_path / "b.toml").write_text(MINIMAL)
        with pytest.raises(ScenarioError) as err:
            load_registry(tmp_path)
        message = str(err.value)
        assert "duplicate name 'minimal'" in message
        assert "a.toml" in message and "b.toml" in message

    def test_committed_scenarios_all_load(self):
        from pathlib import Path

        registry = load_registry(Path(__file__).resolve().parents[1]
                                 / "scenarios")
        assert len(registry) >= 6
        for scenario in registry.values():
            assert scenario.schemes


class TestSchemaDocs:
    def test_every_schema_key_is_documented(self):
        """docs/SCENARIOS.md must mention every table and key of the
        schema -- the registry's reference page cannot drift."""
        from pathlib import Path

        text = (Path(__file__).resolve().parents[1] / "docs"
                / "SCENARIOS.md").read_text(encoding="utf-8")
        for row in SCHEMA:
            assert f"`{row.key}`" in text, (
                f"docs/SCENARIOS.md does not document {row.table}.{row.key}"
            )
        for table in ("[scenario]", "[settings]", "[run]",
                      "[workload.diurnal]", "[caching.onpath]",
                      "[placement]", "[faults]", "[grid]"):
            assert table in text, (
                f"docs/SCENARIOS.md does not document the {table} table"
            )
        assert "[[workload.flash_crowds]]" in text
        assert "[[grid.axes]]" in text


class TestSchemaIntrospection:
    def test_every_schema_key_has_doc_and_type(self):
        for row in SCHEMA:
            assert row.doc, f"{row.table}.{row.key} lacks documentation"
            assert row.type in {
                "string", "boolean", "integer", "float",
                "array of integers", "array of floats", "array of strings",
            }

    def test_schema_keys_unique_per_table(self):
        seen = set()
        for row in SCHEMA:
            assert (row.table, row.key) not in seen
            seen.add((row.table, row.key))

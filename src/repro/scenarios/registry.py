"""TOML scenario registry: schema, eager validation, loading.

A *scenario* is a declarative TOML file composing a mobility profile, an
experiment configuration, a refresh-scheme list, and optional workload
cycles, on-path caching, placement policies, fault plans and sweep grids
-- everything a hand-written experiment module wires in code.  The
registry turns opening a new workload into a data change: drop a file in
``scenarios/`` and run it with ``repro scenario run <name>``.

Validation is **eager and complete**: :func:`load_scenario` parses the
file once and collects *every* problem -- unknown tables, unknown keys,
wrong types, out-of-range values -- into one :class:`ScenarioError`
whose messages each name the offending file, table and key.  Nothing
downstream (grid expansion, composition, workers) runs until the file is
clean, the same convention as :meth:`Settings.validate
<repro.experiments.config.Settings.validate>` and the fault-plan loader.

The schema itself is data: :data:`SCHEMA` is a tuple of
:class:`SchemaKey` rows (table, key, type, default, requiredness,
validation rule, documentation).  The validator walks it, the docs
(``docs/SCENARIOS.md``) are written from it, and a test cross-checks
that every row appears in the docs -- so schema and reference cannot
drift apart silently.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.scheme import SCHEMES
from repro.experiments.config import Settings
from repro.experiments.runner import TREE_KNOBS, tree_capacity_problem
from repro.mobility.calibration import list_profiles

#: default directory of committed scenario files, relative to the repo root
DEFAULT_SCENARIO_DIR = "scenarios"


class ScenarioError(ValueError):
    """All validation problems of one scenario file, at once."""

    def __init__(self, file: str, errors: list[str]) -> None:
        self.file = str(file)
        self.errors = list(errors)
        details = "\n".join(f"  - {err}" for err in self.errors)
        super().__init__(f"invalid scenario {self.file}:\n{details}")


# -- schema ----------------------------------------------------------------

#: type names used by the schema; each maps to an ``isinstance`` check
#: (bool is excluded from the numeric types -- TOML booleans are not
#: numbers even though Python's ``bool`` subclasses ``int``)
_TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "array of integers": lambda v: isinstance(v, list)
    and all(isinstance(x, int) and not isinstance(x, bool) for x in v),
    "array of floats": lambda v: isinstance(v, list)
    and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v),
    "array of strings": lambda v: isinstance(v, list)
    and all(isinstance(x, str) for x in v),
}


@dataclass(frozen=True)
class SchemaKey:
    """One documented, validated key of the scenario TOML schema."""

    table: str  #: dotted table name, e.g. ``"settings"`` or ``"caching.onpath"``
    key: str
    type: str  #: one of the :data:`_TYPE_CHECKS` names
    doc: str
    required: bool = False
    default: Any = None  #: shown in docs; ``None`` = no default (optional/required)
    check: Optional[Callable[[Any], Optional[str]]] = None  #: extra rule -> error text

    def problem(self, value: Any) -> Optional[str]:
        """The validation error for ``value``, or ``None`` if it is fine."""
        if not _TYPE_CHECKS[self.type](value):
            return f"expected {self.type}, got {value!r}"
        if self.check is not None:
            return self.check(value)
        return None


def _positive(value) -> Optional[str]:
    return None if value > 0 else f"must be positive, got {value}"


def _non_negative(value) -> Optional[str]:
    return None if value >= 0 else f"must be >= 0, got {value}"


def _at_least_one(value) -> Optional[str]:
    return None if value >= 1 else f"must be >= 1, got {value}"


def _fraction_open_closed(value) -> Optional[str]:
    return None if 0 < value <= 1 else f"must be in (0, 1], got {value}"


def _fraction_closed_open(value) -> Optional[str]:
    return None if 0 <= value < 1 else f"must be in [0, 1), got {value}"


def _fraction_closed(value) -> Optional[str]:
    return None if 0 <= value <= 1 else f"must be in [0, 1], got {value}"


def _non_empty(value) -> Optional[str]:
    return None if value else "must be non-empty"


def _known_profile(value) -> Optional[str]:
    known = list_profiles()
    if value in known:
        return None
    return f"unknown profile {value!r}; available: {known}"


def _known_schemes(value) -> Optional[str]:
    if not value:
        return "must list at least one scheme"
    unknown = [s for s in value if s not in SCHEMES]
    if unknown:
        return f"unknown scheme(s) {unknown}; available: {sorted(SCHEMES)}"
    return None


def _known_backend(value) -> Optional[str]:
    return None if value in ("object", "soa") else (
        f"must be 'object' or 'soa', got {value!r}"
    )


def _onpath_strategy(value) -> Optional[str]:
    return None if value in ("lce", "lcd") else (
        f"must be 'lce' or 'lcd', got {value!r}"
    )


def _placement_policy(value) -> Optional[str]:
    return None if value in ("popularity", "geographic") else (
        f"must be 'popularity' or 'geographic', got {value!r}"
    )


def _activity_24(value) -> Optional[str]:
    if len(value) != 24:
        return f"must have exactly 24 hourly multipliers, got {len(value)}"
    if any(x < 0 for x in value):
        return "multipliers must be non-negative"
    if max(value) == 0:
        return "at least one hour must be positive"
    return None


def _boost(value) -> Optional[str]:
    return None if value >= 1 else f"must be >= 1, got {value}"


SCHEMA: tuple[SchemaKey, ...] = (
    # [scenario]
    SchemaKey("scenario", "name", "string", required=True, check=_non_empty,
              doc="Registry key; must be unique across scenarios/*.toml."),
    SchemaKey("scenario", "title", "string", default="",
              doc="One-line human title shown by `repro scenario list`."),
    SchemaKey("scenario", "description", "string", default="",
              doc="Longer free-text description shown by `repro scenario show`."),
    # [settings] -- every key optional, overriding the Settings defaults
    SchemaKey("settings", "profile", "string", default="reality",
              check=_known_profile,
              doc="Calibrated mobility profile (reality, infocom06, small, "
                  "vehicular)."),
    SchemaKey("settings", "duration_hours", "float", default=504.0,
              check=_positive,
              doc="Simulation horizon in hours (default 21 days)."),
    SchemaKey("settings", "seeds", "array of integers", default=[1, 2, 3],
              check=_non_empty,
              doc="Replication seeds; each seed generates its own trace "
                  "realisation."),
    SchemaKey("settings", "num_caching_nodes", "integer", default=12,
              check=_at_least_one,
              doc="Caching nodes selected by centrality (or by a placement "
                  "policy)."),
    SchemaKey("settings", "num_items", "integer", default=6,
              check=_at_least_one, doc="Catalog size."),
    SchemaKey("settings", "num_sources", "integer", default=2,
              check=_at_least_one, doc="Data-source nodes."),
    SchemaKey("settings", "refresh_interval_hours", "float", default=24.0,
              check=_positive, doc="Version refresh interval in hours."),
    SchemaKey("settings", "freshness_requirement", "float", default=0.9,
              check=_fraction_open_closed,
              doc="Per-hop on-time delivery target in (0, 1]."),
    SchemaKey("settings", "lifetime_factor", "float", default=2.0,
              check=_positive,
              doc="Item lifetime as a multiple of the refresh interval."),
    SchemaKey("settings", "item_size", "integer", default=1024,
              check=_at_least_one, doc="Item size in bytes."),
    SchemaKey("settings", "query_rate_per_day", "float", default=2.0,
              check=_non_negative,
              doc="Queries per requester per day (mean rate; cycles "
                  "modulate it)."),
    SchemaKey("settings", "zipf_exponent", "float", default=0.8,
              check=_non_negative, doc="Query popularity skew."),
    SchemaKey("settings", "probe_interval_minutes", "float", default=30.0,
              check=_positive, doc="Freshness probe period in minutes."),
    SchemaKey("settings", "warmup_fraction", "float", default=0.1,
              check=_fraction_closed_open,
              doc="Leading fraction of the horizon excluded from metrics."),
    SchemaKey("settings", "fanout", "integer", default=3,
              check=_at_least_one, doc="Refresh-tree fanout (hdr, random)."),
    SchemaKey("settings", "max_depth", "integer", default=3,
              check=_at_least_one,
              doc="Refresh-tree depth limit (hdr, random)."),
    SchemaKey("settings", "max_relays", "integer", default=5,
              check=_non_negative,
              doc="Relays provisioned per tree edge (hdr, random)."),
    SchemaKey("settings", "refresh_jitter", "float", default=0.25,
              check=_non_negative,
              doc="Relative jitter on the refresh schedule."),
    # [run]
    SchemaKey("run", "schemes", "array of strings", required=True,
              check=_known_schemes,
              doc="Refresh schemes to run at every grid point."),
    SchemaKey("run", "with_queries", "boolean", default=False,
              doc="Schedule the query workload and report query metrics."),
    SchemaKey("run", "backend", "string", default="object",
              check=_known_backend,
              doc="Execution engine; 'soa' is the vectorised backend "
                  "(no queries, faults, placement or on-path caching)."),
    # [workload.diurnal]
    SchemaKey("workload.diurnal", "activity", "array of floats",
              default="24 x 1.0-ish office-hours profile", check=_activity_24,
              doc="24 hourly query-rate multipliers; the table's presence "
                  "alone enables the default diurnal cycle."),
    # [[workload.flash_crowds]]
    SchemaKey("workload.flash_crowds", "start_hours", "float", required=True,
              check=_non_negative, doc="Burst window start, hours."),
    SchemaKey("workload.flash_crowds", "length_hours", "float", required=True,
              check=_positive, doc="Burst window length, hours."),
    SchemaKey("workload.flash_crowds", "boost", "float", default=4.0,
              check=_boost, doc="Query-rate multiplier inside the window."),
    SchemaKey("workload.flash_crowds", "focus", "integer", default=2,
              check=_at_least_one,
              doc="The burst concentrates on this many head items."),
    SchemaKey("workload.flash_crowds", "focus_weight", "float", default=0.7,
              check=_fraction_closed,
              doc="Probability a burst query targets a focus item."),
    # [caching.onpath]
    SchemaKey("caching.onpath", "strategy", "string", default="lce",
              check=_onpath_strategy,
              doc="On-path caching strategy: leave-copy-everywhere or "
                  "leave-copy-down."),
    SchemaKey("caching.onpath", "capacity", "integer", default=8,
              check=_at_least_one,
              doc="Bounded on-path store size on ordinary nodes."),
    # [placement]
    SchemaKey("placement", "policy", "string", required=True,
              check=_placement_policy,
              doc="Placement family: popularity-budgeted cooperative "
                  "replicas, or geographic-spread node selection."),
    SchemaKey("placement", "s", "float", default=0.8, check=_non_negative,
              doc="(popularity) Zipf exponent of the replica allocation."),
    SchemaKey("placement", "budget_fraction", "float", default=0.5,
              check=_fraction_open_closed,
              doc="(popularity) replica budget as a fraction of full "
                  "replication."),
    SchemaKey("placement", "spread_quantile", "float", default=0.8,
              check=_fraction_open_closed,
              doc="(geographic) contact-rate quantile above which two "
                  "caching nodes are 'too close'."),
    # [grid] axes -- validated structurally in _validate_grid
    SchemaKey("grid.axes", "key", "string",
              doc="(scalar axis) dotted override key, e.g. "
                  "'settings.refresh_interval_hours'."),
    SchemaKey("grid.axes", "values", "array of floats", check=_non_empty,
              doc="(scalar axis) one grid position per value."),
    SchemaKey("grid.axes", "name", "string",
              doc="(case axis) axis label shown in point names."),
    SchemaKey("grid.axes", "label", "string", required=True,
              doc="(case axis) one case's label; cases are "
                  "[[grid.axes.cases]] tables."),
    SchemaKey("grid.axes", "overrides", "string",
              doc="(case axis) table of dotted override keys applied "
                  "together, e.g. { \"run.backend\" = \"soa\" }."),
)

#: tables whose keys the generic walker validates directly
_FLAT_TABLES = ("scenario", "settings", "run", "caching.onpath", "placement")

#: top-level tables the schema knows (anything else is an error)
KNOWN_TABLES = ("scenario", "settings", "run", "workload", "caching",
                "placement", "faults", "grid")


def schema_for(table: str) -> dict[str, SchemaKey]:
    """The schema rows of one (dotted) table, keyed by key name."""
    return {row.key: row for row in SCHEMA if row.table == table}


def schema_defaults(table: str) -> dict[str, Any]:
    """Documented defaults of one table (required keys excluded)."""
    return {
        row.key: row.default
        for row in SCHEMA
        if row.table == table and not row.required and row.default is not None
    }


#: dotted keys valid as grid-axis override targets: every scalar schema
#: key of the flat tables (grid axes sweep values, not sub-tables)
def override_targets() -> set[str]:
    return {
        f"{row.table}.{row.key}"
        for row in SCHEMA
        if row.table in _FLAT_TABLES and row.table != "scenario"
    }


@dataclass(frozen=True)
class Scenario:
    """A loaded, fully validated scenario file."""

    name: str
    title: str
    description: str
    path: str
    doc: dict = field(hash=False)

    @property
    def schemes(self) -> tuple[str, ...]:
        return tuple(self.doc["run"]["schemes"])


# -- validation ------------------------------------------------------------


def _check_table(
    doc_table: dict,
    table: str,
    where: str,
    errors: list[str],
) -> None:
    """Validate one flat table against the schema (collects, not raises)."""
    rows = schema_for(table)
    for key, value in doc_table.items():
        row = rows.get(key)
        if row is None:
            known = ", ".join(sorted(rows))
            errors.append(f"{where}: unknown key {key!r} (known: {known})")
            continue
        problem = row.problem(value)
        if problem is not None:
            errors.append(f"{where}: {key}: {problem}")
    for key, row in rows.items():
        if row.required and key not in doc_table:
            errors.append(f"{where}: missing required key {key!r}")


def _validate_workload(workload: Any, errors: list[str]) -> None:
    where = "[workload]"
    if not isinstance(workload, dict):
        errors.append(f"{where}: expected a table, got {workload!r}")
        return
    for key, value in workload.items():
        if key == "diurnal":
            if not isinstance(value, dict):
                errors.append(f"[workload.diurnal]: expected a table")
                continue
            _check_table(value, "workload.diurnal", "[workload.diurnal]", errors)
        elif key == "flash_crowds":
            if not isinstance(value, list) or not all(
                isinstance(c, dict) for c in value
            ):
                errors.append(
                    "[workload.flash_crowds]: expected an array of tables "
                    "([[workload.flash_crowds]])"
                )
                continue
            for index, crowd in enumerate(value):
                _check_table(
                    crowd, "workload.flash_crowds",
                    f"[workload.flash_crowds] #{index}", errors,
                )
        else:
            errors.append(
                f"{where}: unknown key {key!r} (known: diurnal, flash_crowds)"
            )


def _validate_caching(caching: Any, errors: list[str]) -> None:
    if not isinstance(caching, dict):
        errors.append(f"[caching]: expected a table, got {caching!r}")
        return
    for key, value in caching.items():
        if key != "onpath":
            errors.append(f"[caching]: unknown key {key!r} (known: onpath)")
            continue
        if not isinstance(value, dict):
            errors.append("[caching.onpath]: expected a table")
            continue
        _check_table(value, "caching.onpath", "[caching.onpath]", errors)


def _validate_faults(faults: Any, errors: list[str]) -> None:
    from repro.faults.plan import plan_from_dict

    if not isinstance(faults, dict):
        errors.append(f"[faults]: expected a table, got {faults!r}")
        return
    try:
        plan_from_dict(faults).validate()
    except (TypeError, ValueError) as exc:
        errors.append(f"[faults]: {exc}")


def _validate_grid(grid: Any, errors: list[str]) -> None:
    where = "[grid]"
    if not isinstance(grid, dict):
        errors.append(f"{where}: expected a table, got {grid!r}")
        return
    unknown = set(grid) - {"axes"}
    for key in sorted(unknown):
        errors.append(f"{where}: unknown key {key!r} (known: axes)")
    axes = grid.get("axes", [])
    if not isinstance(axes, list) or not all(isinstance(a, dict) for a in axes):
        errors.append(f"{where}: axes must be an array of tables ([[grid.axes]])")
        return
    targets = override_targets()
    for index, axis in enumerate(axes):
        axis_where = f"[grid.axes] #{index}"
        scalar = "key" in axis or "values" in axis
        cased = "cases" in axis
        if scalar and cased:
            errors.append(
                f"{axis_where}: an axis is either scalar (key/values) or "
                "labeled (name/cases), not both"
            )
            continue
        if scalar:
            unknown = set(axis) - {"key", "values", "name"}
            for key in sorted(unknown):
                errors.append(f"{axis_where}: unknown key {key!r} "
                              "(scalar axis keys: key, values, name)")
            key = axis.get("key")
            if not isinstance(key, str):
                errors.append(f"{axis_where}: key must be a dotted string")
            elif key not in targets:
                errors.append(
                    f"{axis_where}: key {key!r} is not sweepable "
                    f"(valid: {', '.join(sorted(targets))})"
                )
            values = axis.get("values")
            if not isinstance(values, list) or not values:
                errors.append(f"{axis_where}: values must be a non-empty array")
            elif isinstance(key, str) and key in targets:
                table, _, sub = key.rpartition(".")
                row = schema_for(table).get(sub)
                for value in values:
                    problem = row.problem(value) if row else None
                    if problem is not None:
                        errors.append(f"{axis_where}: values: {problem}")
                        break
        elif cased:
            unknown = set(axis) - {"name", "cases"}
            for key in sorted(unknown):
                errors.append(f"{axis_where}: unknown key {key!r} "
                              "(case axis keys: name, cases)")
            cases = axis.get("cases")
            if not isinstance(cases, list) or not cases or not all(
                isinstance(c, dict) for c in cases
            ):
                errors.append(
                    f"{axis_where}: cases must be a non-empty array of "
                    "tables ([[grid.axes.cases]])"
                )
                continue
            for case_index, case in enumerate(cases):
                case_where = f"{axis_where} case #{case_index}"
                unknown = set(case) - {"label", "overrides"}
                for key in sorted(unknown):
                    errors.append(f"{case_where}: unknown key {key!r} "
                                  "(case keys: label, overrides)")
                if not isinstance(case.get("label"), str) or not case.get("label"):
                    errors.append(f"{case_where}: label must be a non-empty "
                                  "string")
                overrides = case.get("overrides", {})
                if not isinstance(overrides, dict):
                    errors.append(f"{case_where}: overrides must be a table "
                                  "of dotted keys")
                    continue
                for dotted, value in overrides.items():
                    if dotted not in targets:
                        errors.append(
                            f"{case_where}: override key {dotted!r} is not "
                            f"sweepable (valid: {', '.join(sorted(targets))})"
                        )
                        continue
                    table, _, sub = dotted.rpartition(".")
                    problem = schema_for(table)[sub].problem(value)
                    if problem is not None:
                        errors.append(f"{case_where}: {dotted}: {problem}")
        else:
            errors.append(
                f"{axis_where}: an axis needs either key+values (scalar) or "
                "name+cases (labeled)"
            )


def validate_doc(doc: dict, file: str = "<inline>") -> list[str]:
    """All validation errors of a parsed scenario document.

    Pure collection: returns the (possibly empty) error list instead of
    raising, so both the loader and the grid expander can reuse it.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level: expected TOML tables, got {doc!r}"]
    for table in doc:
        if table not in KNOWN_TABLES:
            known = ", ".join(KNOWN_TABLES)
            errors.append(f"top level: unknown table [{table}] (known: {known})")
    for table in ("scenario", "run"):
        if table not in doc:
            errors.append(f"top level: missing required table [{table}]")
    for table in _FLAT_TABLES:
        value = doc.get(table)
        if value is None:
            continue
        if not isinstance(value, dict):
            errors.append(f"[{table}]: expected a table, got {value!r}")
            continue
        _check_table(value, table, f"[{table}]", errors)
    if "workload" in doc:
        _validate_workload(doc["workload"], errors)
    if "caching" in doc:
        _validate_caching(doc["caching"], errors)
    if "faults" in doc:
        _validate_faults(doc["faults"], errors)
    if "grid" in doc:
        _validate_grid(doc["grid"], errors)
    if not errors:
        errors.extend(_validate_semantics(doc))
    return errors


def _validate_semantics(doc: dict) -> list[str]:
    """Cross-table rules, checked once the per-key shape is clean."""
    errors: list[str] = []
    run = doc.get("run", {})
    with_queries = bool(run.get("with_queries", False))
    backend = run.get("backend", "object")
    workload = doc.get("workload", {})
    has_cycle = bool(workload.get("diurnal") is not None
                     or workload.get("flash_crowds"))
    has_onpath = "onpath" in doc.get("caching", {})
    if has_cycle and not with_queries:
        errors.append(
            "[workload]: diurnal/flash_crowds need [run] with_queries = true"
        )
    if has_onpath and not with_queries:
        errors.append(
            "[caching.onpath]: on-path caching needs [run] "
            "with_queries = true"
        )
    table = doc.get("settings", {})
    knobs = Settings().with_(**{key: table[key]
                                for key in ("num_caching_nodes", *TREE_KNOBS)
                                if key in table})
    for scheme in run.get("schemes", ()):
        problem = tree_capacity_problem(scheme, knobs)
        if problem is not None:
            errors.append(f"[settings]: {problem}")
    if backend == "soa":
        for active, what in (
            (with_queries, "[run] with_queries"),
            ("faults" in doc, "[faults]"),
            ("placement" in doc, "[placement]"),
            (has_onpath, "[caching.onpath]"),
            (has_cycle, "[workload] cycles"),
        ):
            if active:
                errors.append(
                    f"[run]: backend = 'soa' does not support {what}"
                )
    return errors


# -- loading ---------------------------------------------------------------


def load_scenario(path: str | Path) -> Scenario:
    """Load one scenario file, validating it eagerly and completely.

    Raises :class:`ScenarioError` (naming the file, table and key of
    every problem) or ``OSError`` if the file cannot be read.
    """
    path = Path(path)
    try:
        doc = tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(str(path), [f"TOML parse error: {exc}"]) from None
    errors = validate_doc(doc, file=str(path))
    if errors:
        raise ScenarioError(str(path), errors)
    meta = doc["scenario"]
    return Scenario(
        name=meta["name"],
        title=meta.get("title", ""),
        description=meta.get("description", ""),
        path=str(path),
        doc=doc,
    )


def load_registry(directory: str | Path = DEFAULT_SCENARIO_DIR) -> dict[str, Scenario]:
    """Load every ``*.toml`` under ``directory``, keyed by scenario name.

    Files load in sorted order; a duplicate name raises
    :class:`ScenarioError` naming both files.  An empty or missing
    directory yields an empty registry.
    """
    directory = Path(directory)
    registry: dict[str, Scenario] = {}
    for path in sorted(directory.glob("*.toml")):
        scenario = load_scenario(path)
        if scenario.name in registry:
            raise ScenarioError(
                str(path),
                [f"[scenario]: duplicate name {scenario.name!r} "
                 f"(already defined by {registry[scenario.name].path})"],
            )
        registry[scenario.name] = scenario
    return registry

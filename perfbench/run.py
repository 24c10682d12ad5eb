"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload community-soa --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` prints the per-layer metrics from a traced run, plus the
tracing overhead; its spans and per-module self-time table are written
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and what each metric is.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import env  # before numpy: pins the numeric libraries to one thread

import numpy as np

from measure import Checks, median
from tracing import OUTSIDE, group_self_time, self_times, write_spans
from worker import forked

WORKLOADS = ("community-soa", "community-object", "reality-queries", "live-small")

END_TO_END = {
    "setup_s": "s",
    "result_s": "s",
    "events_per_s": "1/s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: run-phase self time per module, as ``<module>.self_s`` (``contacts``
#: is reported as ``contacts.run_self_s``)
SELF_TIME_MODULES = (
    "sim.engine", "sim.node", "sim.network", "sim.messages", "sim.soa",
    "core.refresh", "core.soa", "core.replication", "core.accounting",
    "routing", "caching",
)

PER_LAYER = {
    "mobility.synth_s": "s",
    "mobility.contacts": "count",
    "contacts.estimate_s": "s",
    "contacts.run_self_s": "s",
    "core.construct_s": "s",
    "run.wall_s": "s",
    "run.events": "count",
    **{f"{module}.self_s": "s" for module in SELF_TIME_MODULES},
    "profile.outside_s": "s",
    "profile.samples": "count",
    "refresh.messages": "count",
    "refresh.deliveries": "count",
    "refresh.useful_ratio": "ratio",
    "refresh.on_time_ratio": "ratio",
    "probe.freshness": "ratio",
    "query.issued": "count",
    "query.answer_ratio": "ratio",
    "analysis.score_s": "s",
    "trace.overhead_s": "s",
    "service.ready_s": "s",
    "ingest_contacts_per_s": "1/s",
    **{f"service.stage.{stage}_ms.p99": "ms" for stage in ("planner", "cache", "results")},
    **{f"service.queue.{stage}.peak": "count" for stage in ("planner", "cache", "results")},
    "service.checkpoint.write_ms.max": "ms",
    "service.checkpoint.written": "count",
    "service.journal.bytes": "bytes",
    "service.journal_overhead_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query.samples": "count",
    "sustainable_qps": "1/s",
    "service.query.latency_ms.p50": "ms",
    "service.query.latency_ms.p99": "ms",
    "http.hop_ms.p50": "ms",
    "service.queries.served": "count",
    "service.queries.shed": "count",
    "service.cpu_busy_ratio": "ratio",
    "loadgen.lateness_ms.p99": "ms",
    "loadgen.cpu_busy_ratio": "ratio",
}

#: seconds of ``--seconds`` budgeted per batch repetition; sets the
#: repetition count.  A community repetition takes about 2.2 s on a
#: 2-vCPU x86 VM, reference loops included.  A ``reality-queries`` one
#: takes about 6 s, but its query work varies most from seed to seed, so
#: it gets more repetitions than that allows
REPETITION_S = {"community-soa": 2.5, "community-object": 2.2, "reality-queries": 5.0}
MIN_REPETITIONS = 3


def trace_seed(seed: int, index: int) -> int:
    """The trace seed of repetition ``index`` of a run with ``seed``."""
    return int(np.random.SeedSequence([seed % 2**63, index]).generate_state(1)[0])


def repetitions(workload: str, seconds: float) -> int:
    return max(MIN_REPETITIONS, round(seconds / REPETITION_S[workload]))


def batch_end_to_end(reps: list[dict]) -> dict[str, float]:
    """Times are CPU seconds of the repetition's single thread rescaled
    to the reference speed (``speed.py``), so neither a busy host nor the
    drift of the VM's CPU speed stretches them.  Set-up time and memory
    are medians over the repetitions.  The work varies from trace to
    trace, so ``result_s`` is a mean, and the two rates are work over
    run-phase time summed across the repetitions."""
    run_s = sum(r["timings"]["run_scaled_s"] for r in reps)
    return {
        "setup_s": median([r["timings"]["setup_scaled_s"] for r in reps]),
        "result_s": sum(r["timings"]["result_scaled_s"] for r in reps) / len(reps),
        "events_per_s": sum(r["counts"]["events"] for r in reps) / run_s,
        "deliveries_per_s": sum(r["counts"]["deliveries"] for r in reps) / run_s,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def batch_per_layer(traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced repetitions and the per-module
    self-time table behind them."""
    def med(path: str, key: str) -> float:
        return median([r[path][key] for r in traced])

    run_wall = sum(r["timings"]["run_s"] for r in traced)
    samples: dict[str, int] = {}
    for rep in traced:
        for module, count in rep.get("profile", {}).items():
            samples[module] = samples.get(module, 0) + count
    total = sum(samples.values())
    # seconds per repetition: the sampled share of the summed run walls
    table = {m: run_wall * n / total / len(traced) for m, n in samples.items()} if total else {}
    metrics = {q: median([r["metrics"][q] for r in traced]) for q in
               ("freshness", "on_time_ratio", "queries_issued", "query_answer_ratio")}
    per_layer = {
        "mobility.synth_s": med("timings", "synth_s"),
        "mobility.contacts": med("counts", "contacts"),
        "contacts.estimate_s": med("timings", "estimate_s"),
        "contacts.run_self_s": group_self_time(table, "contacts"),
        "core.construct_s": med("timings", "construct_s"),
        "run.wall_s": med("timings", "run_s"),
        "run.events": med("counts", "events"),
        **{f"{m}.self_s": group_self_time(table, m) for m in SELF_TIME_MODULES},
        "profile.outside_s": table.get(OUTSIDE, 0.0),
        "profile.samples": total,
        "refresh.messages": med("counts", "messages"),
        "refresh.deliveries": med("counts", "deliveries"),
        "refresh.useful_ratio": median([r["counts"]["on_time"] / r["counts"]["messages"]
                                        for r in traced]),
        "refresh.on_time_ratio": metrics["on_time_ratio"],
        "probe.freshness": metrics["freshness"],
        "query.issued": metrics["queries_issued"],
        "query.answer_ratio": (metrics["query_answer_ratio"]
                               if metrics["queries_issued"] else 0.0),
        "analysis.score_s": med("timings", "score_s"),
        "trace.overhead_s": med("timings", "result_s")
        - median([r["untraced_result_s"] for r in traced]),
    }
    return per_layer, table


def run_batch(workload: str, seed: int, seconds: float, size: str,
              traced: bool) -> dict:
    import batch  # imports the program, so only after use_source_tree()

    seeds = [trace_seed(seed, j) for j in range(repetitions(workload, seconds))]
    checks = Checks()
    reps = []
    for trace in seeds:
        rep = forked(batch.run_repetition, workload, trace, size, False)
        if traced:
            # back to back, so the overhead compares runs under the same load
            untraced = rep
            rep = forked(batch.run_repetition, workload, trace, size, True)
            rep["untraced_result_s"] = untraced["timings"]["result_s"]
            checks.merge(Checks(**untraced["checks"]))
        reps.append(rep)
    oracle = forked(batch.run_oracle, workload, seeds[0], size)
    for rep in (*reps, oracle):
        checks.merge(Checks(**rep["checks"]))
    what = ("run_once" if workload == "reality-queries"
            else "the other backend")
    checks.check(f"same_as {what} on trace seed {seeds[0]}",
                 batch.same_metrics(reps[0]["metrics"], oracle["metrics"]))
    out = {"checks": checks, "repetitions": len(seeds)}
    if traced:
        out["per_layer"], out["self_time"] = batch_per_layer(reps)
        out["spans"] = [span for rep in reps for span in rep["spans"]]
    else:
        out["end_to_end"] = batch_end_to_end(reps)
    return out


def result_line(checks: Checks, values: dict[str, float],
                units: dict[str, str]) -> dict:
    """The final JSON object; a metric that was not measured (NaN) is a
    failed check and reads 0."""
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0.0)
        if not checks.check(f"{name} measured", math.isfinite(value)):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run (tests)")
    args = parser.parse_args(argv)
    try:
        env.use_source_tree()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    if args.workload == "live-small":
        import live  # imports the program, so only after use_source_tree()

        query_seed = trace_seed(args.seed, 0)
        out = live.run_live(query_seed, args.seconds, args.size, traced)
    else:
        out = run_batch(args.workload, args.seed, args.seconds, args.size, traced)
    report(args, out)
    checks = out["checks"]
    if traced:
        values, units = out["per_layer"], PER_LAYER
    else:
        values, units = out["end_to_end"], END_TO_END
    line = result_line(checks, values, units)
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    print(f"  fail_ratio {checks.fail_ratio:.6g} "
          f"({checks.failed} failed of {checks.attempted} attempted)")
    print(json.dumps(line))
    return 0


def report(args, out: dict) -> None:
    """Human-readable lines above the JSON result; traced runs also
    write their spans and self-time table under ``perfbench/out``."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {out['repetitions']}  trace {args.trace}")
    if not args.trace:
        for name, value in out["end_to_end"].items():
            print(f"  {name:<22} {value:>14.6g} {END_TO_END[name]}")
        return
    stem = f"{args.workload}-{args.seed}"
    spans_path = env.OUT / f"spans-{stem}.jsonl"
    count = write_spans(spans_path, out["spans"])
    table = out.get("self_time", {})
    (env.OUT / f"self-time-{stem}.json").write_text(
        json.dumps({"run_phase_module_self_s": table,
                    "span_self_s": self_times(out["spans"])}, indent=2) + "\n",
        encoding="utf-8")
    print(f"  {count} spans -> {spans_path}")
    if table:
        print("  run-phase self time per module (s per repetition):")
        for module, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"    {module:<28} {seconds:8.3f}")
    for rate, p99, meets in out.get("steps", []):
        print(f"  step {rate:6g} q/s: p99 {p99} ms, {'meets' if meets else 'misses'} the limit")
    for name, value in out["per_layer"].items():
        print(f"  {name:<34} {value:>14.6g} {PER_LAYER[name]}")


if __name__ == "__main__":
    sys.exit(main())

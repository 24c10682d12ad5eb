"""The ``live-small`` workload: ``repro serve`` as a subprocess.

Two kinds of server start, both with ``--checkpoint`` on:

- *ingest runs* replay the whole trace unpaced (infinite dilation)
  through source, journal, pipeline and runtime to a final score;
- one *query run* replays the trace paced while the open-loop client
  fires Zipf queries at a fixed nominal rate (reads beside writes); a
  traced run then steps the offered rate up to find ``sustainable_qps``.

Set-up time (``setup_s``) is spawn until the server prints that it is
serving queries, which it does once the service is built and the HTTP
endpoint bound; every ingest run gives one sample.  An ingest run starts
replaying at that moment, and a ``/healthz`` poll would queue behind
the unpaced ingest, so only the query run, which is paced, polls
``/healthz`` until it answers 200 (``service.ready_s``).  The ingest
runs are timed in the server's CPU seconds, rescaled to the reference
speed sampled on the server's CPU while it runs (``speed.py``).

Every server's final ``--score-json`` must ``scores_match`` the batch
``run_once`` on the same trace, scheme and seed.

The contact trace is the service's data set: the ``small`` profile at
``repro serve``'s default seed, the same in every run.  The run's seed
draws the query traffic (Poisson arrival times and Zipf items), the
part of this workload that arrives from outside.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import env
from loadclient import QUERY_TIMEOUT_S, OpenLoopClient, QuerySample, poisson_schedule
from measure import Checks, StepResult, median, percentile, sustainable_rate
from repro.analysis.metrics import refresh_outcomes
from repro.experiments.config import DAY, Settings
from repro.experiments.runner import RunMetrics, make_trace, run_once
from repro.service.runtime import replay, scores_match, service_from_settings
from speed import REFERENCE_S, reference_cpu_s
from tracing import SpanRecorder
from worker import forked

#: how long a server may take to start or finish before it counts as failed
SERVER_TIMEOUT_S = 120.0
#: rough wall seconds of one unpaced ingest run of the full trace
INGEST_RUN_S = 2.5
#: seconds between two reference-loop samples during an ingest run
REFERENCE_EVERY_S = 0.2
#: the trace seed ``repro serve`` uses by default
TRACE_SEED = 1
STAGES = ("planner", "cache", "results")


@dataclass(frozen=True)
class LiveSpec:
    profile: str = "small"
    days: float = 21.0
    scheme: str = "hdr"
    #: fewest ingest runs per run of the workload (a traced run follows
    #: each with one without checkpointing)
    ingest_runs: int = 3
    nominal_qps: float = 400.0
    #: share of ``--seconds`` spent under the nominal query load; the
    #: ingest runs take about 65 % of it
    nominal_share: float = 0.2
    #: offered rates of the sustainable_qps step test, lowest first
    step_rates: tuple[float, ...] = (500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0)
    #: each step lasts long enough for this many queries on average, and
    #: at least a second; a p99 is reportable from 1,000 queries, and
    #: 1,200 expected keeps a Poisson count above that
    step_queries: int = 1200
    p99_limit_ms: float = 25.0

    def settings(self, seed: int) -> Settings:
        """The settings ``repro serve`` builds from its flags."""
        return Settings.fast().with_(profile=self.profile,
                                     duration=self.days * DAY, seeds=(seed,))

    def step_seconds(self, rate: float) -> float:
        return max(1.0, self.step_queries / rate)


LIVE = {
    "full": LiveSpec(),
    "tiny": LiveSpec(days=3.0, ingest_runs=1,
                     step_rates=(500.0, 1000.0)),
}


def live_oracle(seed: int, size: str = "full") -> dict:
    """Batch reference of the live workload, run in a forked child.

    ``run_once`` gives the score every server must match; an in-process
    unpaced replay (the server's own code path) gives the event and
    delivery counts the throughput metrics divide by.
    """
    spec = LIVE[size]
    settings = spec.settings(seed)
    trace = make_trace(settings, seed)
    metrics = run_once(trace, spec.scheme, settings, seed)
    service, _ = service_from_settings(settings, seed=seed, scheme=spec.scheme)
    score = asyncio.run(replay(service, trace))
    runtime = service.runtime
    refresh = refresh_outcomes(
        runtime.update_log, runtime.history, runtime.catalog,
        runtime.caching_nodes, horizon=settings.duration,
        messages=runtime.refresh_overhead(),
    )
    checks = Checks()
    checks.check("in-process replay scores_match run_once", scores_match(score, metrics))
    checks.check("refresh messages > 0", metrics.messages > 0)
    checks.check("probe freshness > 0", metrics.freshness > 0)
    return {
        "metrics": dataclasses.asdict(metrics),
        "events": runtime.sim.events_executed,
        "deliveries": refresh.delivered_on_time + refresh.delivered_late,
        "on_time": refresh.delivered_on_time,
        "contacts": len(trace),
        "items": list(runtime.catalog.item_ids),
        "checks": dataclasses.asdict(checks),
    }


class Server:
    """One ``repro serve --source replay`` child process."""

    def __init__(self, spec: LiveSpec, seed: int, dilation: str, workdir: Path,
                 checkpoint: bool = True, cpu: Optional[int] = None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.score_path = workdir / "score.json"
        self.journal_path = workdir / "ckpt" / "journal.jsonl"
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--profile", spec.profile, "--days", repr(spec.days),
               "--seed", str(seed), "--scheme", spec.scheme,
               "--dilation", dilation, "--http", "127.0.0.1:0",
               "--score-json", str(self.score_path)]
        if checkpoint:
            cmd += ["--checkpoint", str(workdir / "ckpt")]
        self._stderr = open(workdir / "stderr.txt", "w", encoding="utf-8")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True,
                                     env=env.child_env(), cwd=env.ROOT)
        if cpu is not None:
            # threads the server starts later inherit the mask
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.ready_at: Optional[float] = None
        #: the server's CPU seconds when it became ready, and at exit
        self.ready_cpu_s: Optional[float] = None
        self.cpu_s: Optional[float] = None
        self.port: Optional[int] = None
        #: when the server closed its standard output, that is, exited
        self.exited_at: Optional[float] = None
        self.peak_rss_mb = 0.0
        self.returncode: Optional[int] = None
        self._ready = threading.Event()
        self.exited = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        marker = "serving queries on http://"
        for line in self.proc.stdout:
            if self.port is None and marker in line:
                self.ready_at = time.perf_counter()
                try:
                    self.ready_cpu_s = self.cpu_seconds()
                except OSError:
                    pass
                self.port = int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
                self._ready.set()
        self.exited_at = time.perf_counter()
        self._ready.set()
        self.exited.set()

    def wait_ready(self) -> bool:
        """Wait until the HTTP endpoint is listening; ``False`` if the
        server exited or timed out first."""
        self._ready.wait(SERVER_TIMEOUT_S)
        return self.port is not None

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=QUERY_TIMEOUT_S)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def wait_healthy(self) -> Optional[float]:
        """Poll ``/healthz`` until it answers 200; the spawn-to-200 time."""
        if not self.wait_ready():
            return None
        deadline = self.spawned + SERVER_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/healthz")
            except (OSError, http.client.HTTPException, ValueError):
                status = 0
            if status == 200:
                return time.perf_counter() - self.spawned
            time.sleep(0.002)
        return None

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def wait(self) -> int:
        """Reap the server (killing it if it has not exited within
        :data:`SERVER_TIMEOUT_S`); records exit code and peak RSS."""
        self._reader.join(SERVER_TIMEOUT_S)
        if self._reader.is_alive():
            self.proc.kill()
            self._reader.join()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.proc.stdout.close()
        self._stderr.close()
        return self.returncode

    def score(self) -> Optional[dict]:
        try:
            return json.loads(self.score_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None


def _check_score(checks: Checks, server: Server, oracle_metrics: RunMetrics,
                 what: str) -> None:
    checks.check(f"{what}: server exited 0", server.returncode == 0)
    score = server.score()
    checks.check(f"{what}: score scores_match run_once",
                 score is not None and scores_match(score, oracle_metrics))


def _hist(snapshot: dict, name: str, pct: float) -> float:
    """A server histogram percentile, if the histogram holds enough
    samples beyond it for :func:`percentile`'s rule; else ``nan``."""
    summary = snapshot.get("histograms", {}).get(name)
    if not summary or summary["count"] - np.ceil(pct / 100 * summary["count"]) < 10:
        return float("nan")
    return float(summary[f"p{pct:g}"])


class LiveRun:
    """State of one run of the live workload."""

    def __init__(self, seed: int, seconds: float, size: str, traced: bool) -> None:
        #: draws the query traffic; the trace is always TRACE_SEED's
        self.seed = seed
        self.spec = LIVE[size]
        self.size = size
        self.seconds = seconds
        self.traced = traced
        self.checks = Checks()
        self.rec = SpanRecorder(f"live-small-{seed}", enabled=traced)
        self.workdir = env.OUT / f"live-{os.getpid()}"
        self._spawns = 0
        # at least as long as a step, so the nominal p99 is reportable
        self.nominal_s = max(self.spec.nominal_share * seconds,
                             self.spec.step_seconds(self.spec.nominal_qps))
        self.ingest_runs = max(self.spec.ingest_runs,
                               round(0.65 * seconds / INGEST_RUN_S))
        #: the CPU that ingest runs and their reference samples share
        self.cpu = min(os.sched_getaffinity(0))

    def _server(self, dilation: str, checkpoint: bool = True,
                cpu: Optional[int] = None) -> Server:
        self._spawns += 1
        return Server(self.spec, TRACE_SEED, dilation,
                      self.workdir / f"server-{self._spawns}", checkpoint, cpu)

    def oracle(self) -> dict:
        with self.rec.span("batch.oracle"):
            return forked(live_oracle, TRACE_SEED, self.size)

    def ingest(self, metrics: RunMetrics, checkpoint: bool = True) -> Optional[dict]:
        """One unpaced replay; ``None`` when it failed.

        The server runs on :attr:`cpu`, and this thread, pinned to the
        same CPU, samples the reference loop every
        :data:`REFERENCE_EVERY_S` while it runs (the VM's two CPUs drift
        independently).  The server's CPU seconds are rescaled by the
        median sample to the reference speed (``speed.py``).
        """
        references = [reference_cpu_s()]
        server = self._server("inf", checkpoint, self.cpu)
        name = "service.ingest_to_score" + ("" if checkpoint else ".no_checkpoint")
        with self.rec.span(name):
            ready = server.wait_ready()
            deadline = server.spawned + SERVER_TIMEOUT_S
            while not server.exited.wait(REFERENCE_EVERY_S) and time.perf_counter() < deadline:
                references.append(reference_cpu_s())
            server.wait()
        references.append(reference_cpu_s())
        factor = REFERENCE_S / median(references)
        _check_score(self.checks, server, metrics, "ingest run")
        if not ready or server.returncode != 0 or server.ready_cpu_s is None:
            return None
        return {
            "ready_s": factor * server.ready_cpu_s,
            "result_s": factor * server.cpu_s,
            "ingest_s": factor * (server.cpu_s - server.ready_cpu_s),
        }

    def _dilation(self, wall_s: float) -> str:
        """Replay pacing that spreads the horizon over ``wall_s`` seconds."""
        return repr(self.spec.days * DAY / wall_s)

    def query_run(self, oracle: dict, metrics: RunMetrics) -> dict:
        spec = self.spec
        rng = np.random.default_rng([self.seed, 1])
        load_s = self.nominal_s
        if self.traced:
            load_s += sum(spec.step_seconds(r) for r in spec.step_rates)
        # the replay outlasts the load, so every query meets a live server
        server = self._server(self._dilation(load_s + 2.0))
        out: dict = {}
        try:
            with self.rec.span("service.spawn_to_healthz"):
                out["healthz_s"] = server.wait_healthy()
            if out["healthz_s"] is None:
                self.checks.check("query run: /healthz answered 200", False)
                return out
            client = OpenLoopClient("127.0.0.1", server.port)
            schedule = poisson_schedule(rng, spec.nominal_qps, self.nominal_s,
                                        oracle["items"])
            cpu0, client_cpu0, wall0 = server.cpu_seconds(), time.process_time(), time.perf_counter()
            with self.rec.span("http.nominal_load"):
                samples = client.run(schedule)
            wall = time.perf_counter() - wall0
            out["server_cpu_busy"] = (server.cpu_seconds() - cpu0) / wall
            out["client_cpu_busy"] = (time.process_time() - client_cpu0) / wall
            out["samples"] = samples
            self._count_queries(samples, "nominal queries")
            if self.traced:
                for sample in samples:
                    self.rec.add("http.query", sample.due, sample.done)
                out["metrics_nominal"] = server.get("/metrics")[1]
                out["steps"] = self._step_test(server, client, rng, oracle["items"])
                out["metrics_final"] = server.get("/metrics")[1]
        finally:
            server.wait()
        out["peak_rss_mb"] = server.peak_rss_mb
        _check_score(self.checks, server, metrics, "query run")
        if server.journal_path.exists():
            out["journal_bytes"] = server.journal_path.stat().st_size
        return out

    def _count_queries(self, samples: list[QuerySample], what: str) -> None:
        failed = sum(1 for s in samples if s.status != 200)
        self.checks.operations(len(samples), failed, what)

    def _step_test(self, server: Server, client: OpenLoopClient,
                   rng: np.random.Generator, items: list[int]) -> list[StepResult]:
        steps = []
        for rate in self.spec.step_rates:
            schedule = poisson_schedule(rng, rate, self.spec.step_seconds(rate), items)
            with self.rec.span(f"http.step_{rate:g}"):
                samples = client.run(schedule)
            self._count_queries(samples, f"step {rate:g} q/s queries")
            step = StepResult(
                rate=rate,
                latencies_ms=[s.latency_ms for s in samples if s.status == 200],
                lateness_ms=[s.lateness_ms for s in samples],
                failed=sum(1 for s in samples if s.status not in (200, 503)),
                shed=sum(1 for s in samples if s.status == 503),
            )
            steps.append(step)
            if not step.meets(self.spec.p99_limit_ms):
                break
        return steps


def run_live(seed: int, seconds: float, size: str = "full",
             traced: bool = False) -> dict:
    """Run the live workload; returns metrics, checks and spans."""
    run = LiveRun(seed, seconds, size, traced)
    spec = run.spec
    try:
        oracle = run.oracle()
        run.checks.merge(Checks(**oracle["checks"]))
        metrics = RunMetrics(**oracle["metrics"])
        ingests, plain = [], []
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {run.cpu})
        try:
            for _ in range(run.ingest_runs):
                ingests.append(run.ingest(metrics))
                if traced:
                    # back to back, so the comparison sees the same machine load
                    plain.append(run.ingest(metrics, checkpoint=False))
        finally:
            os.sched_setaffinity(0, allowed)
        query = run.query_run(oracle, metrics)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    ingests = [i for i in ingests if i]
    out = _summarise(run, oracle, [i["ready_s"] for i in ingests], ingests, query,
                     [i for i in plain if i])
    out["repetitions"] = run.ingest_runs
    return out


def _summarise(run: LiveRun, oracle: dict, ready: list[float],
               ingests: list[dict], query: dict, plain: list[dict]) -> dict:
    spec = run.spec
    nan = float("nan")
    ingest_s = median([i["ingest_s"] for i in ingests]) if ingests else nan
    samples = query.get("samples", [])
    ok = [s for s in samples if s.status == 200]
    latencies = [s.latency_ms for s in ok]
    run.checks.check("setup samples collected", bool(ready))
    run.checks.check("ingest runs completed", bool(ingests))
    if run.size == "full":
        run.checks.check("nominal query p99 reportable",
                         percentile(latencies, 99.0) is not None)
    end_to_end = {
        "setup_s": median(ready) if ready else nan,
        "result_s": median([i["result_s"] for i in ingests]) if ingests else nan,
        "events_per_s": oracle["events"] / ingest_s,
        "deliveries_per_s": oracle["deliveries"] / ingest_s,
        "peak_rss_mb": query.get("peak_rss_mb", nan),
    }
    per_layer = {
        "mobility.contacts": oracle["contacts"],
        "run.events": oracle["events"],
        "refresh.messages": oracle["metrics"]["messages"],
        "refresh.deliveries": oracle["deliveries"],
        "refresh.useful_ratio": oracle["on_time"] / oracle["metrics"]["messages"],
        "refresh.on_time_ratio": oracle["metrics"]["on_time_ratio"],
        "probe.freshness": oracle["metrics"]["freshness"],
        "service.ready_s": query.get("healthz_s") or nan,
        "ingest_contacts_per_s": oracle["contacts"] / ingest_s,
        "query_p50_ms": _or_nan(percentile(latencies, 50.0)),
        "query_p99_ms": _or_nan(percentile(latencies, 99.0)),
        "query.samples": len(latencies),
        "loadgen.lateness_ms.p99": _or_nan(percentile([s.lateness_ms for s in samples], 99.0)),
        "loadgen.cpu_busy_ratio": query.get("client_cpu_busy", nan),
        "service.cpu_busy_ratio": query.get("server_cpu_busy", nan),
        "service.journal.bytes": query.get("journal_bytes", 0),
    }
    if run.traced:
        nominal = query.get("metrics_nominal", {})
        final = query.get("metrics_final", {})
        server_p50 = _hist(nominal, "service.query.latency_ms", 50.0)
        per_layer.update({
            "service.query.latency_ms.p50": server_p50,
            "service.query.latency_ms.p99": _hist(nominal, "service.query.latency_ms", 99.0),
            "http.hop_ms.p50": median([s.service_ms for s in ok]) - server_p50 if ok else nan,
            "service.queries.served": final.get("counters", {}).get("service.queries.served", 0),
            "service.queries.shed": final.get("counters", {}).get("service.queries.shed", 0),
            "service.checkpoint.written": final.get("counters", {}).get("service.checkpoint.written", 0),
            "service.checkpoint.write_ms.max": final.get("histograms", {}).get(
                "service.checkpoint.write_ms", {}).get("max", nan),
            "service.journal_overhead_s": (
                ingest_s - median([i["ingest_s"] for i in plain]) if plain else nan),
            "sustainable_qps": sustainable_rate(query.get("steps", []), spec.p99_limit_ms),
            # spans are recorded in this process only; a traced run starts
            # the very same server commands as an untraced one
            "trace.overhead_s": 0.0,
        })
        for stage in STAGES:
            per_layer[f"service.stage.{stage}_ms.p99"] = _hist(
                final, f"service.stage.{stage}_ms", 99.0)
            per_layer[f"service.queue.{stage}.peak"] = final.get("gauges", {}).get(
                f"service.queue.{stage}.peak", 0)
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "checks": run.checks,
        "spans": run.rec.spans,
        "steps": [(s.rate, s.p99_ms, s.meets(spec.p99_limit_ms))
                  for s in query.get("steps", [])],
    }


def _or_nan(value: Optional[float]) -> float:
    return float("nan") if value is None else float(value)

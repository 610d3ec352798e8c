"""End-to-end benchmark of the paper reproduction.

    python3 perfbench/run.py --workload cli-cold --seed 1 \
        --seconds 40 --trace 0

Workloads (see README.md): ``cli-cold`` and ``fleet``.  Every run
measures every end-to-end metric; the workload decides where most of
the run's time goes.  ``--trace 1`` runs the same
workload with span wrappers in every program process and prints the
per-layer split instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats as st  # noqa: E402
import tracing  # noqa: E402
from loadgen import OpenLoop  # noqa: E402
from program import (ROOT, SRC, Fleet, program_env,  # noqa: E402
                     run_cli, scrape)

WORKLOADS = ("cli-cold", "fleet")
#: rounds per run; each runs one cold ``repro all``, warm ``repro all``
#: runs, and one fleet (a grid, then a job stream)
ROUNDS = 3
#: shares of ``--seconds`` spent on warm runs and on job streams, each
#: over the whole run
WARM_SHARE = 0.075
STREAM_SHARE = 0.35
#: open-loop arrival rate of the fleet's job stream (jobs per second);
#: a 2-connection client saturates near 30/s on cached jobs
STREAM_RATE = 12.0
#: the latency limit behind ``limit_met_frac``
LATENCY_LIMIT_S = 2.0
#: extra results stored beside the paper grid before the warm runs
EXTRA_SWEEP = ["sweep", "-b", "gsm_encode", "mpeg2_decode", "-c", "mom",
               "mom3d", "-m", "vector", "multibank", "-l", "30", "50",
               "--set", "l2_line=64,256"]

#: per-layer metric -> span names whose self times it sums, read from
#: traced cold (``COLD_SELF``) and warm (``WARM_SELF``) ``repro all``
COLD_SELF = {
    "workloads.generate_s": ("workloads.generate",),
    "compiler.verify_s": ("compiler.verify", "compiler.pipeline"),
    "compiler.rename_s": ("compiler.rename",),
    "timing.decode_s": ("timing.decode",),
    "timing.simulate_s": ("timing.simulate",),
    "cache.put_many_s": ("cache.put_many", "cache.put"),
    "cli.main_s": ("cli.main",),
}
WARM_SELF = {
    "engine.run_many_s": ("engine.run_many", "engine.run"),
    "cache.code_version_s": ("cache.code_version",),
    "cache.open_s": ("cache.open",),
    "cache.get_many_s": ("cache.get_many", "cache.get"),
    "harness.experiments_s": ("harness.experiment",),
    "harness.render_s": ("harness.render",),
}

#: spans that hold whatever no layer wrapper covers
CATCH_ALL = ("cli.main", "trace.install")

END_TO_END = {
    "setup_s": "s", "cold_all_s": "s", "warm_all_s": "s",
    "fleet_grid_s": "s", "hit_p50_ms": "ms", "hit_tail_ms": "ms",
    "miss_p50_ms": "ms", "miss_tail_ms": "ms", "limit_met_frac": "ratio",
    "peak_rss_mb": "MB", "ok_frac": "ratio", "model_err_pct": "%",
}


class Failure(Exception):
    pass


class Session:
    """One benchmark run: measures, checks, and collects samples."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        #: wall times of untraced (``walls``) and traced operations:
        #: cold / warm ``repro all`` and fleet grids
        self.walls = {"cold": [], "warm": [], "grid": []}
        self.traced_walls = {"cold": [], "warm": [], "grid": []}
        self.hits: list[float] = []
        self.misses: list[float] = []
        self.jobs = 0
        self.jobs_within = 0
        self.late: list[float] = []
        self.backlog = 0
        self.model_err: float | None = None
        #: ``{spec key: digest}`` every result set of this run must match
        self.reference: dict | None = None
        self.layer_samples: dict[str, list[float]] = {}
        #: durations of every traced worker shard (``engine.run_many``)
        self.shards: list[float] = []
        self.recorder = tracing.Recorder() if traced else None
        self._counter = 0
        #: stdout of each cold run; the first populated cache directory
        self.cold_runs: list[str] = []
        self.warm_count = 0
        self.populated: Path | None = None
        from checks import repro_all_specs

        self.specs = repro_all_specs(seed)

    # -- bookkeeping -------------------------------------------------------

    def fresh_dir(self, stem: str) -> Path:
        self._counter += 1
        path = self.work / f"{stem}{self._counter}"
        path.mkdir(parents=True)
        return path

    def attempt(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"[perfbench] FAIL {message}", file=sys.stderr)
        return ok

    def layer(self, name: str, value: float) -> None:
        self.layer_samples.setdefault(name, []).append(float(value))

    def check_results(self, results: dict, origin: str) -> None:
        """Every result set must equal the golden copy and the run's
        reference; the first one sets the reference."""
        import checks

        digests = checks.stats_digests(results)
        self.attempt(len(digests) == len(self.specs),
                     f"{origin}: {len(digests)} of {len(self.specs)} "
                     f"results")
        golden = checks.golden_digests()
        bad = [k for k in golden if digests.get(k) != golden[k]]
        self.attempt(not bad, f"{origin}: {len(bad)} results differ from "
                              f"the golden copy, e.g. {bad[:2]}")
        if self.reference is None:
            self.reference = digests
        else:
            bad = [k for k in self.reference
                   if digests.get(k) != self.reference[k]]
            self.attempt(not bad, f"{origin}: {len(bad)} results differ "
                                  f"from this run's reference, e.g. "
                                  f"{bad[:2]}")

    def spans_file(self, stem: str, traced: bool) -> Path | None:
        return self.fresh_dir(stem) / "spans.json" if traced else None

    def plan_traced(self, index: int) -> bool:
        """In a traced run, operations alternate traced / untraced so
        the run measures its own tracing overhead."""
        return self.traced and index % 2 == 0

    # -- set-up ------------------------------------------------------------

    def warm_pyc(self) -> float:
        """Drop and rebuild the program's bytecode cache (timed)."""
        began = time.perf_counter()
        for cache in SRC.rglob("__pycache__"):
            shutil.rmtree(cache)
        proc = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
            env=program_env(self.work), cwd=ROOT, capture_output=True,
            text=True, timeout=120)
        self.attempt(proc.returncode == 0,
                     f"compileall exited {proc.returncode}: "
                     f"{proc.stderr[-300:]}")
        return time.perf_counter() - began

    # -- CLI ---------------------------------------------------------------

    def cli(self, args, kind: str, traced: bool):
        run = run_cli(args, self.work, self.spans_file(kind, traced))
        self.attempt(run.returncode == 0,
                     f"repro {' '.join(map(str, args[:1]))} ({kind}) "
                     f"exited {run.returncode}: {run.stderr[-400:]}")
        if run.spans is not None and run.returncode == 0:
            self.note_cli_spans(run, kind)
        return run

    def cold_all(self, cache: Path, traced: bool):
        import checks

        run = self.cli(["all", "--seed", self.seed, "--cache-dir", cache],
                       "cold", traced)
        counters = checks.engine_counters(run.stderr)
        n = len(self.specs)
        self.attempt(counters.get("simulations") == n
                     and counters.get("stores") == n,
                     f"cold repro all: expected {n} simulations and "
                     f"stores, got {counters}")
        self.attempt(run.stdout == checks.golden_stdout(),
                     "cold repro all stdout differs from the golden copy")
        (self.traced_walls if traced else self.walls)["cold"].append(
            run.wall)
        results = checks.read_results(cache, self.specs)
        self.check_results(results, "cold repro all")
        if self.model_err is None and len(results) == n:
            self.model_err = checks.model_error_pct(results, self.seed)
        return run

    def warm_all(self, cache: Path, cold_stdout: str, traced: bool):
        import checks

        run = self.cli(["all", "--seed", self.seed, "--cache-dir", cache],
                       "warm", traced)
        counters = checks.engine_counters(run.stderr)
        self.attempt(counters.get("simulations") == 0
                     and counters.get("disk-hits") == len(self.specs),
                     f"warm repro all: expected simulations=0 and "
                     f"{len(self.specs)} disk hits, got {counters}")
        self.attempt(run.stdout == cold_stdout,
                     "warm repro all stdout differs from cold")
        (self.traced_walls if traced else self.walls)["warm"].append(
            run.wall)
        if traced and run.returncode == 0:
            for key in ("simulations", "memo-hits", "disk-hits"):
                self.layer(f"engine.{key.replace('-', '_')}",
                           counters.get(key, 0))
            lookups = sum(counters.get(k, 0) for k in
                          ("memo-hits", "disk-hits", "simulations"))
            hits = counters.get("memo-hits", 0) + \
                counters.get("disk-hits", 0)
            self.layer("engine.hit_ratio", hits / max(1, lookups))
            self.note_store(cache)
        return run

    def note_store(self, cache: Path) -> None:
        from repro.engine import ResultCache

        stat = ResultCache(cache).stat()
        self.layer("cache.records", stat["entries"])
        self.layer("cache.bytes", stat["bytes"])
        self.layer("cache.segments", stat["segments"])

    def cold_rep(self) -> None:
        """One cold ``repro all`` on an empty cache directory.  The first
        directory also gets an extra sweep, so it holds more results
        than ``repro all`` reads, and serves every warm run."""
        cache = self.fresh_dir("cli")
        run = self.cold_all(cache, self.plan_traced(len(self.cold_runs)))
        self.cold_runs.append(run.stdout)
        if self.populated is None:
            self.cli([*EXTRA_SWEEP, "--seed", self.seed, "--cache-dir",
                      cache], "sweep", False)
            self.populated = cache
        elif run.stdout != self.cold_runs[0]:
            self.attempt(False, "cold repro all stdout differs between "
                                "repetitions")

    def warm_reps(self, share: float) -> None:
        began = time.perf_counter()
        reps = 0
        while self.until(began, share, reps, 2):
            self.warm_all(self.populated, self.cold_runs[0],
                          self.plan_traced(self.warm_count))
            self.warm_count += 1
            reps += 1

    def note_cli_spans(self, run, kind: str) -> None:
        import checks

        data = tracing.load(run.spans)
        spans = data["spans"]
        selfs = tracing.self_times(spans)
        self.layer("cli.import_s", selfs.get("cli.import", 0.0))
        for metric, names in (COLD_SELF if kind == "cold" else
                              WARM_SELF if kind == "warm" else {}).items():
            self.layer(metric, sum(selfs.get(n, 0.0) for n in names))
        if kind != "cold":
            return
        counts = data["counts"]
        counters = checks.engine_counters(run.stderr)
        self.layer("workloads.instructions",
                   counts.get("workloads.instructions", 0))
        self.layer("compiler.renamed", counts.get("compiler.renamed", 0))
        simulate = selfs.get("timing.simulate", 0.0)
        self.layer("timing.instr_per_s",
                   counts.get("timing.instructions", 0) / simulate
                   if simulate > 0 else 0.0)
        self.layer("timing.grid_groups", counters.get("grid-groups", 0))
        self.layer("timing.fallbacks", counters.get("grid-fallbacks", 0))
        # interpreter start-up before the first span and tear-down after
        # the last one (both processes read the same monotonic clock)
        start_gap = min(s[1] for s in spans) - run.started
        exit_gap = run.ended - max(s[2] for s in spans)
        self.layer("interp.start_s", start_gap)
        self.layer("interp.exit_s", exit_gap)
        # the launcher's own spans are catch-alls, not layers: code the
        # wrappers do not reach lands in cli.main's self time
        catch_all = sum(selfs.get(n, 0.0) for n in CATCH_ALL)
        attributed = sum(selfs.values()) - catch_all + start_gap + exit_gap
        self.layer("trace.unattributed_s", run.wall - attributed)
        self.layer("trace.coverage", attributed / run.wall)

    # -- fleet -------------------------------------------------------------

    def fleet_leg(self, index: int, stream_seconds: float) -> None:
        from repro.service import ServiceClient

        traced = self.plan_traced(index)
        work = self.fresh_dir("fleet")
        began = time.perf_counter()
        self.warm_pyc()
        with Fleet(work, traced=traced) as fleet:
            try:
                fleet.start()
            except RuntimeError as exc:
                self.attempt(False, f"fleet start: {exc}")
                return
            if self.workload == "fleet":
                self.setup.append(time.perf_counter() - began)
            client = ServiceClient(fleet.url, timeout=60)
            lease_age = self.run_grid(client, traced)
            if self.reference is None:
                return
            self.run_stream(fleet.url, index, stream_seconds, traced)
            stats = client.stats()
            series = scrape(client)
            codes = fleet.stop()
        self.attempt(all(code == 0 for code in codes),
                     f"fleet processes exited {codes}")
        self.check_fleet_counters(stats, series)
        if traced:
            self.note_fleet(fleet, stats, series, lease_age)

    def run_grid(self, client, traced: bool) -> float:
        """The cold ``repro all`` spec set as one job; returns the
        oldest lease age seen while it ran (traced runs only)."""
        lease_age = [0.0]
        done = threading.Event()

        def watch() -> None:
            while not done.wait(0.25):
                try:
                    age = client.stats()["backend"]["oldest_lease_age"]
                except (OSError, KeyError):
                    continue
                lease_age[0] = max(lease_age[0], age)

        if traced:
            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
        began = time.perf_counter()
        try:
            results = client.run_many(self.specs, timeout=150)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            self.attempt(False, f"fleet grid: {exc!r}")
            return 0.0
        finally:
            done.set()
        wall = time.perf_counter() - began
        if traced:
            watcher.join(timeout=5)
        (self.traced_walls if traced else self.walls)["grid"].append(wall)
        self.check_results(results, "fleet grid")
        return lease_age[0]

    def run_stream(self, url: str, leg: int, seconds: float,
                   traced: bool) -> None:
        import checks
        from repro.service import ServiceClient
        from repro.workloads import benchmark_names
        from stream import make_stream

        count = max(1, int(seconds * STREAM_RATE))
        jobs = make_stream(self.seed, leg, self.specs, count,
                           benchmark_names())
        reference = self.reference
        submitter = ServiceClient(url, timeout=60)
        poller = ServiceClient(url, timeout=60)
        fresh: dict = {}

        def outcome(index: int, result) -> bool:
            """Whether a job snapshot is done; checks its results."""
            if result.status == "running":
                return False
            if result.status != "done":
                raise Failure(f"job {result.job_id} {result.status}: "
                              f"{result.error}")
            job = jobs[index]
            results = result.stats_by_spec()
            for spec in job.specs:
                if spec == job.miss:
                    fresh[spec] = results[spec]
                elif checks.stats_digest(results[spec]) != \
                        reference[checks.spec_key(spec)]:
                    raise Failure(f"cached result for {spec} differs")
            return True

        def submit(index: int):
            if self.recorder is not None and traced:
                self.recorder.set_job(f"stream-{leg}-{index}")
            result = submitter.submit(jobs[index].specs)
            return result.job_id, outcome(index, result)

        def poll(index: int, job_id: str):
            return outcome(index, poller.poll(job_id))

        report = OpenLoop(STREAM_RATE, count,
                          poll_interval=poller.poll_interval).run(
            submit, poll)
        for rec in report.records:
            self.jobs += 1
            if not self.attempt(rec.ok, f"stream job {rec.index}: "
                                        f"{rec.error}"):
                continue
            latency = rec.latency
            is_miss = jobs[rec.index].miss is not None
            (self.misses if is_miss else self.hits).append(latency)
            if latency <= LATENCY_LIMIT_S:
                self.jobs_within += 1
        self.late += report.late_s
        self.backlog = max(self.backlog, report.max_backlog)
        if traced:
            lates = report.late_s
            self.layer("gen.late_p50_ms", 1000 * st.median(lates))
            self.layer("gen.late_max_ms", 1000 * max(lates))
            self.layer("gen.backlog", report.max_backlog)
            polls = sum(rec.polls for rec in report.records)
            done = sum(rec.ok for rec in report.records)
            self.layer("client.polls_per_job", polls / count)
            self.layer("client.poll_useful_ratio", done / max(1, polls))
        self.verify_misses(fresh, [j.miss for j in jobs if j.miss])

    def verify_misses(self, fresh: dict, expected: list) -> None:
        """Recompute every miss in-process, without any cache."""
        import checks
        from repro.engine import Engine

        if not expected:
            return
        local = Engine(seed=self.seed, use_cache=False,
                       backend="inline").run_many(expected)
        bad = [spec for spec in expected if spec not in fresh or
               checks.stats_digest(fresh[spec]) !=
               checks.stats_digest(local[spec])]
        self.attempt(not bad, f"{len(bad)} fleet miss results differ from "
                              f"in-process Engine(use_cache=False), e.g. "
                              f"{bad[:1]}")

    def check_fleet_counters(self, stats: dict, series: dict) -> None:
        backend = stats["backend"]
        self.attempt(backend["duplicate_completions"] == 0,
                     f"fleet admitted duplicate completions: {backend}")
        self.attempt(backend["completions"] == backend["enqueued_shards"]
                     and backend["discarded"] == 0
                     and series.get("repro_fleet_failed_shards", 0) == 0,
                     f"fleet lost shards: {backend}")

    def note_fleet(self, fleet: Fleet, stats: dict, series: dict,
                   lease_age: float) -> None:
        backend = stats["backend"]
        scheduler = stats["scheduler"]
        self.layer("backends.dispatches", stats["engine"]["dispatches"])
        self.layer("queue.leases", backend["leases"])
        self.layer("queue.expired", backend["releases"])
        self.layer("queue.duplicates", backend["duplicate_completions"])
        self.layer("queue.oldest_lease_age_s", lease_age)
        self.layer("scheduler.batches", scheduler["batches"])
        self.layer("scheduler.batch_size_mean",
                   scheduler["batched_specs"] / max(1, scheduler["batches"]))
        self.layer("scheduler.coalesced", scheduler["coalesced"])
        count = series.get("repro_scheduler_job_latency_seconds_count", 0)
        self.layer("scheduler.job_latency_s",
                   series.get("repro_scheduler_job_latency_seconds_sum", 0)
                   / max(1, count))
        wire = {"wire.encode": 0.0, "wire.decode": 0.0}
        shards: list[float] = []
        server = {}
        worker_self = {}
        for path in fleet.span_files:
            if not path.exists():
                self.attempt(False, f"no spans written to {path.name}")
                continue
            spans = tracing.load(path)["spans"]
            selfs = tracing.self_times(spans)
            for name in wire:
                wire[name] += selfs.get(name, 0.0)
            if path.name.startswith("server"):
                server = selfs
            else:
                shards += tracing.durations(spans, "engine.run_many")
                for name, value in selfs.items():
                    worker_self[name] = worker_self.get(name, 0.0) + value
        if self.recorder is not None:
            client_spans = self.recorder.payload()["spans"]
            for name, value in tracing.self_times(client_spans).items():
                if name in wire:
                    wire[name] += value
        self.layer("wire.encode_s", wire["wire.encode"])
        self.layer("wire.decode_s", wire["wire.decode"])
        self.layer("backends.execute_s", server.get("backends.execute", 0))
        self.layer("queue.collect_s", server.get("queue.collect", 0.0))
        self.shards += shards
        self.layer("worker.generate_s",
                   worker_self.get("workloads.generate", 0.0)
                   + worker_self.get("compiler.verify", 0.0)
                   + worker_self.get("compiler.rename", 0.0))
        self.layer("worker.simulate_s",
                   worker_self.get("timing.decode", 0.0)
                   + worker_self.get("timing.simulate", 0.0))

    # -- workloads ---------------------------------------------------------

    def until(self, began: float, share: float, done: int,
              least: int) -> bool:
        """Keep repeating while under ``least`` repetitions or within
        ``share`` of the run's seconds."""
        return done < least or \
            time.perf_counter() - began < share * self.seconds

    def run(self) -> None:
        """Rounds of cold, warm and fleet measurements, so that every
        metric samples the whole run (the host's speed drifts over tens
        of seconds).  ``cli-cold`` opens each round with the CLI and
        times the ``.pyc`` warm-up as its set-up; ``fleet`` opens each
        round with the fleet and times its start as its set-up."""
        if self.workload == "cli-cold":
            for _ in range(3):
                self.setup.append(self.warm_pyc())
        stream = STREAM_SHARE * self.seconds / ROUNDS
        for index in range(ROUNDS):
            if self.workload == "fleet":
                self.fleet_leg(index, stream)
            self.cold_rep()
            self.warm_reps(WARM_SHARE / ROUNDS)
            if self.workload == "cli-cold":
                self.fleet_leg(index, stream)
        self.attempt(self.model_err is not None,
                     "model error could not be computed")

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        failed = len(self.failures)

        def med(values):
            return st.median(values) if values else float("nan")

        hit = st.summarize(self.hits) if self.hits else None
        miss = st.summarize(self.misses) if self.misses else None
        values = {
            "setup_s": med(self.setup),
            "cold_all_s": med(self.walls["cold"]),
            "warm_all_s": med(self.walls["warm"]),
            "fleet_grid_s": med(self.walls["grid"]),
            "hit_p50_ms": 1000 * hit["p50"] if hit else float("nan"),
            "hit_tail_ms": 1000 * hit["tail"] if hit else float("nan"),
            "miss_p50_ms": 1000 * miss["p50"] if miss else float("nan"),
            "miss_tail_ms": 1000 * miss["tail"] if miss else float("nan"),
            "limit_met_frac": self.jobs_within / max(1, self.jobs),
            "peak_rss_mb": peak / 1024.0,
            "ok_frac": 1.0 - failed / max(1, self.attempted),
            "model_err_pct": self.model_err if self.model_err is not None
            else float("nan"),
        }
        notes = {
            "samples": {name: [round(v, 4) for v in values] for name, values
                        in (("setup", self.setup), *self.walls.items())},
            "hit": hit, "miss": miss,
            "late_ms_p50": 1000 * med(self.late) if self.late else None,
            "max_backlog": self.backlog,
        }
        return values, notes

    def per_layer(self) -> dict:
        values = {name: st.median(samples)
                  for name, samples in self.layer_samples.items()}
        if self.shards:
            summary = st.summarize(self.shards)
            values["worker.shard_p50_s"] = summary["p50"]
            values["worker.shard_tail_s"] = summary["tail"]
        for op, untraced in self.walls.items():
            traced = self.traced_walls[op]
            if traced and untraced:
                values[f"trace.overhead_{op}_s"] = \
                    st.median(traced) - st.median(untraced)
        return values


def layer_units() -> dict[str, str]:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in data["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an error, so every fleet is stopped on the way
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(args.workload, args.seed, args.seconds,
                      bool(args.trace), work)
    if session.recorder is not None:
        tracing.install(session.recorder, service=True)
    try:
        session.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, notes = session.end_to_end()
    print(f"[perfbench] workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={session.attempted} "
          f"failed={len(session.failures)}")
    print(f"[perfbench] {json.dumps(notes)}")
    if args.trace:
        units = layer_units()
        values = session.per_layer()
        missing = sorted(set(units) - set(values))
        if missing:
            session.attempt(False, f"per-layer metrics not measured: "
                                   f"{missing}")
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        st.check_metric_name(name)
        value = metric["value"]
        if value is None or value != value:  # unmeasured, or NaN
            metric["value"] = None
            session.attempt(False, f"metric {name} was not measured")
        print(f"  {name:28s} {metric['value']} {metric['unit']}")
    failed = len(session.failures)
    print(json.dumps({"correct": failed == 0,
                      "attempted": session.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

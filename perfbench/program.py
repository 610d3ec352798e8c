"""Running the program: CLI invocations and a served fleet.

Every program process is a fresh interpreter started from the
checkout's ``src``.  Traced processes go through ``launch.py``, which
wraps the program's public functions before calling
``repro.cli.main``; untraced ones run ``python -m repro``.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_URL = re.compile(r"listening on (http://\S+)")
PR_SET_PDEATHSIG = 1


def program_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # nothing may read or write the user's default cache
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "PYTHONPYCACHEPREFIX",
                 "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def command(args, spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "repro", *map(str, args)]
    return [sys.executable, str(HERE / "launch.py"), str(spans), "--",
            *map(str, args)]


@dataclass
class CliRun:
    wall: float
    returncode: int
    stdout: str
    stderr: str
    started: float
    ended: float
    spans: Path | None


def run_cli(args, work: Path, spans: Path | None = None,
            timeout: float = 150.0) -> CliRun:
    """One fresh-interpreter CLI invocation, timed from spawn to exit."""
    cmd = command(args, spans)
    env = program_env(work)
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:  # the child has been killed
        ended = time.perf_counter()
        return CliRun(wall=ended - started, returncode=-9, stdout="",
                      stderr=f"timed out after {timeout}s",
                      started=started, ended=ended, spans=None)
    ended = time.perf_counter()
    return CliRun(wall=ended - started, returncode=proc.returncode,
                  stdout=proc.stdout, stderr=proc.stderr,
                  started=started, ended=ended, spans=spans)


def _die_with_parent() -> None:
    """Child-side: get SIGTERM if the benchmark process dies, so a
    killed run leaves no coordinator or worker behind (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _stop(proc: subprocess.Popen, sig: int, grace: float) -> int:
    """Signal a process and wait for it; SIGKILL after ``grace``."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


class Fleet:
    """``repro serve --backend remote --jobs 2`` plus N ``repro worker``s.

    The coordinator gets its own cache directory; the workers run
    inline without a persistent cache, so every result they compute
    reaches the store through the coordinator.
    """

    def __init__(self, work: Path, workers: int = 2,
                 traced: bool = False):
        self.work = work
        self.workers = workers
        self.traced = traced
        self.url: str | None = None
        self.server: subprocess.Popen | None = None
        self.worker_procs: list[subprocess.Popen] = []
        self.returncodes: list[int] = []
        self.span_files: list[Path] = []
        self._logs = []

    def _spawn(self, args, name: str) -> subprocess.Popen:
        spans = self.work / f"{name}.spans.json" if self.traced else None
        if spans is not None:
            self.span_files.append(spans)
        log = open(self.work / f"{name}.log", "w", encoding="utf-8")
        self._logs.append(log)
        return subprocess.Popen(command(args, spans), cwd=ROOT,
                                env=program_env(self.work),
                                stdout=subprocess.DEVNULL, stderr=log,
                                preexec_fn=_die_with_parent)

    def start(self, timeout: float = 60.0) -> float:
        """Start the fleet; returns seconds until every worker is
        attached (has polled the coordinator for work)."""
        from repro.service import ServiceClient

        began = time.perf_counter()
        deadline = began + timeout
        self.server = self._spawn(
            ["serve", "--backend", "remote", "--jobs", "2", "--port", "0",
             "--cache-dir", self.work / "cache"], "server")
        log = self.work / "server.log"
        while self.url is None:
            match = _URL.search(log.read_text(encoding="utf-8"))
            if match:
                self.url = match.group(1)
                break
            if self.server.poll() is not None or \
                    time.perf_counter() > deadline:
                raise RuntimeError(f"coordinator did not start: "
                                   f"{log.read_text()[-400:]}")
            time.sleep(0.01)
        for i in range(self.workers):
            self.worker_procs.append(self._spawn(
                ["worker", "--url", self.url, "--backend", "inline",
                 "--no-cache", "--id", f"w{i}"], f"worker{i}"))
        client = ServiceClient(self.url)
        while True:
            try:
                attached = scrape(client).get("repro_fleet_workers", 0)
            except OSError:
                attached = 0
            if attached >= self.workers:
                return time.perf_counter() - began
            dead = [p for p in self.worker_procs if p.poll() is not None]
            if dead or time.perf_counter() > deadline:
                raise RuntimeError("workers did not attach")
            time.sleep(0.01)

    def stop(self) -> list[int]:
        """Stop workers (SIGINT) then drain the coordinator (SIGTERM);
        returns every exit code."""
        codes = [_stop(p, signal.SIGINT, 20.0) for p in self.worker_procs]
        if self.server is not None:
            codes.append(_stop(self.server, signal.SIGTERM, 40.0))
        for log in self._logs:
            log.close()
        self.returncodes = codes
        return codes

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.returncodes:
            self.stop()


def scrape(client) -> dict[str, float]:
    """``GET /v1/metrics`` as ``{series: value}``."""
    out = {}
    for line in client.metrics().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out

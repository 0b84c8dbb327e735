"""``service-warm``: warm jobs over HTTP against a pre-filled artifact cache.

``python -m repro.service`` runs in its own process.  Set-up starts it,
sends its first request, runs a fixed catalogue of distinct specs cold,
one at a time, to fill the cache, then resubmits each once untimed.  In
the timed phase one client resubmits the specs in a fixed order and
polls ``/result`` every ``POLL_S`` seconds.  Every timed job must be a
pure cache hit with the cold run's seed sets; a miss is a workload
fault, not a data point.

One client, not two: the server's two workers share one interpreter
lock, so with two clients a job's latency depends on how often it
overlaps the other client's job, and that moved the p95 by 31% (IQR over
median) across five seeds.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import numpy as np

from harness import (
    ROOT,
    SRC,
    Measured,
    Tracer,
    mean,
    median,
    min_samples_for,
    scrub_repro_env,
    tree_bytes,
)

SPEC_BASE = 2000
#: Odd, so the median falls inside one spec's latencies, not between two.
SPEC_COUNT = 5
SPEC = {
    "dataset": "lastfm",
    "scale": 1.0,
    "theta": 40_000,
    "k": 10,
    "pieces": 4,
    "method": "bab-p",
}
SERVER_WORKERS = 2
#: Poll interval; at most 1/20 of a warm job (about 50 ms on a quiet
#: host) so polling does not coarsen it.
POLL_S = 0.0025
TAIL_Q = 95.0
SETUP_REPEATS = 2
_CACHE_STAGES = ("sample", "index", "solve")


def _specs() -> list[dict]:
    return [dict(SPEC, seed=SPEC_BASE + i) for i in range(SPEC_COUNT)]


class Server:
    """One ``python -m repro.service`` process and a way to stop it."""

    def __init__(self, art_dir: str, log_path: str) -> None:
        env = scrub_repro_env(dict(os.environ))
        env["PYTHONPATH"] = SRC
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--port", "0",
                "--workers", str(SERVER_WORKERS), "--artifact-dir", art_dir,
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        found = re.search(r"http://([\d.]+):(\d+)", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def connect(self) -> "Client":
        return Client(self.host, self.port)

    def stop(self) -> float:
        """Stop the server; returns its peak resident set in MB."""
        peak_kib = 0
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            deadline = time.monotonic() + 20
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    peak_kib = usage.ru_maxrss
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    deadline = float("inf")
                time.sleep(0.02)
        self.proc.stdout.close()
        self._log.close()
        return peak_kib / 1024.0


class Client:
    """A keep-alive JSON client for the service routes.

    The stdlib server writes a response's headers and body as two
    segments.  On a kept-alive socket Nagle's algorithm then holds the
    body until the client ACKs the headers, and a delayed ACK takes
    ~40 ms on Linux.  The client asks for an immediate ACK before every
    exchange, so the stall does not swamp the warm path being measured.
    """

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def _quickack(self) -> None:
        if self.conn.sock is None:
            self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def call(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self._quickack()
        self.conn.request(method, path, body=data, headers=headers)
        self._quickack()
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def submit(self, spec: dict) -> str:
        status, payload = self.call("POST", "/v1/jobs", spec)
        if status != 201:
            raise RuntimeError(f"submit refused ({status}): {payload}")
        return payload["id"]

    def result(self, job_id: str, interval: float, tracer=None):
        """Poll until the job is terminal; returns (status, payload, polls)."""
        path = f"/v1/jobs/{job_id}/result"
        polls = 0
        while True:
            polls += 1
            if tracer is None:
                status, payload = self.call("GET", path)
            else:
                with tracer.span("service.poll"):
                    status, payload = self.call("GET", path)
            if status != 202:
                return status, payload, polls
            time.sleep(interval)

    def close(self) -> None:
        self.conn.close()


def _seed_sets(payload) -> list:
    return [sorted(s) for s in payload["result"]["seed_sets"]]


def _check(payload, status, ref) -> str | None:
    if status != 200 or payload.get("state") != "done":
        return f"job ended {status}: {payload.get('error') or payload.get('state')}"
    actions = {(e["stage"], e["action"]) for e in payload["trace"]}
    for stage in _CACHE_STAGES:
        if (stage, "hit") not in actions or (stage, "run") in actions:
            return f"warm job did not hit stage {stage!r}: {sorted(actions)}"
    if _seed_sets(payload) != ref["seed_sets"]:
        return "warm seed sets differ from the cold run"
    if payload["result"]["evaluation"] != ref["evaluation"]:
        return "warm evaluation differs from the cold run"
    return None


def _fill(server: Server, specs) -> list[dict]:
    """Run every spec cold and keep its result as the reference."""
    client = server.connect()
    status, _ = client.call("GET", "/healthz")
    if status != 200:
        raise RuntimeError(f"healthz answered {status}")
    # One cold job at a time: two at once on the two workers make the
    # server's peak RSS depend on whether their sampling peaks overlap.
    refs = []
    for spec in specs:
        status, payload, _ = client.result(client.submit(spec), 0.02)
        if status != 200:
            raise RuntimeError(f"cold fill job failed: {payload}")
        refs.append(
            {"seed_sets": _seed_sets(payload),
             "evaluation": payload["result"]["evaluation"]}
        )
    # the untimed warm pass: first hit of every spec
    for spec, ref in zip(specs, refs):
        status, payload, _ = client.result(client.submit(spec), POLL_S)
        problem = _check(payload, status, ref)
        if problem is not None:
            raise RuntimeError(f"warm-up job: {problem}")
    client.close()
    return refs


def _warm_reads(art_dir: str, specs) -> tuple[float, list[float]]:
    """Dataset build, then cache-served ``sample`` + ``sample_evaluation``.

    Runs in this process against the server's cache, after the timed
    phase; returns the build seconds and each spec's read seconds.
    """
    from repro import Runtime, Session, load_dataset

    start = time.perf_counter()
    load_dataset(SPEC["dataset"], scale=SPEC["scale"])
    build_s = time.perf_counter() - start
    out = []
    for spec in specs:
        session = Session.from_dataset(
            spec["dataset"], pieces=spec["pieces"], scale=spec["scale"],
            k=spec["k"], seed=spec["seed"], runtime=Runtime(artifacts=art_dir),
        )
        start = time.perf_counter()
        session.sample(spec["theta"])
        session.sample_evaluation(4 * spec["theta"])
        out.append(time.perf_counter() - start)
        if session.stage_trace.sampled():
            raise RuntimeError("in-process warm read sampled")
    return build_s, out


def measure(seed: int, seconds: float, trace: bool, work_dir: str) -> Measured:
    from repro import DiskArtifactStore

    m = Measured(tail_q=TAIL_Q)
    specs = _specs()
    # The seed rotates where the fixed submission order starts.
    start_at = int(np.random.default_rng([seed, 0x5E4F]).integers(SPEC_COUNT))
    order = [(start_at + i) % SPEC_COUNT for i in range(SPEC_COUNT)]

    server = None
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            art_dir = os.path.join(work_dir, f"cache-{rep}")
            server = Server(art_dir, os.path.join(work_dir, f"server-{rep}.log"))
            refs = _fill(server, specs)
            m.setup_runs.append(time.perf_counter() - start)

        store = DiskArtifactStore(art_dir)
        before = store.stats()
        bytes_before = tree_bytes(art_dir)
        client = server.connect()
        coalesced_before = client.call("GET", "/metrics")[1]["single_flight_coalesced"]
        tracer = Tracer()
        done = []  # one dict per completed job
        n_min = min_samples_for(TAIL_Q)
        t_start = time.perf_counter()
        k = 0
        while time.perf_counter() - t_start < seconds or m.attempted < n_min:
            index = order[k % SPEC_COUNT]
            # flip with the cycle too, so every spec is traced half the time
            traced = trace and (k % SPEC_COUNT + k // SPEC_COUNT) % 2 == 1
            k += 1
            m.attempted += 1
            w0 = time.time()
            t0 = time.perf_counter()
            if traced:
                tracer.new_op()
                with tracer.span("op"):
                    with tracer.span("service.submit"):
                        job_id = client.submit(specs[index])
                    status, job, polls = client.result(job_id, POLL_S, tracer)
            else:
                job_id = client.submit(specs[index])
                status, job, polls = client.result(job_id, POLL_S)
            latency = time.perf_counter() - t0
            w1 = time.time()
            problem = _check(job, status, refs[index])
            if problem is not None:
                m.fail(f"spec {index}: {problem}")
                continue
            done.append({
                "latency": latency,
                "traced": traced,
                "queue_wait": job["started_at"] - job["submitted_at"],
                "exec": job["finished_at"] - job["started_at"],
                "overhead": (w1 - w0) - (job["finished_at"] - job["submitted_at"]),
                "polls": polls,
            })
        m.wall_s = time.perf_counter() - t_start

        after = store.stats()
        coalesced = client.call("GET", "/metrics")[1]["single_flight_coalesced"] - coalesced_before
        client.close()
        delta = {f: after[f] - before[f] for f in ("hits", "misses", "puts")}
        if delta["misses"] or delta["puts"]:
            m.fail(f"timed phase touched the cache cold: {delta}")
        bytes_written = tree_bytes(art_dir) - bytes_before
        m.peak_rss_mb = server.stop()
    finally:
        if server is not None:
            server.stop()

    m.latencies = [d["latency"] for d in done if not d["traced"]]
    m.traced_latencies = [d["latency"] for d in done if d["traced"]]
    m.au_values = [r["evaluation"] for r in refs]
    gets = delta["hits"] + delta["misses"]
    m.notes.update(
        hit_ratio=delta["hits"] / gets if gets else 0.0,
        jobs=len(done),
        poll_s=POLL_S,
    )
    if trace:
        jobs = len(done)
        build_s, reads = _warm_reads(art_dir, specs)
        m.layers = {
            "datasets.build_s": build_s,
            "service.queue_wait_ms": median([d["queue_wait"] for d in done]) * 1e3,
            "service.exec_ms": median([d["exec"] for d in done]) * 1e3,
            "service.overhead_ms": median([d["overhead"] for d in done]) * 1e3,
            "service.polls_per_job": mean([d["polls"] for d in done]),
            "service.coalesced": coalesced,
            "artifacts.hits": delta["hits"] / jobs,
            "artifacts.misses": delta["misses"] / jobs,
            "artifacts.puts": delta["puts"] / jobs,
            "artifacts.hit_ratio": m.notes["hit_ratio"],
            "artifacts.bytes_written": bytes_written / jobs,
            "artifacts.warm_read_s": median(reads),
        }
        m.notes["spans"] = tracer.dump()
    return m

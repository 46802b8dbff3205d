"""The ``service_mix`` workload: a ``repro serve`` process driven by
two closed-loop client threads, then restarted on the same cache.

One cycle:

1. spawn ``repro serve --port 0 --cache-dir <fresh dir>``;
2. pass 1: the two clients replay the seeded submission sequence
   (every pool spec once, each followed by repeats of recent specs), so
   the server executes each pool spec once and deduplicates the rest;
3. stop the server, start a new one on the same cache directory;
4. pass 2: the same sequence again, resolved from the run cache and
   then from the new scheduler's index.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time

import harness
import plan

CLIENTS = 2


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: str, workdir: str, env: dict, timeout: float = 60.0):
        from repro.service.client import ServiceClient

        self.log = open(tempfile.mkstemp(prefix="serve-", suffix=".log", dir=workdir)[1], "wb")
        spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=harness.ROOT,
        )
        try:
            url = self._announced_url(spawned + timeout)
            self.client = ServiceClient(url)
            while True:
                try:
                    self.client.healthz()
                    break
                except OSError:
                    if time.perf_counter() > spawned + timeout:
                        raise
                    time.sleep(0.001)
            self.setup_s = time.perf_counter() - spawned
        except BaseException:
            self.stop()
            raise

    def _announced_url(self, deadline: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise TimeoutError("repro serve did not announce its port")
            chunk = os.read(self.process.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("repro serve exited with {}".format(self.process.wait()))
            line += chunk
        return line.decode().strip().rsplit(" ", 1)[-1]

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MB (0 if gone)."""
        rss = 0.0
        if self.process.poll() is None:
            rss = harness.process_peak_rss_mb(self.process.pid)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        return rss


def setup_probe(workdir, env) -> float:
    """Spawn a server on an empty cache and stop it: its set-up time."""
    server = Server(tempfile.mkdtemp(prefix="probe-cache-", dir=workdir), workdir, env)
    server.stop()
    return server.setup_s


def run_pass(client, payloads, sequence, spans, label):
    """Both clients work through their halves of ``sequence``; returns
    the responses (pool index, kind, latency, summary, fingerprint,
    run, polls) or errors, and the wall time of the pass."""
    responses = []
    errors = []
    lock = threading.Lock()

    def client_loop(number):
        for position, index in enumerate(sequence[number::CLIENTS]):
            trace_id = "{}-c{}-{}".format(label, number, position)
            try:
                latency, kind, summary, payload, run, polls = harness.request(
                    client, payloads[index], spans, trace_id)
                fingerprint = harness.payload_fingerprint(payload)
            except Exception as error:  # noqa: BLE001 — counted, not fatal
                with lock:
                    errors.append("{} {}: {!r}".format(label, index, error))
                continue
            with lock:
                responses.append((index, kind, latency, summary, fingerprint, run, polls))

    threads = [threading.Thread(target=client_loop, args=(n,), daemon=True)
               for n in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses, errors, time.perf_counter() - started


def cycle(seed, size, spans, workdir, env, book) -> dict:
    """One full service_mix cycle (see the module docstring)."""
    from repro.core.runcache import RunCache
    from repro.core.cache_resolution import resolve_cached_run
    from repro.service import api

    pool = plan.service_pool(seed, size)
    sequence = plan.service_sequence(seed, size)
    payloads = [api.spec_to_payload(spec) for spec in pool]
    cache_dir = tempfile.mkdtemp(prefix="mix-cache-", dir=workdir)
    probe_cache = RunCache(cache_dir)
    for spec in pool:
        resolve_cached_run(probe_cache, spec)  # all miss: the cache is empty

    out = {"fresh": [], "dedup_pass1": [], "dedup": [], "cached": [], "polls": [], "failures": [],
           "attempted": 0, "setup": [], "rss_mb": 0.0, "stats": [], "pass_wall": [],
           "completed": 0, "fresh_runs": []}
    reference = {}
    for label in ("first", "restart"):
        server = Server(cache_dir, workdir, env)
        try:
            out["setup"].append(server.setup_s)
            responses, errors, wall = run_pass(server.client, payloads, sequence, spans, label)
            out["stats"].append(server.client.stats())
        finally:
            rss_mb = server.stop()
        if label == "first":
            out["rss_mb"] = rss_mb  # the server that simulated
        out["attempted"] += len(sequence)
        out["failures"].extend(errors)
        out["pass_wall"].append(wall)
        out["completed"] += len(responses)
        # Pass 1 executes each pool spec once and deduplicates every
        # other request for it; pass 2 resolves each from the run cache
        # once and the rest from the new scheduler's index.  Responses
        # are in completion order, so the first answers are picked out
        # before any response is checked against them.
        first_kind = "fresh" if label == "first" else "cached"
        chosen = {}
        for position, (index, kind, *_rest) in enumerate(responses):
            if kind == first_kind:
                chosen.setdefault(index, position)
        if label == "first":
            for index, position in chosen.items():
                _index, _kind, _latency, summary, fingerprint, run, _polls = responses[position]
                reference[index] = fingerprint
                out["fresh_runs"].append((summary, run.result.stats.cycles))
        for position, (index, kind, latency, summary, fingerprint, run, polls) in enumerate(responses):
            problems = ["identity " + name for name in harness.identity_failures(run.result)]
            if chosen.get(index) == position:
                if kind == "fresh" and not book.check("run:" + summary["digest"], fingerprint):
                    problems.append("differs from an earlier run of the same spec")
            elif kind != "dedup":
                problems.append("a {} answer where a dedup one was due".format(kind))
            if reference.get(index) != fingerprint:
                problems.append("differs from its first execution")
            if problems:
                out["failures"].append("{} {}: {}".format(label, pool[index].name, "; ".join(problems)))
                continue
            # Pass 1 deduplicates by attaching to a run in flight or by
            # the index while the server simulates, a mixture whose
            # median swings with timing; the restart pass executes
            # nothing, so its deduplicated answers are index hits alone.
            out["dedup_pass1" if kind == "dedup" and label == "first" else kind].append(latency)
            out["polls"].append(polls)
        out["failures"].extend(
            "{} {}: no {} answer".format(label, pool[index].name, first_kind)
            for index in sorted(set(index for index, *_rest in responses) - set(chosen)))
    out["runcache"] = harness.runcache_probe(probe_cache, pool, spans)
    return out

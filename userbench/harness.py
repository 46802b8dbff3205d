"""Shared pieces of the user-path benchmark: spans, the layer sampler,
statistics, the HTTP request loop, and the checks every result passes.

Everything here lives on the benchmark side.  Spans wrap the
benchmark's own calls into the program's public functions; nothing
under ``src/`` is instrumented.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: spans, digests, temporary caches.
STATE = os.path.join(ROOT, ".userbench")

#: Polls of /jobs/{id} start this often, so the ~5 ms deduplicated
#: latency is not quantised by the poll (the client's default is 50 ms),
#: and back off to 5% of the time waited so far, so a long execution is
#: not slowed by a client hammering the server it runs in.
POLL_SECONDS = 0.0005
POLL_BACKOFF = 0.05


class BenchError(Exception):
    """The benchmark cannot produce a result; printed instead of one."""


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values):
    if not values:
        raise BenchError("a reported metric has no samples")
    return statistics.median(values)


def percentile(values, p) -> float:
    """Linearly interpolated p-th percentile."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("a reported metric has no samples")
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def distribution(values) -> dict:
    """Median, mean and the highest percentile with at least ten
    samples beyond it, with the sample count."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None,
           "mean": statistics.fmean(values) if values else None}
    for p in (99.9, 99, 90):
        if n * (100 - p) / 100.0 >= 10:
            out["p{:g}".format(p)] = percentile(values, p)
            break
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set (ru_maxrss is in KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set, from /proc."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid {}".format(pid))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory spans: name, start, end, parent, and the id shared by
    every span of one run or job.  A disabled recorder records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, trace_id: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append(
                    {"id": span_id, "parent": parent, "trace": trace_id,
                     "name": name, "start": start, "end": end}
                )

    def extend(self, records, prefix: str) -> None:
        """Adopt spans recorded in another process, keeping their tree."""
        with self._lock:
            for record in records:
                adopted = dict(record)
                adopted["id"] = "{}{}".format(prefix, record["id"])
                if record["parent"] is not None:
                    adopted["parent"] = "{}{}".format(prefix, record["parent"])
                self.records.append(adopted)


def self_times(records) -> list:
    """Each span with ``self`` = duration minus the time its children cover."""
    children = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)
    out = []
    for record in records:
        covered = 0.0
        cursor = record["start"]
        for child in sorted(children.get(record["id"], []), key=lambda c: c["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], record["end"])
            if end > start:
                covered += end - start
                cursor = end
        annotated = dict(record)
        annotated["self"] = (record["end"] - record["start"]) - covered
        out.append(annotated)
    return out


def self_time_by_name(records) -> dict:
    totals = {}
    for record in self_times(records):
        totals.setdefault(record["name"], []).append(record["self"])
    return totals


# ---------------------------------------------------------------------------
# the host-side layer sampler
# ---------------------------------------------------------------------------

#: Innermost-frame file -> layer.  Order matters: first match wins.
HOST_LAYERS = (
    ("/repro/cpu/ebox.py", "cpu.ebox"),
    ("/repro/cpu/ibuffer.py", "cpu.ibuffer"),
    ("/repro/core/compile.py", "core.compile"),
    ("<replay:", "core.compile"),
    ("<superblock:", "core.compile"),
    ("/repro/memory/", "memory"),
    ("/repro/cpu/semantics.py", "cpu.semantics"),
)
HOST_LAYER_NAMES = ("cpu.ebox", "cpu.ibuffer", "core.compile", "memory", "cpu.semantics", "other")


def host_layer(filename: str) -> str:
    normalized = filename.replace(os.sep, "/")
    for needle, layer in HOST_LAYERS:
        if needle in normalized:
            return layer
    return "other"


class LayerSampler:
    """Samples one thread's innermost frame via ``sys._current_frames()``
    while :attr:`active` is set, and counts samples per layer."""

    def __init__(self, thread_id: int, interval: float = 0.005):
        self.thread_id = thread_id
        self.interval = interval
        self.active = False
        self.counts = dict.fromkeys(HOST_LAYER_NAMES, 0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.active:
                continue
            frame = sys._current_frames().get(self.thread_id)
            if frame is not None:
                self.counts[host_layer(frame.f_code.co_filename)] += 1

    def __enter__(self) -> "LayerSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def shares(self) -> dict:
        total = sum(self.counts.values()) or 1
        return {name: count / total for name, count in self.counts.items()}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def result_digest(result) -> str:
    from repro.core.histogram_io import result_to_json

    return hashlib.sha256(result_to_json(result).encode("utf-8")).hexdigest()


def identity_failures(result) -> list:
    """Names of the counter identities ``result`` breaks."""
    from repro.obs.invariants import check_result

    return [outcome.name for outcome in check_result(result) if not outcome.ok]


def payload_fingerprint(payload: dict) -> str:
    """sha256 of what a run computed — its result and raw histogram —
    leaving out provenance (wall time, manifest), which a deduplicated
    copy changes by design."""
    body = json.dumps(
        {"result": payload["result"], "histogram": payload["histogram"]},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


MODEL_FIELDS = (
    ("model.cycles", lambda r: r.stats.cycles),
    ("model.instructions", lambda r: r.instructions),
    ("model.cache_read_misses", lambda r: r.stats.cache_read_misses),
    ("model.tb_misses", lambda r: r.stats.tb_misses),
    ("model.ib_references", lambda r: r.stats.ib_references),
    ("model.sbi_reads", lambda r: r.stats.sbi_reads),
    ("model.sbi_writes", lambda r: r.stats.sbi_writes),
    ("model.wb_stall_cycles", lambda r: r.stats.write_buffer_stall_cycles),
    ("model.page_faults", lambda r: r.events.page_faults),
    ("model.context_switches", lambda r: r.events.context_switches),
    ("model.interrupts", lambda r: r.events.interrupts_delivered),
)


def model_counts(result) -> dict:
    return {name: getter(result) for name, getter in MODEL_FIELDS}


def cpi_error_pct(cycles: float, instructions: int) -> float:
    from repro.core import paper_data

    paper = paper_data.TABLE8_TOTAL_CPI.value
    return abs(cycles / instructions - paper) / paper * 100.0


class DigestBook:
    """Digests of earlier runs of the same seed on the same sources,
    kept in the checkout, so a seed that stops reproducing its result
    counts as a failure.  ``scope`` (the sources' sha256) keeps runs of
    other sources, which may change the model, out of the comparison."""

    path = os.path.join(STATE, "digests.json")

    def __init__(self, scope: str):
        self.scope = scope

    def check(self, key: str, digest: str) -> bool:
        key = "{}|{}".format(self.scope, key)
        try:
            with open(self.path) as handle:
                book = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            book = {}
        if key not in book:
            book[key] = digest
            os.makedirs(STATE, exist_ok=True)
            temporary = self.path + ".tmp"
            with open(temporary, "w") as handle:
                json.dump(book, handle, sort_keys=True)
            os.replace(temporary, self.path)
        return book[key] == digest


def runcache_probe(cache, specs, spans: "Spans") -> dict:
    """Resolve every spec from a run cache the program wrote, timing
    each whole-run resolve (read, checksum, unpickle).  ``cache`` is the
    instance that looked the specs up before anything was stored, so its
    miss count holds those lookups."""
    from repro.core.cache_resolution import resolve_cached_run

    stored = list(cache.entries())
    get_ms = []
    for spec in specs:
        started = time.perf_counter()
        with spans.span("runcache.get", "runcache"):
            resolve_cached_run(cache, spec)
        get_ms.append((time.perf_counter() - started) * 1000.0)
    return {"puts": len(stored), "bytes": cache.total_bytes(),
            "hits": cache.hits, "misses": cache.misses, "get_ms": get_ms}


# ---------------------------------------------------------------------------
# one service request, submit -> decoded result
# ---------------------------------------------------------------------------


def provenance(attached_to, resumed_from) -> str:
    """fresh / dedup / cached, from a run's manifest provenance."""
    if attached_to:
        return "dedup"
    if resumed_from:
        return "cached"
    return "fresh"


def request(client, spec_payload: dict, spans: Spans, trace_id: str, timeout: float = 120.0):
    """Submit a one-spec sweep, poll it, fetch and decode the result.

    Returns ``(latency_s, kind, summary, payload, run, polls)``; raises
    on a failed job or timeout.  See :data:`POLL_SECONDS` for the polling."""
    from repro.service import api

    started = time.perf_counter()
    deadline = started + timeout
    with spans.span("service.request", trace_id):
        with spans.span("service.post", trace_id):
            accepted = client.submit_sweep([spec_payload])
        polls = 0
        with spans.span("service.poll", trace_id):
            while True:
                record = client.job(accepted["job"])
                polls += 1
                if record["state"] in ("done", "failed"):
                    break
                if time.perf_counter() > deadline:
                    raise TimeoutError("job {} not done".format(accepted["job"]))
                time.sleep(max(POLL_SECONDS, POLL_BACKOFF * (time.perf_counter() - started)))
        if record["state"] != "done" or not record["runs"]:
            raise RuntimeError("job {} failed: {}".format(accepted["job"], record.get("error")))
        with spans.span("service.get_result", trace_id):
            payload = client.result_payload(accepted["digests"][0])
        with spans.span("codec.payload_decode", trace_id):
            run = api.run_from_payload(payload)
    latency = time.perf_counter() - started
    summary = record["runs"][0]
    kind = provenance(summary.get("attached_to"), summary.get("resumed_from"))
    return latency, kind, summary, payload, run, polls

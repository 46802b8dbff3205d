"""User-path benchmark for the VAX-11/780 simulator.

    python3 userbench/run.py --workload composite|long_run|service_mix \\
        --seed N --seconds S --trace 0|1
    python3 userbench/run.py --self-test

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  The line before it carries the
details: environment, sample counts and percentiles, failures.

See userbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import harness
import mix
import plan
from harness import BenchError

WORKLOADS = ("composite", "long_run", "service_mix")

#: Any of these selects a regime users do not run (or injects faults).
REFUSED_ENV = ("REPRO_NO_COMPILE", "REPRO_COMPILE_TIER_THRESHOLD", "REPRO_FAULTS")

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT = 150.0

#: Seed of the self-test's reduced pass.
SELF_TEST_SEED = 5


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def load_benchmark() -> dict:
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError("cannot read {}: {}".format(path, error))


def check_environment() -> None:
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "__init__.py")):
        raise BenchError("no simulator source at {}; run from a checkout".format(harness.SRC))
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        raise BenchError("refusing to run with {} set: the benchmark measures the "
                         "default environment".format(", ".join(refused)))


def environment() -> dict:
    import hashlib

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for directory, _dirs, files in sorted(os.walk(os.path.join(harness.SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    source.update(name.encode() + handle.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class Context:
    """What every part of one benchmark run shares."""

    workload: str
    seed: int
    size_name: str
    seconds: int
    workdir: str
    env: dict
    book: harness.DigestBook
    tally: Tally = field(default_factory=Tally)

    @property
    def size(self) -> plan.Size:
        return plan.SIZES[self.size_name]

    @property
    def key(self) -> str:
        return "{}|seed={}|size={}".format(self.workload, self.seed, self.size_name)


def run_child(ctx, mode, cache_dir=None, spans=False) -> dict:
    command = [sys.executable, CHILD, mode, "--workload", ctx.workload, "--seed",
               str(ctx.seed), "--size", ctx.size_name]
    if cache_dir is not None:
        command += ["--cache-dir", cache_dir]
    if spans:
        command.append("--spans")
    with tempfile.TemporaryFile(dir=ctx.workdir) as log:
        completed = subprocess.run(command, stdout=subprocess.PIPE, stderr=log, env=ctx.env,
                                   cwd=harness.ROOT, timeout=CHILD_TIMEOUT)
        if completed.returncode != 0:
            log.seek(0)
            raise RuntimeError("child {} exited {}: {}".format(
                mode, completed.returncode, log.read().decode(errors="replace")[-2000:]))
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def user_call(ctx, cache_dir):
    """One fresh user call; returns its output, or None if it failed."""
    ctx.tally.attempted += 1
    try:
        out = run_child(ctx, "run", cache_dir=cache_dir)
    except (RuntimeError, subprocess.SubprocessError) as error:
        ctx.tally.failures.append("user call: {}".format(error))
        return None
    if "error" in out:
        ctx.tally.failures.append("user call failed: " + out["error"].strip().splitlines()[-1])
        return None
    failures = list(out["failures"])
    if not ctx.book.check(ctx.key, out["digest"]):
        failures.append("result differs from an earlier run of the same seed")
    ctx.tally.failures.extend(failures)
    return None if failures else out


class Repeater:
    """``child.py repeat``: the user call answered again from the run
    cache and from a result index, in a burst per :meth:`burst`.  It
    waits for each burst to end, so nothing else runs meanwhile."""

    def __init__(self, ctx, cache_dir, fingerprints):
        self.log = tempfile.TemporaryFile(dir=ctx.workdir)
        self.process = subprocess.Popen(
            [sys.executable, CHILD, "repeat", "--workload", ctx.workload, "--seed",
             str(ctx.seed), "--size", ctx.size_name, "--cache-dir", cache_dir,
             "--fingerprints", ",".join(fingerprints)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, env=ctx.env,
            cwd=harness.ROOT,
        )

    def burst(self) -> None:
        self.process.stdin.write(b"\n")
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [], CHILD_TIMEOUT)
        if not ready:
            raise RuntimeError("child repeat: no burst within {} s".format(CHILD_TIMEOUT))
        if not self.process.stdout.readline():
            raise RuntimeError("child repeat exited {}: {}".format(self.process.wait(),
                                                                    self._log()))

    def stop(self) -> dict:
        """Close its stdin and return its output."""
        try:
            stdout, _ = self.process.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.process.returncode != 0:
            raise RuntimeError("child repeat exited {}: {}".format(self.process.returncode,
                                                                   self._log()))
        return json.loads(stdout.decode().strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout, self.log):
            if not stream.closed:
                stream.close()

    def _log(self) -> str:
        self.log.seek(0)
        return self.log.read().decode(errors="replace")[-2000:]


def setup_probe(ctx):
    """A fresh interpreter's set-up time, or a counted failure."""
    ctx.tally.attempted += 1
    spawned = time.perf_counter()
    try:
        out = run_child(ctx, "setup")
    except (RuntimeError, subprocess.SubprocessError) as error:
        ctx.tally.failures.append("set-up probe: {}".format(error))
        return None
    return out["first_instruction_at"] - spawned


# ---------------------------------------------------------------------------
# composite and long_run
# ---------------------------------------------------------------------------


def user_path(ctx) -> dict:
    """The run's fresh user calls, each followed by its share of the
    set-up probes.  From the first complete call on, a
    :class:`Repeater` answers that call again in a burst after every
    call and probe, so that the samples of every metric spread over the
    whole run."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=ctx.workdir)
    calls = plan.calls_per_run(ctx.workload, ctx.seconds, ctx.size)
    probes = ctx.size.setup_probes
    results, setups = [], []
    repeater = None

    def burst():
        if repeater is not None:
            repeater.burst()

    try:
        for number in range(calls):
            out = user_call(ctx, cache_dir)
            if out is not None:
                results.append(out)
                if repeater is None:
                    repeater = Repeater(ctx, cache_dir, out["fingerprints"])
            burst()
            for _ in range(probes * number // calls, probes * (number + 1) // calls):
                setup = setup_probe(ctx)
                if setup is not None:
                    setups.append(setup)
                burst()
        if repeater is None:
            raise BenchError("no complete user call")
        repeated = repeater.stop()
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        raise BenchError("repeated calls: {!r}".format(error))
    finally:
        if repeater is not None:
            repeater.kill()
    ctx.tally.add(repeated["attempted"], repeated["failures"])
    fresh = [c["wall"] for c in results]
    dedup = [s * 1000.0 for s in repeated["dedup"]]
    cached = [s * 1000.0 for s in repeated["cached"]]
    first = results[0]
    metrics = {
        "instr_per_s": harness.median([c["instructions"] / c["wall"] for c in results]),
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.median([c["rss_mb"] for c in results]),
        "cpi_error_pct": harness.cpi_error_pct(first["cycles"], first["instructions"]),
        "fresh_p50_s": harness.median(fresh),
        "dedup_p90_ms": harness.percentile(dedup, 90),
        "cached_p90_ms": harness.percentile(cached, 90),
        "jobs_per_s": 1.0 / harness.median(fresh),
    }
    detail = {
        "calls": len(results),
        "call_walls_s": fresh,
        "instructions": first["instructions"],
        "cpi": first["cycles"] / first["instructions"],
        "fresh_s": harness.distribution(fresh),
        "setup_s": harness.distribution(setups),
        "dedup_ms": harness.distribution(dedup),
        "cached_ms": harness.distribution(cached),
    }
    return {"metrics": metrics, "detail": detail}


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------


def service_path(ctx, spans, traced=False) -> dict:
    """Server set-up probes, then the run's mix cycles (one, traced)."""
    setups = []
    for _ in range(0 if traced else ctx.size.setup_probes // 2):
        ctx.tally.attempted += 1
        try:
            setups.append(mix.setup_probe(ctx.workdir, ctx.env))
        except (OSError, RuntimeError, subprocess.SubprocessError) as error:
            ctx.tally.failures.append("server set-up probe: {!r}".format(error))
    runs = []
    for _ in range(1 if traced else plan.calls_per_run("service_mix", ctx.seconds, ctx.size)):
        try:
            out = mix.cycle(ctx.seed, ctx.size, spans, ctx.workdir, ctx.env, ctx.book)
        except (OSError, RuntimeError, subprocess.SubprocessError) as error:
            ctx.tally.add(1, ["service cycle: {!r}".format(error)])
        else:
            runs.append(out)
            ctx.tally.add(out["attempted"], out["failures"])
    if not runs:
        raise BenchError("every service cycle failed")
    pooled = {kind: [s for r in runs for s in r[kind]]
              for kind in ("fresh", "dedup_pass1", "dedup", "cached")}
    dedup = [s * 1000.0 for s in pooled["dedup"]]
    cached = [s * 1000.0 for s in pooled["cached"]]
    fresh_runs = runs[0]["fresh_runs"]
    if not fresh_runs:
        raise BenchError("no service request executed")
    instructions = sum(summary["instructions"] for summary, _ in fresh_runs)
    cycles_total = sum(cycles for _, cycles in fresh_runs)
    executed = [summary for r in runs for summary, _ in r["fresh_runs"]]
    metrics = {
        "instr_per_s": sum(s["instructions"] for s in executed)
        / sum(s["wall_seconds"] for s in executed),
        "setup_s": harness.median(setups + [s for r in runs for s in r["setup"]]),
        "peak_rss_mb": harness.median([r["rss_mb"] for r in runs]),
        "cpi_error_pct": harness.cpi_error_pct(cycles_total, instructions),
        "fresh_p50_s": harness.median(pooled["fresh"]),
        "dedup_p90_ms": harness.percentile(dedup, 90),
        "cached_p90_ms": harness.percentile(cached, 90),
        "jobs_per_s": sum(r["completed"] for r in runs) / sum(w for r in runs for w in r["pass_wall"]),
    }
    detail = {
        "cycles": len(runs),
        "first_sight_specs": len(fresh_runs),
        "fresh_s": harness.distribution(pooled["fresh"]),
        "dedup_ms": harness.distribution(dedup),
        "dedup_pass1_ms": harness.distribution([s * 1000.0 for s in pooled["dedup_pass1"]]),
        "cached_ms": harness.distribution(cached),
        "setup_s": harness.distribution(setups + [s for r in runs for s in r["setup"]]),
        "polls_per_job": harness.median([p for r in runs for p in r["polls"]]),
    }
    return {"metrics": metrics, "detail": detail, "runs": runs}


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------------


def scheduler_counts(snapshots) -> dict:
    totals = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("metrics", {}).get("counters", {}).items():
            if name.startswith("scheduler.specs."):
                key = name[len("scheduler.specs."):]
                totals[key] = totals.get(key, 0) + value
    return totals


def layer_metrics(trace, service_spans, stats, polls, runcache, untraced_ips) -> dict:
    """Per-layer numbers from the traced child, the service-side spans
    and counters, and the untraced instruction rate."""
    sim = harness.self_time_by_name(trace["spans"])
    service = harness.self_time_by_name(service_spans)
    compile_stats = trace["compile"]
    counts = scheduler_counts(stats)
    deduped_index = counts.get("resolved_index", 0) + counts.get("deduped_batch", 0)
    deduped_inflight = counts.get("attached_inflight", 0)
    resolved_cache = counts.get("resolved_cache", 0)
    executed = counts.get("executed", 0)
    avoided = deduped_index + deduped_inflight + resolved_cache
    measure_s = sum(sim["sim.measure"])
    interpreted = compile_stats["jit_hits"] + compile_stats["jit_misses"]
    cycles_total = compile_stats["fast_cycles"] + compile_stats["slow_cycles"]
    traced_ips = trace["instructions"] / trace["wall"]
    metrics = {
        "setup.import_s": sum(sim["setup.import"]),
        "setup.layout_s": sum(sim["setup.layout"]),
        "setup.codegen_s": sum(sim["setup.codegen"]),
        "setup.prepare_s": sum(sim["setup.prepare"]),
        "sim.warmup_s": sum(sim["sim.warmup"]),
        "sim.measure_s": measure_s,
        "sim.us_per_instr": measure_s / trace["instructions"] * 1e6,
        "sim.us_per_cycle": measure_s / trace["cycles"] * 1e6,
        "compile.fast_instruction_fraction": compile_stats["jit_hits"] / interpreted if interpreted else 0.0,
        "compile.fast_cycle_fraction": compile_stats["fast_cycles"] / cycles_total if cycles_total else 0.0,
        "compile.superblock_deopt_ratio": (
            compile_stats["superblock_deopts"] / compile_stats["superblock_runs"]
            if compile_stats["superblock_runs"] else 0.0),
        "compile.records_compiled": compile_stats["records_compiled"],
        "compile.fallbacks": compile_stats["fallbacks"],
    }
    metrics.update(trace["model"])
    metrics.update({
        "memory.ns_per_ref": trace["memory"]["ns_per_ref"],
        "readout.dump_s": sum(sim["readout.dump"]),
        "readout.reduce_s": sum(sim["readout.reduce"]),
        "readout.composite_s": sum(sim["readout.composite"]),
        "codec.result_json_s": sum(sim["codec.result_json"]),
        "codec.result_bytes": trace["result_bytes"],
        "codec.payload_decode_s": harness.median(service.get("codec.payload_decode", [])),
        "scheduler.executed": executed,
        "scheduler.deduped_index": deduped_index,
        "scheduler.deduped_inflight": deduped_inflight,
        "scheduler.resolved_cache": resolved_cache,
        "scheduler.dedupe_ratio": avoided / (avoided + executed) if avoided + executed else 0.0,
        "runcache.puts": runcache["puts"],
        "runcache.hits": runcache["hits"],
        "runcache.misses": runcache["misses"],
        "runcache.bytes": runcache["bytes"],
        "runcache.get_ms": harness.median(runcache["get_ms"]),
        "service.post_ms": harness.median(service.get("service.post", [])) * 1000.0,
        "service.get_result_ms": harness.median(service.get("service.get_result", [])) * 1000.0,
        "service.polls_per_job": sum(polls) / len(polls) if polls else 0.0,
    })
    for layer, share in trace["host_share"].items():
        metrics["host_share." + layer] = share
    metrics["trace.overhead_pct"] = (untraced_ips - traced_ips) / untraced_ips * 100.0
    return metrics


def traced(ctx) -> dict:
    """Per-layer metrics: one untraced user call (the reference rate),
    one ``trace`` child, and the service side with spans: the service
    probe for composite/long_run, one mix cycle for service_mix."""
    from repro.core.cache_resolution import resolve_cached_run
    from repro.core.runcache import RunCache

    specs = plan.specs_for(ctx.workload, ctx.seed, ctx.size)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=ctx.workdir)
    probe_cache = RunCache(cache_dir)
    for spec in specs:
        resolve_cached_run(probe_cache, spec)  # all miss: the cache is empty
    reference = user_call(ctx, cache_dir)
    trace = run_child(ctx, "trace")
    ctx.tally.attempted += 1
    ctx.tally.failures.extend(trace["failures"])
    if reference is None:
        raise BenchError("the untraced reference call failed")
    if trace["digest"] != reference["digest"] or trace["model"] != reference["model"]:
        ctx.tally.failures.append("traced result differs from the untraced one")
    if ctx.workload == "service_mix":
        mix_spans = harness.Spans()
        service = service_path(ctx, mix_spans, traced=True)["runs"][0]
        service_spans = mix_spans.records
    else:
        service = service_probe(ctx, cache_dir, specs, reference["fingerprints"])
        service["stats"].append(reference["stats"])
        service["runcache"] = harness.runcache_probe(probe_cache, specs, harness.Spans(False))
        service_spans = service["spans"]
    untraced_ips = reference["instructions"] / reference["wall"]
    metrics = layer_metrics(trace, service_spans, service["stats"], service["polls"],
                            service["runcache"], untraced_ips)
    spans = harness.Spans()
    spans.extend(trace["spans"], "trace:")
    spans.extend(service_spans, "service:")
    path = write_spans(spans.records, ctx.workload, ctx.seed)
    detail = {"spans_file": os.path.relpath(path, harness.ROOT), "spans": len(spans.records),
              "host_samples": trace["host_samples"],
              "memory_references": trace["memory"]["references"],
              "memory_skipped": trace["memory"]["skipped"],
              "self_time_s": {name: sum(values) for name, values in
                              sorted(harness.self_time_by_name(spans.records).items())}}
    return {"metrics": metrics, "detail": detail}


def service_probe(ctx, cache_dir, specs, fingerprints) -> dict:
    """The service layer's per-layer numbers where the user path has no
    service: an in-process service on the run cache the user call
    filled answers each spec twice, from the cache and then from its
    index.  Only ``--trace 1`` runs this; no end-to-end metric uses it."""
    from repro.core.runcache import RunCache
    from repro.service import api
    from repro.service.client import ServiceClient
    from repro.service.server import ExperimentService

    spans = harness.Spans()
    out = {"polls": [], "stats": []}
    service = ExperimentService(cache=RunCache(cache_dir)).start_in_thread()
    try:
        client = ServiceClient("127.0.0.1:{}".format(service.port))
        for expected in ("cached", "dedup"):
            for index, spec in enumerate(specs):
                ctx.tally.attempted += 1
                try:
                    _latency, kind, _summary, payload, run, polls = harness.request(
                        client, api.spec_to_payload(spec), spans, "{}-{}".format(expected, index))
                except Exception as error:  # noqa: BLE001 — counted, not fatal
                    ctx.tally.failures.append("service probe {}: {!r}".format(spec.name, error))
                    continue
                problems = ["identity " + name for name in harness.identity_failures(run.result)]
                if kind != expected:
                    problems.append("expected a {} answer, got {}".format(expected, kind))
                if harness.payload_fingerprint(payload) != fingerprints[index]:
                    problems.append("differs from its first execution")
                if problems:
                    ctx.tally.failures.append("service probe {}: {}".format(
                        spec.name, "; ".join(problems)))
                out["polls"].append(polls)
        out["stats"].append(client.stats())
    finally:
        service.shutdown()
    out["spans"] = spans.records
    return out


def write_spans(records, workload, seed) -> str:
    directory = os.path.join(harness.STATE, "spans")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "{}-seed{}.json".format(workload, seed))
    with open(path, "w") as handle:
        json.dump(harness.self_times(records), handle)
    return path


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace, size_name="full", fault_plan=None) -> dict:
    """Run one workload; returns the result object printed last,
    with the details under ``detail``."""
    bench = load_benchmark()
    os.makedirs(harness.STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=harness.STATE)
    env = environment()
    ctx = Context(workload, seed, size_name, seconds, workdir,
                  harness.child_env({"REPRO_FAULTS": fault_plan} if fault_plan else None),
                  harness.DigestBook(env["src_sha256"]))
    try:
        if trace:
            outcome = traced(ctx)
        elif workload == "service_mix":
            outcome = service_path(ctx, harness.Spans(enabled=False))
            outcome.pop("runs")
        else:
            outcome = user_path(ctx)
    except BenchError as error:
        raise BenchError("{}; first failures: {}".format(error, ctx.tally.failures[:3]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = outcome["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    tally = ctx.tally
    failed = len(tally.failures)
    detail = dict(outcome["detail"], workload=workload, seed=seed, size=size_name,
                  environment=env,
                  fail_ratio=failed / max(1, tally.attempted), failures=tally.failures[:20])
    return {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


# ---------------------------------------------------------------------------
# the self-test
# ---------------------------------------------------------------------------


def self_test() -> int:
    """A reduced pass of every workload: each must emit every metric of
    BENCHMARK.json with its unit (every end-to-end one positive) and no
    failure, and an injected worker fault must show up as a failed
    operation."""
    from repro.testing.faults import FaultPlan, FaultRule

    bench = load_benchmark()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, SELF_TEST_SEED, 1, trace, size_name="reduced")
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            units = {entry["name"]: entry["unit"] for entry in wanted}
            emitted = {name: body["unit"] for name, body in result["metrics"].items()}
            if emitted != units:
                problems.append("{} trace={}: metrics/units differ from BENCHMARK.json".format(
                    workload, trace))
            for name, body in result["metrics"].items():
                if not isinstance(body["value"], (int, float)) or not math.isfinite(body["value"]):
                    problems.append("{} trace={}: {} is not a finite number".format(
                        workload, trace, name))
                elif not trace and body["value"] <= 0:
                    problems.append("{} trace=0: {} is not positive".format(workload, name))
            if not result["correct"] or result["failed"]:
                problems.append("{} trace={}: failures {}".format(
                    workload, trace, result["detail"]["failures"]))
            print("self-test {} trace={}: {} metrics, {} attempted, {} failed".format(
                workload, trace, len(result["metrics"]), result["attempted"], result["failed"]))
        state_dir = tempfile.mkdtemp(prefix="faults-", dir=harness.STATE)
        try:
            plan_json = FaultPlan(rules=[FaultRule(site="worker", action="raise",
                                                   match=plan.LONG_RUN_WORKLOAD, times=1)],
                                  state_dir=state_dir).to_json()
            result = measure(workload, SELF_TEST_SEED, 1, 0, size_name="reduced",
                             fault_plan=plan_json)
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        if result["failed"] < 1 or result["correct"]:
            problems.append("{}: an injected worker fault was not counted".format(workload))
        print("self-test {} with an injected fault: {} attempted, {} failed, fail_ratio {:.3f}".format(
            workload, result["attempted"], result["failed"], result["detail"]["fail_ratio"]))
    for problem in problems:
        print("FAIL " + problem)
    print("self-test {}".format("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="user-path benchmark of the simulator")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="reduced pass of every workload, with an injected fault")
    args = parser.parse_args(argv)
    # The servers stop on SIGINT.  A background job of a non-interactive
    # shell starts with SIGINT ignored and would hand that on to them;
    # a handler here is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        check_environment()
        load_benchmark()
        harness.use_source_tree()
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as error:
        print("userbench: {}".format(error), file=sys.stderr)
        return 2
    detail = result.pop("detail")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

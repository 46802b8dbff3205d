"""One fresh interpreter's share of a benchmark run.

    python3 userbench/child.py setup|run|trace --workload W --seed N \
        --size full|reduced [--cache-dir DIR]

``setup``  imports, builds the control-store layout and prepares the
           first workload, then prints the clock at which the first
           simulated instruction would run.
``run``    one user call through the scheduler (the call
           ``run_composite_experiment`` makes); its runs are banked in
           the run cache.
``repeat`` the same call again, in a burst per line read from stdin:
           resolved from the run cache by a fresh scheduler, and from
           a long-lived scheduler's result index.
``trace``  the same simulation, with the benchmark calling each layer's
           public functions itself inside spans, a frame sampler
           attributing host time to modules, and the memory layer timed
           on a replayed reference stream.

Each mode prints one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import traceback

import harness
import plan

harness.use_source_tree()


def mode_setup(args) -> dict:
    from repro.core.experiment import prepare_workload
    from repro.ucode.routines import build_layout

    spec = plan.specs_for(args.workload, args.seed, plan.SIZES[args.size])[0]
    build_layout()
    prepare_workload(spec.workload, seed_offset=spec.seed_offset)
    return {"first_instruction_at": time.perf_counter()}


# ---------------------------------------------------------------------------
# run: the user call; repeat: the same call again, answered without executing
# ---------------------------------------------------------------------------


def call(specs, scheduler):
    """The call ``run_composite_experiment`` makes; returns its wall
    time, the runs and the (composite) result."""
    from repro.core.experiment import composite

    started = time.perf_counter()
    runs = scheduler.run_specs(specs)
    results = [run.result for run in runs]
    result = composite(results) if len(results) > 1 else results[0]
    return time.perf_counter() - started, runs, result


def mode_run(args) -> dict:
    """One user call on a fresh scheduler, its runs then banked in
    ``--cache-dir`` with ``store_run`` for ``repeat`` to resolve."""
    from repro.core.cache_resolution import store_run
    from repro.core.runcache import RunCache
    from repro.core.scheduler import Scheduler
    from repro.obs.metrics import MetricsRegistry
    from repro.service import api

    specs = plan.specs_for(args.workload, args.seed, plan.SIZES[args.size])
    scheduler = Scheduler(jobs=1, metrics=MetricsRegistry())
    try:
        wall, runs, result = call(specs, scheduler)
    except Exception:  # noqa: BLE001 — a failed user call is a counted failure
        return {"error": traceback.format_exc()}
    rss_mb = harness.peak_rss_mb()
    failures = []
    for checked in [result] + [run.result for run in runs]:
        failures.extend("identity {} on {}".format(name, checked.name)
                        for name in harness.identity_failures(checked))
    cache = RunCache(args.cache_dir)
    for spec, run in zip(specs, runs):
        store_run(cache, spec, run)
    return {
        "wall": wall,
        "instructions": result.instructions,
        "cycles": result.stats.cycles,
        "digest": harness.result_digest(result),
        "model": harness.model_counts(result),
        "fingerprints": [harness.payload_fingerprint(api.run_to_payload(run)) for run in runs],
        "failures": failures,
        "stats": scheduler.stats_snapshot(),
        "rss_mb": rss_mb,
    }


def mode_repeat(args) -> dict:
    """The user call again, in a burst of ``repeat_rounds`` rounds for
    each line read from stdin, until stdin closes; after each burst it
    prints a line, so that the benchmark runs nothing else meanwhile.
    A round makes the call on a fresh ``Scheduler(cache=...,
    run_resolution=True)`` over ``--cache-dir`` (every spec resolves
    from the run cache, as after a restart) and on one long-lived
    scheduler (every spec resolves from its result index).  Every
    answer must have the expected provenance and be byte-identical to
    the first execution (``--fingerprints``)."""
    from repro.core.runcache import RunCache
    from repro.core.scheduler import Scheduler
    from repro.service import api

    size = plan.SIZES[args.size]
    specs = plan.specs_for(args.workload, args.seed, size)
    fingerprints = args.fingerprints.split(",")

    def cache_scheduler():
        return Scheduler(jobs=1, cache=RunCache(args.cache_dir), run_resolution=True)

    latencies = {"dedup": [], "cached": []}
    failures = []
    attempted = 0

    def repeat(expected, scheduler, record=True):
        nonlocal attempted
        attempted += 1
        try:
            latency, runs, result = call(specs, scheduler)
        except Exception as error:  # noqa: BLE001 — counted, not fatal
            failures.append("{} call: {!r}".format(expected, error))
            return
        problems = ["identity " + name for name in harness.identity_failures(result)]
        for run, fingerprint in zip(runs, fingerprints):
            kind = harness.provenance(run.manifest.attached_to, run.manifest.resumed_from)
            if kind != expected:
                problems.append("{}: expected a {} answer, got {}".format(
                    run.spec.name, expected, kind))
            if harness.payload_fingerprint(api.run_to_payload(run)) != fingerprint:
                problems.append("{}: differs from its first execution".format(run.spec.name))
        if problems:
            failures.append("{} call: {}".format(expected, "; ".join(problems)))
        elif record:
            latencies[expected].append(latency)

    indexed = cache_scheduler()
    repeat("cached", indexed, record=False)  # warm-up; fills its index
    for _line in sys.stdin:
        for _round in range(size.repeat_rounds):
            repeat("dedup", indexed)
            repeat("cached", cache_scheduler())
        print("burst", flush=True)
    return {
        "attempted": attempted,
        "failures": failures,
        "dedup": latencies["dedup"],
        "cached": latencies["cached"],
    }


# ---------------------------------------------------------------------------
# trace: the same simulation, one public layer call at a time
# ---------------------------------------------------------------------------


def mode_trace(args) -> dict:
    size = plan.SIZES[args.size]
    spans = harness.Spans()
    with spans.span("setup.import", "trace"):
        import repro.core.experiment  # noqa: F401 — the modules the run needs
        import repro.core.compile  # noqa: F401
    specs = plan.specs_for(args.workload, args.seed, size)
    with harness.LayerSampler(threading.get_ident()) as sampler:
        out = trace_simulation(specs, spans, sampler)
    out["host_share"] = sampler.shares()
    out["host_samples"] = sum(sampler.counts.values())
    out["memory"] = memory_replay(specs[0], size.capture_instructions, spans)
    out["spans"] = spans.records
    return out


def trace_simulation(specs, spans, sampler) -> dict:
    from repro.core import compile as replay
    from repro.core.experiment import (
        ExperimentResult,
        MachineStats,
        composite,
        prepare_workload,
    )
    from repro.core.histogram_io import result_to_json
    from repro.core.reduction import reduce_histogram
    from repro.ucode.routines import build_layout
    from repro.workloads import generate_program, profile_by_name

    compile_totals = dict.fromkeys(replay._COUNTER_FIELDS, 0)
    fallbacks = 0
    results = []
    started = time.perf_counter()
    with spans.span("run", "trace"):
        with spans.span("setup.layout", "trace"):
            build_layout()
        for spec in specs:
            profile = profile_by_name(spec.workload)
            with spans.span("setup.codegen", "trace"):
                # prepare_workload's default process count; it then
                # finds these programs in the generator's cache.
                for variant in range(max(3, min(6, profile.users // 7))):
                    generate_program(profile, variant=variant)
            with spans.span("setup.prepare", "trace"):
                kernel, monitor = prepare_workload(spec.workload, seed_offset=spec.seed_offset)
            machine = kernel.machine
            sampler.active = True
            with spans.span("sim.warmup", "trace"):
                kernel.run(max_instructions=spec.warmup_instructions)
            baseline = MachineStats.from_machine(machine)
            with spans.span("sim.measure", "trace"):
                kernel.start_measurement()
                kernel.run(max_instructions=spec.instructions)
                kernel.stop_measurement()
            sampler.active = False
            with spans.span("readout.dump", "trace"):
                counts, stalled = monitor.board.dump()
            with spans.span("readout.reduce", "trace"):
                reduction = reduce_histogram(counts, stalled, machine.layout, events=machine.events)
            results.append(ExperimentResult(
                name=profile.name, reduction=reduction, events=machine.events,
                stats=MachineStats.from_machine(machine).minus(baseline),
            ))
            stats = machine.ebox.compile_stats
            for name in compile_totals:
                compile_totals[name] += getattr(stats, name)
            fallbacks += sum(stats.fallback_causes.values())
        with spans.span("readout.composite", "trace"):
            merged = composite(results)
        result = merged if len(results) > 1 else results[0]
    wall = time.perf_counter() - started
    with spans.span("codec.result_json", "codec"):
        text = result_to_json(result)
    return {
        "wall": wall,
        "instructions": result.instructions,
        "cycles": result.stats.cycles,
        "digest": harness.result_digest(result),
        "model": harness.model_counts(result),
        "failures": ["identity " + name for name in harness.identity_failures(result)],
        "compile": dict(compile_totals, fallbacks=fallbacks),
        "result_bytes": len(text.encode("utf-8")),
    }


def memory_replay(spec, instructions, spans) -> dict:
    """Capture a reference stream through ``MemorySubsystem.trace_hook``
    and replay it through the memory layer's public entry points."""
    from repro.core.experiment import prepare_workload
    from repro.memory.subsystem import PageFault
    from repro.memory.tb import TBMiss

    kernel, _monitor = prepare_workload(spec.workload, seed_offset=spec.seed_offset)
    kernel.run(max_instructions=spec.warmup_instructions)
    memory = kernel.machine.memory
    stream = []

    def hook(kind, va):
        stream.append((kind, va, memory.page_tables["p0"], memory.page_tables["p1"]))

    memory.trace_hook = hook
    with spans.span("memory.capture", "memory"):
        kernel.run(max_instructions=instructions)
    memory.trace_hook = None

    now = kernel.machine.ebox.cycle_count
    skipped = 0
    current_p0 = current_p1 = None
    started = time.perf_counter()
    with spans.span("memory.replay", "memory"):
        for kind, va, p0, p1 in stream:
            if p0 is not current_p0 or p1 is not current_p1:
                memory.set_page_table("p0", p0)
                memory.set_page_table("p1", p1)
                current_p0, current_p1 = p0, p1
            now += 1
            try:
                if kind == "iread":
                    if memory.istream_fetch(va, now).tb_miss:
                        memory.service_tb_miss(va, False, now)
                        memory.istream_fetch(va, now)
                    continue
                write = kind == "write"
                for _attempt in range(2):
                    try:
                        if write:
                            memory.write(va & ~3, 4, 0, now)
                        else:
                            memory.read(va & ~3, 4, now)
                        break
                    except TBMiss:
                        memory.service_tb_miss(va, write, now)
            except PageFault:
                skipped += 1
    elapsed = time.perf_counter() - started
    return {"references": len(stream), "skipped": skipped,
            "ns_per_ref": elapsed / max(1, len(stream)) * 1e9}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "run", "repeat", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(plan.SIZES), default="full")
    parser.add_argument("--cache-dir", help="run cache the run mode fills and repeat reads")
    parser.add_argument("--fingerprints", help="repeat: the first execution's payload "
                        "fingerprints, comma-separated")
    args = parser.parse_args(argv)
    mode = {"setup": mode_setup, "run": mode_run, "repeat": mode_repeat,
            "trace": mode_trace}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Engine throughput benchmark: the composite, sequential vs parallel.

Times a fixed five-workload composite (the paper's headline experiment)
three ways and writes ``BENCH_engine.json`` at the repository root:

* **cold** — one sequential composite in a fresh interpreter, paying
  one-time costs (workload program assembly, layout build) exactly as a
  user's first run does;
* **warm** — the same composite re-run in-process, the steady-state
  single-thread throughput an ablation sweep sees;
* **parallel** — the composite fanned out over a process pool
  (``--jobs``, default ``os.cpu_count()``), verified bit-identical to
  the sequential run before its timing is reported.

The fixed configuration (4000 measured instructions per workload, 1000
warmup) matches the measurement this repository's seed commit clocked
at 6766 instructions/second single-thread, recorded below as the
baseline the ≥1.25× target is judged against.

The full run also gates the telemetry layer with two arms measured in
the *same* bench run (the old gate compared against a stale constant
recorded on a different build and went negative): a bare composite
(no metrics registry, no tracer) versus the engine's usual
instrumented composite.  The instrumented, tracing-off arm must stay
within 2% of the bare arm.  A tracer-attached arm is also timed and
reported — informationally, since an attached tracer forces the
interpreted path by design and its cost is therefore expected to be
large, not budgeted.

The full run also times the two execution modes, replay programs
(``repro.core.compile``, the default) against the interpreter
(``REPRO_NO_COMPILE=1``): the warm composite re-runs interpreted in the
same process, is verified bit-identical, and the report's ``compiled``
block records both arms' throughput, the speedup, and the
``sim.compile.*`` counters.  Its ``user_path`` block is the user-path
A/B the perf smoke gates: ``run_workload`` calls timed end to end,
each from cold record caches, replay and interpreted arms interleaved
with the order alternating per round, every round bit-identical.

The full run also times intra-workload sharding: one workload split
into ``SHARD_COUNT`` resumable shards through the snapshot/run-cache
machinery, cold (populating a fresh cache) and warm (replaying every
finished shard from it), both verified bit-identical to the unsharded
run.  The warm figure is the cache's value proposition: re-running a
measured experiment costs deserialization, not simulation.

Run:  PYTHONPATH=src python benchmarks/perf/bench_engine.py [--jobs N]
      [--smoke]   (tiny run: sequential/parallel, traced/untraced,
                   sharded/unsharded and replay/interpreted
                   bit-identity, trace-export validity, and the
                   user-path replay throughput and speedup floors —
                   the CI gate)
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The benchmark's fixed measurement configuration.
INSTRUCTIONS_PER_WORKLOAD = 4_000
WARMUP_INSTRUCTIONS = 1_000

#: Single-thread instructions/second of the seed commit on this fixed
#: configuration (cold, fresh interpreter), measured on the reference
#: container.  The optimization target is >= 1.25x this figure.
SEED_BASELINE_INSTRUCTIONS_PER_SECOND = 6_766

#: Tracing-off budget: the instrumented composite (metrics registry
#: attached, no tracer — what the engine always runs) must stay within
#: this percentage of a bare composite timed in the same bench run.
TRACING_OFF_BUDGET_PERCENT = 2.0

#: User-path A/B configuration: one ``run_workload`` call per arm and
#: round, timed end to end (build, boot, warmup and measurement), from
#: cold record caches as a fresh ``repro run`` starts.
USER_PATH_WORKLOAD = "educational"
USER_PATH_INSTRUCTIONS = 60_000
USER_PATH_WARMUP = 12_000
#: Interleaved rounds per arm: the perf smoke, and the full bench (the
#: distribution the smoke floors below were derived from).
SMOKE_ROUNDS = 5
FULL_ROUNDS = 10

#: Perf-smoke floor (CI): median replay-arm throughput over the smoke's
#: rounds, in measured instructions per wall second of the whole call.
#: The full bench's FULL_ROUNDS on a 2-vCPU container put the replay
#: arm's lower quartile at 13 083 instr/s; less the ±15% run-to-run
#: wall-clock noise of that container, rounded down.
SMOKE_MIN_WARM_IPS = 11_000
#: Perf-smoke floor (CI): the median per-round replay/interpreted
#: throughput ratio.  Same ten rounds: lower quartile 1.161 less the
#: full spread of the per-round ratios (1.123-1.236, 0.113).  Replay
#: that silently stops replaying sits at 1.00 and fails.
SMOKE_MIN_REPLAY_SPEEDUP = 1.05

#: Shards for the single-workload sharding benchmark.
SHARD_COUNT = 4
SHARD_WORKLOAD = "educational"


def _measure_composite(instructions, warmup, jobs):
    from repro.core.executor import RunSpec
    from repro.core.scheduler import run_specs
    from repro.core.experiment import composite
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    specs = [
        RunSpec(
            workload=name, instructions=instructions, warmup_instructions=warmup
        )
        for name in COMPOSITE_WORKLOAD_NAMES
    ]
    started = time.perf_counter()
    runs = run_specs(specs, jobs=jobs)
    result = composite([run.result for run in runs])
    wall = time.perf_counter() - started
    return result, wall, runs


def _equal(result_a, result_b) -> bool:
    from repro.core.histogram_io import result_to_json

    return result_to_json(result_a) == result_to_json(result_b)


def _measure_sharded(instructions, warmup, shards, cache):
    from repro.core.executor import RunSpec
    from repro.core.scheduler import execute_spec_sharded

    spec = RunSpec(
        workload=SHARD_WORKLOAD,
        instructions=instructions,
        warmup_instructions=warmup,
    )
    started = time.perf_counter()
    run = execute_spec_sharded(spec, shards=shards, cache=cache)
    wall = time.perf_counter() - started
    return run, wall


def _measure_plain_composite(instructions, warmup):
    """The bare arm: five sequential ``run_workload`` calls with no
    metrics registry, no manifests, no tracer — the simulator without
    the telemetry layer's per-run plumbing.  Same phases as the
    instrumented arm (build + boot + warmup + measure per workload)."""
    from repro.core.experiment import composite, run_workload
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    started = time.perf_counter()
    results = [
        run_workload(name, instructions=instructions, warmup_instructions=warmup)
        for name in COMPOSITE_WORKLOAD_NAMES
    ]
    wall = time.perf_counter() - started
    return composite(results), wall


def _measure_phase_ips(runs, instructions):
    """Instructions/second over the measured phases alone, summed from
    the workers' self-profiling — the steady-state simulation speed,
    with per-workload build/boot/warmup wall time excluded."""
    total = 0.0
    for run in runs:
        if run.metrics:
            phase = run.metrics.get("histograms", {}).get("phase.measure.seconds")
            if phase:
                total += phase["sum"]
    return instructions / total if total else None


class _no_compile:
    """Context manager: force ``REPRO_NO_COMPILE=1`` for machines built
    inside the block (the env var is read at machine construction)."""

    def __enter__(self):
        self._saved = os.environ.get("REPRO_NO_COMPILE")
        os.environ["REPRO_NO_COMPILE"] = "1"

    def __exit__(self, *exc):
        if self._saved is None:
            del os.environ["REPRO_NO_COMPILE"]
        else:
            os.environ["REPRO_NO_COMPILE"] = self._saved


def _user_path_ab(rounds):
    """Interleaved replay-vs-interpreted ``run_workload`` rounds.

    Each round runs both arms, replay first on even rounds and
    interpreted first on odd ones, so drift in machine load hits both
    arms alike.  Record caches are cleared before every call so the
    replay arm pays record resolution and compilation as a fresh
    process does.  Returns ``(rows, identical)``: per-round
    ``(replay_ips, interpreted_ips)`` and whether every round's two
    results serialized to the same bytes.
    """
    from repro.core.compile import clear_record_caches
    from repro.core.experiment import run_workload

    def timed():
        clear_record_caches()
        started = time.perf_counter()
        result = run_workload(
            USER_PATH_WORKLOAD,
            instructions=USER_PATH_INSTRUCTIONS,
            warmup_instructions=USER_PATH_WARMUP,
        )
        return result, result.instructions / (time.perf_counter() - started)

    rows, identical = [], True
    for round_index in range(rounds):
        out = {}
        for arm in (("replay", "interpreted"), ("interpreted", "replay"))[
            round_index % 2
        ]:
            if arm == "replay":
                out[arm] = timed()
            else:
                with _no_compile():
                    out[arm] = timed()
        identical = identical and _equal(out["replay"][0], out["interpreted"][0])
        rows.append((out["replay"][1], out["interpreted"][1]))
    return rows, identical


def _timed_workload(instructions, warmup, tracer=None):
    """One warm educational run; returns (result, measured-phase ips).

    Only the measured phase is timed — build/boot/warmup wall time is
    excluded — so two arms compared through this helper differ only in
    how they execute instructions, not in construction noise."""
    from repro.core.experiment import prepare_workload, result_from_machine
    from repro.core.experiment import MachineStats

    kernel, monitor = prepare_workload("educational", tracer=tracer)
    kernel.run(max_instructions=warmup)
    baseline = MachineStats.from_machine(kernel.machine)
    kernel.start_measurement()
    started = time.perf_counter()
    kernel.run(max_instructions=instructions)
    wall = time.perf_counter() - started
    kernel.stop_measurement()
    result = result_from_machine(
        kernel.machine, monitor, name="educational", stats_baseline=baseline
    )
    return result, result.instructions / wall


def smoke(jobs: int) -> int:
    """CI gate: tiny composite, sequential vs parallel must be
    identical; a traced run must be bit-identical to an untraced one
    (the tracer is passive) with a valid Chrome export; a K=3 sharded
    run must be bit-identical to the unsharded reference; and on the
    user path the replay arm must be bit-identical to the interpreted
    arm and clear the throughput and speedup floors."""
    from repro.core.executor import RunSpec, execute_spec
    from repro.core.scheduler import execute_spec_sharded
    from repro.core.experiment import run_workload
    from repro.obs.trace import Tracer, validate_chrome

    sequential, seq_wall, _ = _measure_composite(600, 150, jobs=1)
    parallel, par_wall, _ = _measure_composite(600, 150, jobs=jobs)
    if not _equal(sequential, parallel):
        print("FAIL: parallel composite differs from sequential", file=sys.stderr)
        return 1

    tracer = Tracer()
    traced, traced_board = run_workload(
        "educational",
        instructions=600,
        warmup_instructions=150,
        tracer=tracer,
        return_board=True,
    )
    plain, plain_board = run_workload(
        "educational", instructions=600, warmup_instructions=150, return_board=True
    )
    if traced_board.dump_sparse() != plain_board.dump_sparse() or not _equal(
        traced, plain
    ):
        print("FAIL: tracing perturbed the measurement", file=sys.stderr)
        return 1
    problems = validate_chrome(tracer.to_chrome())
    if problems:
        print(
            "FAIL: trace export invalid: {}".format("; ".join(problems[:5])),
            file=sys.stderr,
        )
        return 1

    shard_spec = RunSpec(
        workload=SHARD_WORKLOAD, instructions=600, warmup_instructions=150
    )
    unsharded = execute_spec(shard_spec)
    sharded = execute_spec_sharded(shard_spec, shards=3)
    if sharded.histogram != unsharded.histogram or not _equal(
        sharded.result, unsharded.result
    ):
        print("FAIL: sharded run differs from unsharded", file=sys.stderr)
        return 1

    # Replay on the user path: interleaved rounds of default-env
    # run_workload against REPRO_NO_COMPILE=1, every round bit-identical.
    rows, identical = _user_path_ab(SMOKE_ROUNDS)
    if not identical:
        print("FAIL: replay run differs from interpreted", file=sys.stderr)
        return 1
    replay_ips = statistics.median(row[0] for row in rows)
    interpreted_ips = statistics.median(row[1] for row in rows)
    speedup = statistics.median(row[0] / row[1] for row in rows)
    if replay_ips < SMOKE_MIN_WARM_IPS:
        print(
            "FAIL: replay throughput {:.0f} ips below the {} floor".format(
                replay_ips, SMOKE_MIN_WARM_IPS
            ),
            file=sys.stderr,
        )
        return 1
    if speedup < SMOKE_MIN_REPLAY_SPEEDUP:
        print(
            "FAIL: replay is {:.2f}x the interpreted path, below the {:.2f}x "
            "floor".format(speedup, SMOKE_MIN_REPLAY_SPEEDUP),
            file=sys.stderr,
        )
        return 1

    print(
        "smoke OK: jobs={} bit-identical to sequential "
        "(seq {:.2f}s, par {:.2f}s, {} instructions); "
        "tracing passive ({} events, valid Chrome export); "
        "3-shard merge bit-identical; "
        "user-path replay {:.0f} ips vs interpreted {:.0f} ips "
        "(median of {} rounds, {:.2f}x), bit-identical".format(
            jobs,
            seq_wall,
            par_wall,
            sequential.instructions,
            len(tracer),
            replay_ips,
            interpreted_ips,
            SMOKE_ROUNDS,
            speedup,
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument(
        "--smoke", action="store_true", help="fast equality-only check (CI)"
    )
    parser.add_argument(
        "--output", default=os.path.join(REPO_ROOT, "BENCH_engine.json")
    )
    args = parser.parse_args()

    if args.smoke:
        return smoke(max(2, args.jobs))

    from repro.obs.metrics import registry_from_result

    # The cold figure represents a user's first run under default
    # settings.
    cold_result, cold_wall, _ = _measure_composite(
        INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
    )
    parallel_result, parallel_wall, _ = _measure_composite(
        INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=args.jobs
    )
    if not _equal(cold_result, parallel_result):
        print("FAIL: parallel composite differs from sequential", file=sys.stderr)
        return 1
    # Warm (replay) and interpreted arms run as adjacent interleaved
    # trials so both see the same machine load — container throughput
    # drifts by tens of percent over minutes, so arms measured far
    # apart produce garbage ratios.  Best wall of three per arm:
    # scheduler noise only ever slows a run down.
    warm_result = warm_wall = warm_runs = None
    interpreted_result = interpreted_wall = interpreted_runs = None
    for _ in range(3):
        trial = _measure_composite(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
        )
        if warm_wall is None or trial[1] < warm_wall:
            warm_result, warm_wall, warm_runs = trial
        with _no_compile():
            trial = _measure_composite(
                INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
            )
        if interpreted_wall is None or trial[1] < interpreted_wall:
            interpreted_result, interpreted_wall, interpreted_runs = trial
    if not _equal(interpreted_result, warm_result):
        print("FAIL: interpreted composite differs from compiled", file=sys.stderr)
        return 1

    # Intra-workload sharding: one workload, SHARD_COUNT shards, cold
    # (fresh cache populated) then warm (every shard replayed from it).
    from repro.core.executor import RunSpec, execute_spec
    from repro.core.runcache import RunCache

    cache_root = tempfile.mkdtemp(prefix="bench-repro-cache-")
    try:
        cache = RunCache(cache_root)
        unsharded_run = execute_spec(
            RunSpec(
                workload=SHARD_WORKLOAD,
                instructions=INSTRUCTIONS_PER_WORKLOAD,
                warmup_instructions=WARMUP_INSTRUCTIONS,
            )
        )
        sharded_cold, sharded_cold_wall = _measure_sharded(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, SHARD_COUNT, cache
        )
        sharded_warm, sharded_warm_wall = _measure_sharded(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, SHARD_COUNT, cache
        )
        sharded_identical = (
            sharded_cold.histogram == unsharded_run.histogram
            and sharded_warm.histogram == unsharded_run.histogram
            and _equal(sharded_cold.result, unsharded_run.result)
            and _equal(sharded_warm.result, unsharded_run.result)
        )
        cache_bytes = cache.total_bytes()
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    if not sharded_identical:
        print("FAIL: sharded run differs from unsharded", file=sys.stderr)
        return 1
    if sharded_warm.shards_from_cache != SHARD_COUNT:
        print(
            "FAIL: warm sharded re-run replayed {}/{} shards from cache".format(
                sharded_warm.shards_from_cache, SHARD_COUNT
            ),
            file=sys.stderr,
        )
        return 1

    instructions = cold_result.instructions
    warm_ips = instructions / warm_wall

    # Telemetry arms, measured in this same run and interleaved so both
    # see the same machine load: a bare composite (no metrics, no
    # manifests, no tracer) against the engine's instrumented composite.
    # Best of two trials per arm.
    plain_result, plain_wall = None, None
    instrumented_wall = None
    for _ in range(2):
        candidate = _measure_plain_composite(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS
        )
        if plain_wall is None or candidate[1] < plain_wall:
            plain_result, plain_wall = candidate
        candidate_wall = _measure_composite(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
        )[1]
        if instrumented_wall is None or candidate_wall < instrumented_wall:
            instrumented_wall = candidate_wall
    if not _equal(plain_result, cold_result):
        print("FAIL: bare composite differs from instrumented", file=sys.stderr)
        return 1
    plain_ips = instructions / plain_wall
    instrumented_ips = instructions / instrumented_wall
    tracing_off_overhead_percent = (plain_ips - instrumented_ips) / plain_ips * 100.0

    # Tracer-attached arm (informational): the tracer forces the
    # interpreted path by design, so this measures tracing's full cost,
    # not a budgeted overhead.  Measured-phase time only, interleaved,
    # best of two per arm.
    from repro.obs.trace import Tracer

    traced_ips, untraced_ips = None, None
    for _ in range(2):
        candidate = _timed_workload(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, tracer=Tracer()
        )[1]
        if traced_ips is None or candidate > traced_ips:
            traced_ips = candidate
        candidate = _timed_workload(INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS)[1]
        if untraced_ips is None or candidate > untraced_ips:
            untraced_ips = candidate
    tracing_on_overhead_percent = (untraced_ips - traced_ips) / untraced_ips * 100.0

    interpreted_ips = instructions / interpreted_wall
    warm_phase_ips = _measure_phase_ips(warm_runs, instructions)
    interpreted_phase_ips = _measure_phase_ips(interpreted_runs, instructions)

    # User-path A/B: the headline replay figure and the distribution
    # the perf smoke's floors are derived from.
    user_rows, user_identical = _user_path_ab(FULL_ROUNDS)
    if not user_identical:
        print("FAIL: user-path replay run differs from interpreted", file=sys.stderr)
        return 1
    user_replay = [row[0] for row in user_rows]
    user_interpreted = [row[1] for row in user_rows]
    user_ratios = [row[0] / row[1] for row in user_rows]

    # The typed metrics surface: the composite's simulated counters plus
    # the per-run wall-clock self-profiling folded in from the workers.
    registry = registry_from_result(warm_result)
    for run in warm_runs:
        if run.metrics:
            registry.merge_snapshot(run.metrics)
    from repro.core.compile import stats_from_snapshot

    compile_stats = stats_from_snapshot(registry.snapshot())
    report = {
        "config": {
            "instructions_per_workload": INSTRUCTIONS_PER_WORKLOAD,
            "warmup_instructions": WARMUP_INSTRUCTIONS,
            "workloads": 5,
            "jobs": args.jobs,
            "cpu_count": os.cpu_count(),
        },
        "measured_instructions": instructions,
        "sequential": {
            "cold_wall_seconds": round(cold_wall, 3),
            "cold_instructions_per_second": round(instructions / cold_wall, 1),
            "warm_wall_seconds": round(warm_wall, 3),
            "warm_instructions_per_second": round(instructions / warm_wall, 1),
        },
        "parallel": {
            "wall_seconds": round(parallel_wall, 3),
            "instructions_per_second": round(instructions / parallel_wall, 1),
            "speedup_vs_cold_sequential": round(cold_wall / parallel_wall, 2),
            "bit_identical_to_sequential": True,
        },
        "seed_baseline": {
            "instructions_per_second": SEED_BASELINE_INSTRUCTIONS_PER_SECOND,
            "cold_speedup": round(
                (instructions / cold_wall) / SEED_BASELINE_INSTRUCTIONS_PER_SECOND, 2
            ),
            "warm_speedup": round(
                (instructions / warm_wall) / SEED_BASELINE_INSTRUCTIONS_PER_SECOND, 2
            ),
        },
        "sharded": {
            "workload": SHARD_WORKLOAD,
            "shards": SHARD_COUNT,
            "instructions": sharded_cold.result.instructions,
            "cold_wall_seconds": round(sharded_cold_wall, 3),
            "warm_wall_seconds": round(sharded_warm_wall, 4),
            "warm_shards_from_cache": sharded_warm.shards_from_cache,
            "warm_speedup_vs_cold": round(sharded_cold_wall / sharded_warm_wall, 1),
            "cache_bytes": cache_bytes,
            "bit_identical_to_unsharded": True,
        },
        "telemetry": {
            "bare_instructions_per_second": round(plain_ips, 1),
            "instrumented_instructions_per_second": round(instrumented_ips, 1),
            "tracing_off_overhead_percent": round(tracing_off_overhead_percent, 2),
            "budget_percent": TRACING_OFF_BUDGET_PERCENT,
            "within_budget": tracing_off_overhead_percent
            <= TRACING_OFF_BUDGET_PERCENT,
            "tracing_on_overhead_percent": round(tracing_on_overhead_percent, 2),
            "tracing_on_note": "an attached tracer forces the interpreted "
            "path by design; its cost is reported, not budgeted",
        },
        "compiled": {
            "warm_instructions_per_second": round(warm_ips, 1),
            "interpreted_instructions_per_second": round(interpreted_ips, 1),
            "speedup": round(warm_ips / interpreted_ips, 2),
            "measured_phase_instructions_per_second": round(
                warm_phase_ips, 1
            )
            if warm_phase_ips
            else None,
            "interpreted_measured_phase_instructions_per_second": round(
                interpreted_phase_ips, 1
            )
            if interpreted_phase_ips
            else None,
            "measured_phase_speedup": round(warm_phase_ips / interpreted_phase_ips, 2)
            if warm_phase_ips and interpreted_phase_ips
            else None,
            "bit_identical_to_interpreted": True,
            "user_path": {
                "workload": USER_PATH_WORKLOAD,
                "instructions": USER_PATH_INSTRUCTIONS,
                "warmup_instructions": USER_PATH_WARMUP,
                "rounds_per_arm": FULL_ROUNDS,
                "replay_instructions_per_second": [
                    round(ips, 1) for ips in user_replay
                ],
                "interpreted_instructions_per_second": [
                    round(ips, 1) for ips in user_interpreted
                ],
                "speedup": [round(ratio, 3) for ratio in user_ratios],
                "replay_quartiles": [
                    round(q, 1) for q in statistics.quantiles(user_replay, n=4)
                ],
                "interpreted_quartiles": [
                    round(q, 1)
                    for q in statistics.quantiles(user_interpreted, n=4)
                ],
                "speedup_quartiles": [
                    round(q, 3) for q in statistics.quantiles(user_ratios, n=4)
                ],
                "bit_identical_to_interpreted": True,
            },
            "stats": compile_stats,
        },
        "metrics": registry.snapshot(),
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print("\nwrote {}".format(args.output))
    if tracing_off_overhead_percent > TRACING_OFF_BUDGET_PERCENT:
        print(
            "FAIL: tracing-off overhead {:.2f}% exceeds the {:.1f}% budget "
            "(instrumented {:.0f} ips vs bare {:.0f} ips in this run)".format(
                tracing_off_overhead_percent,
                TRACING_OFF_BUDGET_PERCENT,
                warm_ips,
                plain_ips,
            ),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

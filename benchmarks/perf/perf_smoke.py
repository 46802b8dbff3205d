#!/usr/bin/env python3
"""Perf smoke: replay programs must beat the interpreter on the user path.

Times ``run_workload`` end to end (build, boot, warmup and measurement)
in the default environment, where replay programs (``repro.core.compile``)
execute, against ``REPRO_NO_COMPILE=1``, where the interpreter does.
Each call starts from cold record caches as a fresh ``repro run`` does.
The two arms run as interleaved rounds, the order alternating per
round.  The smoke fails unless every round's two results are
bit-identical and the median per-round replay/interpreted ratio clears
``SMOKE_MIN_REPLAY_SPEEDUP``.  There is no absolute throughput floor:
a runner's speed moves both arms, and the ratio is what separates a
replay that works from one that does not.

Everything else about performance is measured by ``userbench/`` (see
``BENCHMARK.json``); bit-identity across jobs, shards and tracing is
asserted by the tier-1 suite.

Run:  PYTHONPATH=src python benchmarks/perf/perf_smoke.py
"""

import os
import statistics
import sys
import time

#: User-path A/B configuration: one ``run_workload`` call per arm and
#: round, timed end to end (build, boot, warmup and measurement), from
#: cold record caches as a fresh ``repro run`` starts.
USER_PATH_WORKLOAD = "educational"
USER_PATH_INSTRUCTIONS = 60_000
USER_PATH_WARMUP = 12_000
#: Interleaved rounds per arm.
SMOKE_ROUNDS = 5

#: Floor: the median per-round replay/interpreted throughput ratio.
#: Same ten rounds: lower quartile 1.161 less the full spread of the
#: per-round ratios (1.123-1.236, 0.113).  Replay that silently stops
#: replaying sits at 1.00 and fails.
SMOKE_MIN_REPLAY_SPEEDUP = 1.05


def _equal(result_a, result_b) -> bool:
    from repro.core.histogram_io import result_to_json

    return result_to_json(result_a) == result_to_json(result_b)


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


def main() -> int:
    rows, identical = _user_path_ab(SMOKE_ROUNDS)
    if not identical:
        print("FAIL: replay run differs from interpreted", file=sys.stderr)
        return 1
    replay_ips = statistics.median(row[0] for row in rows)
    interpreted_ips = statistics.median(row[1] for row in rows)
    speedup = statistics.median(row[0] / row[1] for row in rows)
    if speedup < SMOKE_MIN_REPLAY_SPEEDUP:
        print(
            "FAIL: replay is {:.2f}x the interpreted path, below the {:.2f}x "
            "floor".format(speedup, SMOKE_MIN_REPLAY_SPEEDUP),
            file=sys.stderr,
        )
        return 1

    print(
        "smoke OK: user-path replay {:.0f} ips vs interpreted {:.0f} ips "
        "(median of {} rounds, {:.2f}x), bit-identical".format(
            replay_ips, interpreted_ips, SMOKE_ROUNDS, speedup
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

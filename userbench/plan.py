"""What each workload runs: sizes and the specs generated from a seed.

The seed is the only input.  It becomes ``seed_offset`` for
``composite`` and ``long_run`` and picks the spec pool and the
submission order for ``service_mix``; the program only ever sees the
resulting specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Size:
    #: composite: run_composite_experiment's default budget and warmup
    composite: tuple
    #: long_run: one long timesharing_heavy run
    long_run: tuple
    #: service_mix pool specs (the CI service-smoke size)
    pool: tuple
    #: pool rounds; each round is one spec per profile, all first-sight
    pool_rounds: int
    #: repeat submissions after each first-sight one
    repeats_per_spec: int
    #: set-up probes per run, spread between the user calls;
    #: service_mix spawns half as many servers
    setup_probes: int
    #: composite/long_run: rounds of the repeated call (one resolved
    #: from the run cache, one from the result index) in each burst;
    #: a burst follows every fresh call and set-up probe
    repeat_rounds: int
    #: instructions captured for the memory-layer replay
    capture_instructions: int
    #: fewest fresh user calls (or service_mix cycles) per run
    min_calls: int


FULL = Size(
    composite=(30_000, 3_000),
    long_run=(100_000, 3_000),
    pool=(4_000, 1_000),
    pool_rounds=4,
    repeats_per_spec=3,
    setup_probes=4,
    repeat_rounds=60,
    capture_instructions=3_000,
    min_calls=1,
)

#: The self-test's size: every code path, a few seconds per workload.
REDUCED = Size(
    composite=(1_500, 300),
    long_run=(3_000, 500),
    pool=(600, 200),
    pool_rounds=2,
    repeats_per_spec=2,
    setup_probes=2,
    repeat_rounds=2,
    capture_instructions=300,
    min_calls=2,
)

SIZES = {"full": FULL, "reduced": REDUCED}

#: Nominal seconds of one full-size user call (service_mix: one cycle,
#: including set-up probes' share) on a 2-CPU host.  A run makes
#: ``--seconds // NOMINAL_SECONDS`` of them, a count fixed by the
#: command line, so two commits always measure the same work.
NOMINAL_SECONDS = {"composite": 15, "long_run": 9, "service_mix": 11}


def calls_per_run(workload: str, seconds: int, size: Size) -> int:
    return max(size.min_calls, seconds // NOMINAL_SECONDS[workload])

LONG_RUN_WORKLOAD = "timesharing_heavy"


def composite_specs(seed: int, size: Size) -> list:
    """The five specs ``run_composite_experiment`` builds by default."""
    from repro.core.executor import RunSpec
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    instructions, warmup = size.composite
    return [
        RunSpec(workload=name, instructions=instructions,
                warmup_instructions=warmup, seed_offset=seed)
        for name in COMPOSITE_WORKLOAD_NAMES
    ]


def long_run_specs(seed: int, size: Size) -> list:
    from repro.core.executor import RunSpec

    instructions, warmup = size.long_run
    return [RunSpec(workload=LONG_RUN_WORKLOAD, instructions=instructions,
                    warmup_instructions=warmup, seed_offset=seed)]


def service_pool(seed: int, size: Size) -> list:
    """``pool_rounds`` rounds of one spec per profile, each round at
    its own seed offset drawn from ``seed``."""
    from repro.core.executor import RunSpec
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    rng = random.Random(seed)
    instructions, warmup = size.pool
    offsets = rng.sample(range(1, 1_000_000), size.pool_rounds)
    return [
        RunSpec(workload=name, instructions=instructions,
                warmup_instructions=warmup, seed_offset=offset)
        for offset in offsets
        for name in COMPOSITE_WORKLOAD_NAMES
    ]


def service_sequence(seed: int, size: Size) -> list:
    """Indices into :func:`service_pool`: every pool spec once in a
    seeded order, each followed by ``repeats_per_spec`` repeats of the
    most recent first sights, newest first.  The first repeat reaches the
    server while its first copy still runs; the later ones find it
    finished."""
    rng = random.Random(seed * 7919 + 1)
    order = list(range(size.pool_rounds * 5))
    rng.shuffle(order)
    sequence = []
    for position, index in enumerate(order):
        sequence.append(index)
        recent = order[max(0, position - size.repeats_per_spec + 1):position + 1][::-1]
        sequence.extend(recent[n % len(recent)] for n in range(size.repeats_per_spec))
    return sequence


def specs_for(workload: str, seed: int, size: Size) -> list:
    """The specs one fresh user call of ``workload`` measures; for
    ``service_mix`` that is the pool's first round, one per profile."""
    if workload == "composite":
        return composite_specs(seed, size)
    if workload == "long_run":
        return long_run_specs(seed, size)
    return service_pool(seed, size)[:5]

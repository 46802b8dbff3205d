#!/usr/bin/env python3
"""Design-space sweep: how the 11/780's memory-hierarchy choices shape
the CPI decomposition.

The paper reads its Table 8 as a map of "where performance may be
improved, and where it may not": read stalls trace to the cache, write
stalls to the one-longword write buffer behind the write-through cache,
memory-management time to the TB.  This example re-runs one workload
across those design points and prints the resulting CPI decompositions
side by side — the kind of what-if the authors built the monitor to
inform.

The design points are declarative :class:`MachineConfig` specs executed
by the parallel experiment engine: with ``jobs > 1`` the seven runs fan
out over a process pool and come back in the same order with
bit-identical histograms.

Run:  python examples/cache_tb_sensitivity.py [instructions] [jobs]
"""

import sys

from repro.core.executor import MachineConfig, RunSpec
from repro.core.scheduler import run_specs

#: (label, config) — the real machine first, then each what-if.
DESIGN_POINTS = [
    ("11/780 baseline (8KB cache, 64+64 TB, 1-lw WB)", None),
    ("cache 2 KB", MachineConfig(cache_size_bytes=2 * 1024)),
    ("cache 32 KB", MachineConfig(cache_size_bytes=32 * 1024)),
    ("TB 16+16 entries", MachineConfig(tb_half_entries=16)),
    ("TB 256+256 entries", MachineConfig(tb_half_entries=256)),
    ("write buffer: instant drain", MachineConfig(wb_drain_cycles=0)),
    ("write buffer: 12-cycle drain", MachineConfig(wb_drain_cycles=12)),
]


def summarize(result):
    columns = result.reduction.column_totals()
    instructions = result.instructions
    return {
        "label": result.name,
        "cpi": result.cpi,
        "rstall": columns["rstall"] / instructions,
        "wstall": columns["wstall"] / instructions,
        "ibstall": columns["ibstall"] / instructions,
        "memmgmt": result.reduction.row_totals()["memmgmt"] / instructions,
        "cache_miss": result.stats.cache_read_misses / instructions,
        "tb_miss": result.stats.tb_misses / instructions,
    }


def main():
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 6_000
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    specs = [
        RunSpec(
            workload="timesharing_light",
            instructions=budget,
            warmup_instructions=1_500,
            config=config,
            label=label,
        )
        for label, config in DESIGN_POINTS
    ]
    runs = run_specs(specs, jobs=jobs)
    rows = [summarize(run.result) for run in runs]

    header = "{:<44} {:>6} {:>7} {:>7} {:>8} {:>8} {:>7} {:>8}".format(
        "configuration", "CPI", "rstall", "wstall", "ibstall", "memmgmt", "miss/i", "tbmiss/i"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            "{label:<44} {cpi:6.2f} {rstall:7.3f} {wstall:7.3f} {ibstall:8.3f} "
            "{memmgmt:8.3f} {cache_miss:7.3f} {tb_miss:8.4f}".format(**row)
        )

    print(
        "\nReading the table the way Section 5 does: shrinking the cache "
        "moves time into the stall columns; shrinking the TB moves it into "
        "memory management; deepening the write drain swells write stall "
        "exactly where CALL/RET pushes cluster."
    )


if __name__ == "__main__":
    main()

"""Hot loops, stop points and tracers on the replay path.

The differential file holds whole workloads to bit-identity.  This one
looks closer at the loop shapes where a replayed instruction stream
could drift from the interpreted walk:

* a hot loop compiles each of its instructions once and then replays
  them on every later iteration;
* a tracer turns replay off on a bare machine, and nothing the loop
  computes changes;
* every instruction boundary around the loop's final fall-through, and
  any instruction cap on a random program, stops both modes in the same
  state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile as replay
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780
from repro.obs.trace import Tracer
from tests.core.test_compile_differential import (
    ORIGIN,
    SCRATCH,
    _assemble,
    _final_state,
    countdown_program,
    interpreter,
    machine_state,
    op_strategy,
    run_program,
)

ITERATIONS = 40
#: instructions retired before the HALT: the set-up pair and the loop
LOOP_INSTRUCTIONS = 2 + 5 * ITERATIONS


@pytest.fixture(autouse=True)
def _own_the_gate(monkeypatch):
    # These tests pick the mode themselves; a globally exported
    # REPRO_NO_COMPILE would collapse both arms onto the interpreter.
    # Record caches are layout-wide, so start each test cold.
    monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
    replay.clear_record_caches()
    yield
    replay.clear_record_caches()


class TestFormation:
    def test_hot_loop_forms_and_dispatches_blocks(self):
        program, budget = countdown_program(ITERATIONS)
        machine, executed = run_program(program, budget)
        stats = machine.ebox.compile_stats
        # Only the five-instruction body is seen twice, so only it
        # compiles; the set-up pair and the HALT run once, interpreted.
        assert stats.records_compiled == 5
        # The two-sightings gate opens on the second iteration; every
        # loop instruction from there on replays.
        assert stats.jit_hits == 5 * (ITERATIONS - 1)
        # The HALT executes but does not count as retired.
        assert stats.jit_hits + stats.jit_misses == executed + 1
        assert stats.fast_cycles > stats.slow_cycles

    def test_tracer_suppresses_blocks_and_changes_nothing(self):
        program, budget = countdown_program(ITERATIONS)
        compiled, c_executed = run_program(program, budget)
        tracer = Tracer()
        traced = VAX780(monitor=UPCMonitor.build(), tracer=tracer)
        traced.load_program(program, ORIGIN)
        t_executed = traced.run(max_instructions=budget)
        assert compiled.ebox.compile_stats.jit_hits > 0
        assert not traced.ebox._compile_active
        assert traced.ebox.compile_stats.jit_hits == 0
        assert len(tracer) > 0
        assert t_executed == c_executed
        assert machine_state(traced) == machine_state(compiled)


class TestGuardsAndDeopt:
    def test_branch_fallthrough_deopts_with_exact_state(self):
        # The last SOBGTR falls through after its record has replayed
        # the taken path many times.  Stopping at each instruction
        # boundary around it must leave both modes in the same state.
        program, _ = countdown_program(ITERATIONS)
        for stop in range(LOOP_INSTRUCTIONS - 6, LOOP_INSTRUCTIONS + 2):
            compiled, c_executed = run_program(program, stop)
            with interpreter():
                interpreted, i_executed = run_program(program, stop)
            assert compiled.ebox.compile_stats.jit_hits > 0, stop
            assert c_executed == i_executed == min(stop, LOOP_INSTRUCTIONS)
            assert machine_state(compiled) == machine_state(interpreted), stop


class TestRandomizedBlockSplitting:
    @staticmethod
    def _run(program, cap):
        machine = VAX780(monitor=UPCMonitor.build())
        machine.load_program(program, ORIGIN)
        machine.map_range(SCRATCH - 0x440, 0x800)
        executed = machine.run(max_instructions=cap)
        return machine, executed

    @settings(max_examples=10, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=2, max_size=8),
        cap=st.integers(1, 2 + 3 * 8),
    )
    def test_any_window_cap_matches_the_interpreter(self, ops, cap):
        # The instruction cap ends the run window at an arbitrary
        # boundary, mid-way through a replayed repeat or not; no stop
        # point may be observable.
        program, budget = _assemble(ops, repeats=3)
        cap = min(cap, budget)
        compiled, c_executed = self._run(program, cap)
        with interpreter():
            interpreted, i_executed = self._run(program, cap)
        assert c_executed == i_executed
        assert _final_state(compiled) == _final_state(interpreted)

"""The I-Fetch stage against a per-cycle reference model.

:class:`~repro.cpu.ibuffer.InstructionBuffer` runs event-driven: it is
called only at cycles where it fetches or a fill lands.  The reference
below is the per-cycle prefetcher it replaced — one loop iteration per
EBOX cycle, with an explicit port-cooldown countdown and fill-wait
countdown — kept here as the oracle.  Random sequences of charge bursts,
consumes, redirects, TB-miss service, TB invalidations and D-stream
traffic drive both over real memory subsystems; every fetch cycle,
every byte and every counter must match.

The second half checks the EBOX side: IB stalls are charged in one burst
up to the buffer's next event, and a stalled instruction must leave the
same IB_WAIT counts, clock and watchdog halt as the per-cycle stall loop
did, replayed or interpreted.
"""

import os
import random
from contextlib import contextmanager
from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import Assembler
from repro.core import compile as replay
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780
from repro.cpu.ebox import HaltExecution
from repro.cpu.ibuffer import IB_CAPACITY, NEVER, IBStats, InstructionBuffer
from repro.memory import MemorySubsystem, PageFault, PageTable, PhysicalMemory, TBMiss
from repro.memory.pagetable import PAGE_SIZE
from repro.ucode.microword import MicroSlot

PAGES = 6  # mapped P0 pages; the page after them is unmapped


class ReferenceIB:
    """The per-cycle prefetcher: every EBOX cycle is one loop iteration."""

    def __init__(self, memory):
        self.memory = memory
        self.stats = IBStats()
        self._bytes = bytearray()
        self._fetch_va = 0
        self._decode_va = 0
        self._pending_value = None
        self.tb_miss_pending = False
        self._fill_wait = 0
        self._port_cooldown = 0
        self.now = 0

    def redirect(self, va):
        self._bytes.clear()
        self._fetch_va = va
        self._decode_va = va
        self._fill_wait = 0
        self._pending_value = None
        self.tb_miss_pending = False
        self.stats.redirects += 1

    def clear_tb_miss(self):
        self.tb_miss_pending = False

    def run(self, cycles):
        for _ in range(cycles):
            self.now += 1
            if self._fill_wait > 0:
                self._fill_wait -= 1
                if self._fill_wait == 0:
                    self._accept(self._pending_value)
                    self._pending_value = None
                continue
            if self.tb_miss_pending or len(self._bytes) >= IB_CAPACITY:
                continue  # paused: the owed cooldown does not elapse
            if self._port_cooldown > 0:
                self._port_cooldown -= 1
                continue
            self._port_cooldown = 1
            value, hit, tb_miss, fill = self.memory.istream_fetch(
                self._fetch_va, now=self.now
            )
            if tb_miss:
                self.tb_miss_pending = True
                self.stats.tb_miss_flags += 1
                continue
            self.stats.references += 1
            if hit:
                self._accept(value)
            else:
                self._pending_value = value
                self._fill_wait = fill

    def _accept(self, longword):
        offset = self._fetch_va & 3
        take = min(4 - offset, IB_CAPACITY - len(self._bytes))
        self._bytes.extend(longword.to_bytes(4, "little")[offset : offset + take])
        self._fetch_va += take
        self.stats.bytes_delivered += take

    def try_consume(self, count):
        if len(self._bytes) < count:
            return None
        taken = bytes(self._bytes[:count])
        del self._bytes[:count]
        self._decode_va += count
        return taken


class RecordingMemory(MemorySubsystem):
    """Logs every I-stream reference with the cycle it was made at."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.fetches = []
        self.references = []
        self.trace_hook = lambda kind, va: self.references.append((kind, va))

    def istream_read(self, va, now=None):
        self.fetches.append((va, now))
        return super().istream_read(va, now)


def make_memory(code_seed):
    physical = PhysicalMemory(256 * 1024)
    physical.load(0, random.Random(code_seed).randbytes(PAGES * PAGE_SIZE))
    memory = RecordingMemory(physical=physical)
    table = PageTable(physical, base_pa=0x10000, length=PAGES + 1)
    for vpn in range(PAGES):
        table.map(vpn, pfn=vpn)
    table.unmap(PAGES)
    memory.set_page_table("p0", table)
    for vpn in range(PAGES):
        memory.tb.fill(vpn * PAGE_SIZE, vpn, True)
    return memory


def ib_state(ib):
    return (
        bytes(ib._bytes),
        ib._decode_va,
        ib._fetch_va,
        ib._pending_value,
        ib.tb_miss_pending,
        astuple(ib.stats),
    )


def memory_state(memory):
    return (
        memory.fetches,
        memory.references,
        astuple(memory.tb.stats),
        list(memory.tb._tags),
        astuple(memory.cache.stats),
        list(memory.cache._tags),
        astuple(memory.sbi.stats),
        memory.sbi._busy_until,
    )


VA = st.integers(0, (PAGES + 1) * PAGE_SIZE - 1)
#: Operation kinds, charges and consumes weighted up as in the EBOX.  The
#: integer is a VA, or sizes a charge burst or a consume.
KINDS = ("charge",) * 6 + ("consume",) * 4 + (
    "redirect",
    "service",
    "invalidate",
    "flush",
    "dread",
)
OPERATIONS = st.lists(st.tuples(st.sampled_from(KINDS), VA), min_size=20, max_size=200)


def _dread(memory, va, now):
    """One EBOX data read, servicing TB misses like the microtrap does."""
    while True:
        try:
            memory.read(va, 4, now=now)
            return
        except TBMiss as miss:
            try:
                memory.service_tb_miss(miss.va, now=now)
            except PageFault:
                return


class TestAgainstPerCycleModel:
    @settings(max_examples=300, deadline=None)
    @given(code_seed=st.integers(0, 2**16), start=VA, operations=OPERATIONS)
    def test_event_driven_buffer_matches_the_per_cycle_loop(
        self, code_seed, start, operations
    ):
        ref_memory, new_memory = make_memory(code_seed), make_memory(code_seed)
        ref, ib = ReferenceIB(ref_memory), InstructionBuffer(new_memory)
        def service(now):
            if ref.tb_miss_pending and new_memory.istream_page_valid(ref._fetch_va):
                for memory in (ref_memory, new_memory):
                    memory.service_tb_miss(ref._fetch_va, now=now)
            ref.clear_tb_miss()
            ib.clear_tb_miss(now)

        clock = 0
        ref.redirect(start)
        ib.redirect(start, clock)
        # Drain at the end so every outstanding fill lands.
        for op, arg in operations + [("charge", 23)] * 10:
            if op == "charge":
                cycles = 1 + arg % 24
                ref.run(cycles)
                clock += cycles
                if clock >= ib.next_event:
                    ib.run(clock)
                assert ref.now == clock
            elif op == "consume":
                count = 1 + arg % IB_CAPACITY
                taken = ib.try_consume(count, clock)
                assert taken == ref.try_consume(count)
                if taken is None and ref.tb_miss_pending:
                    # Out of bytes: the EBOX notices the I-stream TB miss.
                    service(clock)
            elif op == "redirect":
                ref.redirect(arg)
                ib.redirect(arg, clock)
            elif op == "service":
                service(clock)
            elif op == "invalidate":
                ref_memory.tb.invalidate(arg)
                new_memory.tb.invalidate(arg)
            elif op == "flush":
                ref_memory.tb.flush_process()
                new_memory.tb.flush_process()
            else:
                _dread(ref_memory, arg, clock)
                _dread(new_memory, arg, clock)
            assert ib_state(ib) == ib_state(ref), (op, arg, clock)
            assert ib.next_event > clock
        assert new_memory.fetches == ref_memory.fetches
        assert memory_state(new_memory) == memory_state(ref_memory)


class TestEventCycles:
    def _buffer(self):
        memory = make_memory(0)
        ib = InstructionBuffer(memory)
        ib.redirect(0, 0)
        return memory, ib

    def test_hits_fetch_every_other_cycle_until_full(self):
        memory, ib = self._buffer()
        for va in range(0, 8, 4):
            memory.cache.read(va, stream="i")
        ib.run(10)
        assert memory.fetches == [(0, 1), (4, 3)]
        assert ib.next_event == NEVER and ib.valid_bytes == IB_CAPACITY

    def test_fill_lands_late_and_the_next_fetch_follows_two_cycles_on(self):
        memory, ib = self._buffer()
        ib.run(1)
        fill = memory.sbi.read_latency
        assert ib.next_event == 1 + fill and ib.valid_bytes == 0
        ib.run(1 + fill)
        assert ib.valid_bytes == 4 and ib.next_event == 3 + fill

    def test_unpause_owes_the_cooldown_cycle(self):
        memory, ib = self._buffer()
        for va in range(0, 8, 4):
            memory.cache.read(va, stream="i")
        ib.run(3)
        assert ib.next_event == NEVER
        # Paused for 50 cycles: the cooldown owed at the last fetch is
        # still owed when a consume frees room.
        assert ib.try_consume(2, 53) is not None
        assert ib.next_event == 55


ORIGIN = 0x200
LOOP_VA = ORIGIN + 7  # after MOVL I^#n, R1
TAIL_VA = LOOP_VA + 11  # last byte of the 12-byte ADDL3


@contextmanager
def compile_mode(interpreted):
    prior = os.environ.pop(replay.NO_COMPILE_ENV, None)
    if interpreted:
        os.environ[replay.NO_COMPILE_ENV] = "1"
    try:
        yield
    finally:
        os.environ.pop(replay.NO_COMPILE_ENV, None)
        if prior is not None:
            os.environ[replay.NO_COMPILE_ENV] = prior


def _evict(cache, pa):
    base, tag = cache._base_and_tag(pa)
    for way in range(base, base + cache.ways):
        if cache._tags[way] == tag:
            cache._tags[way] = -1


def run_with_tail_misses(interpreted, slow_from=None, iterations=12):
    """Loop over a 12-byte ADDL3 whose tail block is evicted before every
    execution, so its last bytes arrive by a cache fill mid-instruction.

    From loop iteration ``slow_from`` on, fills take longer than the
    stall watchdog allows.  Returns the clock, the IB_WAIT counts per
    wait routine, the halt message (or None) and the replay hit count.
    """
    asm = Assembler(origin=ORIGIN)
    asm.instr("MOVL", "I^#%d" % iterations, "R1")
    asm.label("loop")
    asm.instr("ADDL3", "I^#305419896", "I^#286331153", "R3")
    asm.instr("SOBGTR", "R1", "loop")
    asm.instr("HALT")
    with compile_mode(interpreted):
        monitor = UPCMonitor.build()
        machine = VAX780(monitor=monitor)
    machine.load_program(asm.assemble(), ORIGIN)
    monitor.start()
    memory = machine.memory
    halt = None
    passes = 0
    try:
        for _ in range(3 * iterations + 10):
            if machine.ebox.ib.decode_va == LOOP_VA:
                if slow_from is not None and passes >= slow_from:
                    memory.sbi.read_latency = 150_000
                pa = memory.tb.peek(TAIL_VA)
                if pa is not None:
                    _evict(memory.cache, pa)
                passes += 1
            if not machine.run(max_instructions=1):
                break
    except HaltExecution as exc:
        halt = str(exc)
    monitor.stop()
    layout = machine.ebox.layout
    waits = {}
    for routine in (layout.decode, layout.spec1_wait, layout.spec26_wait, layout.bdisp):
        address = routine.address(MicroSlot.IB_WAIT)
        if address is not None:
            waits[routine.name] = monitor.board.read_bucket(monitor._bucket_map[address])
    return machine.ebox.cycle_count, waits, halt, machine.ebox.compile_stats.jit_hits


PINNED_TAIL_MISS = (
    316,
    {
        "decode.dispatch": (31, 0),
        "spec1.decode_wait": (40, 0),
        "spec26.decode_wait": (72, 0),
        "bdisp": (0, 0),
    },
)
PINNED_WATCHDOG = (
    100_141,
    {
        "decode.dispatch": (17, 0),
        "spec1.decode_wait": (19, 0),
        "spec26.decode_wait": (100_025, 0),
        "bdisp": (0, 0),
    },
    "IB stall watchdog at va 0x0000020e",
)


class TestBatchedStalls:
    """Pinned values were produced by the per-cycle stall loop (one
    ``_tick_slot`` per stalled cycle) that the batched stall replaced."""

    def test_mid_instruction_fill_stall(self):
        compiled = run_with_tail_misses(interpreted=False)
        interpreted = run_with_tail_misses(interpreted=True)
        assert compiled[3] > 0 and interpreted[3] == 0
        assert compiled[:3] == interpreted[:3]
        cycles, waits, halt, _ = compiled
        assert halt is None
        assert (cycles, waits) == PINNED_TAIL_MISS

    def test_watchdog_trips_at_the_same_cycle(self):
        compiled = run_with_tail_misses(interpreted=False, slow_from=4)
        interpreted = run_with_tail_misses(interpreted=True, slow_from=4)
        assert compiled[3] > 0
        assert compiled[:3] == interpreted[:3]
        assert compiled[:3] == PINNED_WATCHDOG

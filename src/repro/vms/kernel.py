"""The miniature VMS kernel.

All kernel activity is *real VAX code* assembled into system space and
executed by the simulated CPU, so operating-system work shows up in the
micro-PC histogram exactly as it did on the measured machines:

* interrupt service routines for the clock, terminals and disk (each
  saves registers with PUSHR/POPR, touches kernel data, and REIs);
* a software-interrupt rescheduler built on SVPCTX / LDPCTX;
* CHMK system services (a terminal-read QIO that blocks the caller, a
  get-time service, and a probe-and-copy service);
* the Null process ("branch to self, awaiting an interrupt"), excluded
  from measurement exactly as the paper excluded VMS's.

Python code handles only what the real VMS kept in kernel *data*
structures: the run queue, process states, and device timing.  Those
decisions surface to the VAX code through implementation-defined
processor registers (MTPR hooks), so every architecturally visible
action — every push, queue insertion, context load — is executed and
therefore measured.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.asm import Assembler
from repro.cpu.events import EventCounters
from repro.cpu.machine import InterruptRequest, VAX780
from repro.isa.psl import AccessMode
from repro.memory.pagetable import PAGE_SHIFT, PAGE_SIZE, PageTable, vpn_of
from repro.vms.devices import DeviceBoard
from repro.vms.process import PCB_BYTES, Process, ProcessState, initialize_pcb

SYSTEM_BASE = 0x8000_0000

#: Implementation-defined processor registers the kernel code uses to
#: reach the Python-held kernel data structures.
PR_SCHED_PICK = 100  # MTPR #0, #100: select next process into PCBB
PR_WAKE = 101  # MTPR pid, #101: make a process runnable
PR_BLOCK = 102  # MTPR #0, #102: block the current process
PR_WHOAMI = 103  # MTPR #0, #103: write the current pid into the tt_pid cell
PR_SHOULD_SWITCH = 104  # MTPR #0, #104: set switch_flag if a pick would switch

PR_SIRR = 20

#: Interrupt priority levels (VMS conventions).
IPL_CLOCK = 24
IPL_DISK = 21
IPL_TERMINAL = 20
IPL_RESCHED = 3

#: System service codes.
SVC_QIO_READ = 1
SVC_GETTIM = 2
SVC_PROBE_COPY = 3


class VMSKernel:
    """Builds the kernel, owns the run queue, drives devices."""

    KERNEL_CODE_VA = SYSTEM_BASE + 0x0000
    KERNEL_DATA_VA = SYSTEM_BASE + 0x4000
    KERNEL_STACKS_VA = SYSTEM_BASE + 0x8000
    KERNEL_STACK_BYTES = 2048

    #: physical bump allocator for PCBs and per-process page tables
    OS_STRUCTS_PA = 0x80000

    def __init__(
        self,
        machine: VAX780,
        clock_period_cycles: int = 26_000,
        terminal_period_cycles: int = 9_000,
        disk_period_cycles: int = 55_000,
        quantum_ticks: int = 2,
        seed: int = 1984,
    ):
        self.machine = machine
        self.ebox = machine.ebox
        self.devices = DeviceBoard(seed=seed)
        self.quantum_ticks = quantum_ticks
        self._random = random.Random(seed)
        self.processes: List[Process] = []
        self._by_pcb: Dict[int, Process] = {}
        self.current: Optional[Process] = None
        self.null_process: Optional[Process] = None
        self._rr_cursor = 0
        self._structs_cursor = self.OS_STRUCTS_PA
        self._next_pid = 0
        self._measuring = False
        self.null_events = EventCounters()
        self._main_events = machine.events
        self._clock_ticks_since_switch = 0
        self._quantum_expired = False
        self.symbols: Dict[str, int] = {}
        #: optional override for where terminal characters come from
        #: (the RTE installs itself here); callable(kernel) -> (pid, char)
        self.terminal_source = None

        self._build_kernel_image()
        self._install_hooks()
        self.null_process = self._create_null_process()
        self._wire_devices(clock_period_cycles, terminal_period_cycles, disk_period_cycles)

    # ------------------------------------------------------------------
    # kernel image
    # ------------------------------------------------------------------

    def _build_kernel_image(self) -> None:
        machine = self.machine
        asm = Assembler(origin=self.KERNEL_CODE_VA)
        data = self.KERNEL_DATA_VA

        # Kernel data cells (virtual addresses).
        self.tick_count_va = data + 0x00
        self.tt_pid_va = data + 0x04
        self.tt_char_va = data + 0x08
        self.tt_ring_idx_va = data + 0x0C
        self.time_cell_va = data + 0x10
        self.disk_count_va = data + 0x14
        self.switch_flag_va = data + 0x18
        self.ioq_header_va = data + 0x20  # flink, blink
        self.diskq_header_va = data + 0x28
        self.tt_ring_va = data + 0x100  # 256-byte ring buffer
        self.io_packets_va = data + 0x200  # 16 bytes per pid, 64 pids

        # --- boot: pick a process and start it -------------------------
        asm.label("boot")
        asm.instr("MTPR", "#0", "#{}".format(PR_SCHED_PICK))
        asm.instr("LDPCTX")
        asm.instr("REI")

        # --- clock ISRs -------------------------------------------------
        asm.label("clock_plain")
        asm.instr("PUSHR", "#0x03")  # R0, R1
        asm.instr("MOVAL", "@#{:#x}".format(self.tick_count_va), "R0")
        asm.instr("INCL", "(R0)")
        asm.instr("POPR", "#0x03")
        asm.instr("REI")

        asm.label("clock_resched")
        asm.instr("PUSHR", "#0x03")
        asm.instr("MOVAL", "@#{:#x}".format(self.tick_count_va), "R0")
        asm.instr("INCL", "(R0)")
        asm.instr("MTPR", "#{}".format(IPL_RESCHED), "#{}".format(PR_SIRR))
        asm.instr("POPR", "#0x03")
        asm.instr("REI")

        # --- terminal ISR: store the char, complete the IO, wake --------
        asm.label("terminal_isr")
        asm.instr("PUSHR", "#0x7F")  # R0-R6
        asm.instr("MOVL", "@#{:#x}".format(self.tt_pid_va), "R1")
        asm.instr("MOVZBL", "@#{:#x}".format(self.tt_char_va), "R2")
        asm.instr("MOVAL", "@#{:#x}".format(self.tt_ring_va), "R3")
        asm.instr("MOVL", "@#{:#x}".format(self.tt_ring_idx_va), "R4")
        asm.instr("MOVB", "R2", "(R3)[R4]")
        asm.instr("INCL", "R4")
        asm.instr("BICL2", "#0xFFFFFF00", "R4")  # wrap at 256
        asm.instr("MOVL", "R4", "@#{:#x}".format(self.tt_ring_idx_va))
        # Remove the process's IO packet from the pending queue.
        asm.instr("ASHL", "#4", "R1", "R5")
        asm.instr("MOVAL", "@#{:#x}".format(self.io_packets_va), "R6")
        asm.instr("ADDL2", "R5", "R6")
        asm.instr("REMQUE", "(R6)", "R0")
        asm.instr("MTPR", "R1", "#{}".format(PR_WAKE))
        asm.instr("POPR", "#0x7F")
        asm.instr("REI")

        # --- disk ISR ----------------------------------------------------
        asm.label("disk_isr")
        asm.instr("PUSHR", "#0x03")
        asm.instr("MOVAL", "@#{:#x}".format(self.disk_count_va), "R0")
        asm.instr("INCL", "(R0)")
        asm.instr("POPR", "#0x03")
        asm.instr("REI")

        # --- rescheduler (software interrupt) ----------------------------
        # Like VMS, the rescheduler only performs the (expensive) context
        # switch when a different process should run; PR 104 asks the
        # run-queue whether the pick would change anything.
        asm.label("resched")
        asm.instr("MTPR", "#0", "#{}".format(PR_SHOULD_SWITCH))
        asm.instr("TSTL", "@#{:#x}".format(data + 0x18))  # switch_flag
        asm.instr("BEQL", "resched_done")
        asm.instr("SVPCTX")
        asm.instr("MTPR", "#0", "#{}".format(PR_SCHED_PICK))
        asm.instr("LDPCTX")
        asm.label("resched_done")
        asm.instr("REI")

        # --- CHMK dispatcher ----------------------------------------------
        asm.label("chmk")
        asm.instr("PUSHR", "#0x3F")  # R0-R5
        asm.instr("MOVL", "24(SP)", "R0")  # the service code (below saved regs)
        asm.instr("CMPL", "R0", "#{}".format(SVC_QIO_READ))
        asm.instr("BEQL", "svc_qio")
        asm.instr("CMPL", "R0", "#{}".format(SVC_GETTIM))
        asm.instr("BEQL", "svc_gettim")
        asm.instr("CMPL", "R0", "#{}".format(SVC_PROBE_COPY))
        asm.instr("BEQL", "svc_probe")
        asm.label("chmk_done")
        asm.instr("POPR", "#0x3F")
        asm.instr("ADDL2", "#4", "SP")  # discard the service code
        asm.instr("REI")

        # QIO terminal read: queue an IO packet, block, reschedule.
        asm.label("svc_qio")
        asm.instr("MTPR", "#0", "#{}".format(PR_WHOAMI))
        asm.instr("MOVL", "@#{:#x}".format(self.tt_pid_va), "R1")
        asm.instr("ASHL", "#4", "R1", "R2")
        asm.instr("MOVAL", "@#{:#x}".format(self.io_packets_va), "R3")
        asm.instr("ADDL2", "R2", "R3")
        asm.instr("INSQUE", "(R3)", "@#{:#x}".format(self.ioq_header_va))
        asm.instr("MTPR", "#0", "#{}".format(PR_BLOCK))
        asm.instr("MTPR", "#{}".format(IPL_RESCHED), "#{}".format(PR_SIRR))
        asm.instr("BRW", "chmk_done")

        # GETTIM: read the tick cell, scale to "time", hand back in R0.
        asm.label("svc_gettim")
        asm.instr("MOVL", "@#{:#x}".format(self.tick_count_va), "R1")
        asm.instr("MULL3", "#10000", "R1", "R2")
        asm.instr("MOVL", "R2", "@#{:#x}".format(self.time_cell_va))
        # Completion processing rides a software interrupt, as VMS's
        # IO-post / AST-delivery levels do; the rescheduler usually finds
        # the same process still best and performs no switch.
        asm.instr("MTPR", "#{}".format(IPL_RESCHED), "#{}".format(PR_SIRR))
        asm.instr("BRW", "chmk_done")

        # PROBE+copy: validate a user buffer, then copy a descriptor.
        asm.label("svc_probe")
        asm.instr("PROBER", "#0", "#4", "@#{:#x}".format(self.time_cell_va))
        asm.instr("BEQL", "probe_fail")
        asm.instr("MOVL", "@#{:#x}".format(self.time_cell_va), "R1")
        asm.instr("ADDL2", "#1", "R1")
        asm.instr("MOVL", "R1", "@#{:#x}".format(self.time_cell_va))
        asm.label("probe_fail")
        asm.instr("BRW", "chmk_done")

        # --- the Null process ---------------------------------------------
        asm.label("null_loop")
        asm.instr("BRB", "null_loop")

        image = asm.assemble()
        self.symbols = dict(asm.symbols)

        # Map and install kernel code + data + stacks region.
        machine.map_range(self.KERNEL_CODE_VA, len(image))
        machine.write_virtual(self.KERNEL_CODE_VA, image)
        machine.map_range(self.KERNEL_DATA_VA, 0x1000)
        machine.map_range(self.KERNEL_STACKS_VA, 64 * self.KERNEL_STACK_BYTES)

        # Initialise queue headers to self-reference (empty queues), and
        # every IO packet likewise so a stray REMQUE is harmless.
        for header in (self.ioq_header_va, self.diskq_header_va):
            self._write_kernel_longword(header, header)
            self._write_kernel_longword(header + 4, header)
        for pid in range(64):
            packet = self.io_packets_va + 16 * pid
            self._write_kernel_longword(packet, packet)
            self._write_kernel_longword(packet + 4, packet)

        machine.scb.update(
            {
                "clock_plain": self.symbols["clock_plain"],
                "clock_resched": self.symbols["clock_resched"],
                "terminal": self.symbols["terminal_isr"],
                "disk": self.symbols["disk_isr"],
                "software": self.symbols["resched"],
                "chmk": self.symbols["chmk"],
            }
        )

    def _write_kernel_longword(self, va: int, value: int) -> None:
        entry = self.machine.system_table.lookup(vpn_of(va))
        pa = (entry.pfn << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))
        self.machine.physical.write(pa, 4, value)

    def _read_kernel_longword(self, va: int) -> int:
        entry = self.machine.system_table.lookup(vpn_of(va))
        pa = (entry.pfn << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))
        return self.machine.physical.read(pa, 4)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def _install_hooks(self) -> None:
        machine = self.machine
        machine.context_load_hook = self._on_context_load
        machine.mtpr_hooks[PR_SCHED_PICK] = self._pick_next
        machine.mtpr_hooks[PR_WAKE] = self._wake
        machine.mtpr_hooks[PR_BLOCK] = self._block_current
        machine.mtpr_hooks[PR_WHOAMI] = self._note_current_pid
        machine.mtpr_hooks[PR_SHOULD_SWITCH] = self._should_switch
        machine.pager = self._pager

    def _pager(self, va: int, write: bool) -> bool:
        """Demand-zero paging into the active address space."""
        try:
            return self.machine.map_new_frame(va)
        except (MemoryError, IndexError):
            return False

    def _note_current_pid(self, _value: int) -> None:
        """Service code asked "who am I": write current pid into tt_pid."""
        pid = self.current.pid if self.current else 0
        self._write_kernel_longword(self.tt_pid_va, pid)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def _alloc_struct(self, size: int, align: int = 512) -> int:
        cursor = (self._structs_cursor + align - 1) & ~(align - 1)
        self._structs_cursor = cursor + size
        if self._structs_cursor > self.machine.RESERVED_PHYSICAL:
            raise MemoryError("OS structure area exhausted")
        return cursor

    def create_process(
        self,
        name: str,
        image: bytes,
        origin: int,
        user_stack_top: int = 0x000F_8000,
        table_pages: int = 2048,
    ) -> Process:
        """Create a user process with its own P0 space running ``image``."""
        machine = self.machine
        pid = self._next_pid
        self._next_pid += 1

        table_pa = self._alloc_struct(4 * table_pages)
        table = PageTable(machine.physical, table_pa, table_pages)
        pcb_pa = self._alloc_struct(PCB_BYTES, align=128)

        kernel_stack_top = (
            self.KERNEL_STACKS_VA + (pid + 2) * self.KERNEL_STACK_BYTES
        )

        # Load the image into the process's own P0 space: temporarily make
        # its table active for the loader-side writes.
        previous = machine.memory.page_tables["p0"]
        machine.memory.set_page_table("p0", table)
        try:
            machine.write_virtual(origin, image)
            machine.map_range(user_stack_top - 4 * PAGE_SIZE, 4 * PAGE_SIZE)
        finally:
            machine.memory.set_page_table("p0", previous)

        initialize_pcb(
            machine,
            pcb_pa,
            entry_pc=origin,
            kernel_sp=kernel_stack_top,
            user_sp=user_stack_top,
            user_mode=True,
        )
        process = Process(pid=pid, name=name, pcb_pa=pcb_pa, page_table=table)
        self.processes.append(process)
        self._by_pcb[pcb_pa] = process
        return process

    def load_into_process(self, process: Process, va: int, payload: bytes) -> None:
        """Loader-side write into one process's P0 space (no cycle cost)."""
        machine = self.machine
        previous = machine.memory.page_tables["p0"]
        machine.memory.set_page_table("p0", process.page_table)
        try:
            machine.write_virtual(va, payload)
        finally:
            machine.memory.set_page_table("p0", previous)

    def _create_null_process(self) -> Process:
        machine = self.machine
        pid = self._next_pid
        self._next_pid += 1
        pcb_pa = self._alloc_struct(PCB_BYTES, align=128)
        kernel_stack_top = self.KERNEL_STACKS_VA + self.KERNEL_STACK_BYTES
        initialize_pcb(
            machine,
            pcb_pa,
            entry_pc=self.symbols["null_loop"],
            kernel_sp=kernel_stack_top,
            user_sp=kernel_stack_top,
            user_mode=False,
        )
        process = Process(
            pid=pid,
            name="NULL",
            pcb_pa=pcb_pa,
            page_table=machine.p0_table,
            is_null=True,
        )
        self._by_pcb[pcb_pa] = process
        return process

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _pick_next(self, _value: int) -> None:
        """MTPR #0, #100 from the scheduler: choose the next process."""
        if self.current is not None and not self.current.is_null:
            if self.current.state is ProcessState.RUNNING:
                self.current.state = ProcessState.RUNNABLE
        chosen = self._round_robin()
        if chosen is None:
            chosen = self.null_process
        else:
            chosen.state = ProcessState.RUNNING
        self.ebox.pr[16] = chosen.pcb_pa  # PCBB
        self._clock_ticks_since_switch = 0
        self._quantum_expired = False

    def _peek_next(self) -> Optional[Process]:
        """What _round_robin would pick, without advancing the cursor."""
        if not self.processes:
            return None
        count = len(self.processes)
        for offset in range(count):
            candidate = self.processes[(self._rr_cursor + offset) % count]
            if candidate.state is ProcessState.RUNNABLE:
                return candidate
        return None

    def _should_switch(self, _value: int) -> None:
        """PR 104: would a scheduler pick change the running process?

        Mirrors VMS policy: a runnable current process keeps the CPU
        unless its quantum expired; blocked (or null) current always
        yields when another process can run.
        """
        current = self.current
        nxt = self._peek_next()
        current_blocked = (
            current is None
            or current.is_null
            or current.state is ProcessState.BLOCKED
        )
        if current_blocked:
            switch = nxt is not None or current is None or not current.is_null
            if current is not None and current.is_null and nxt is None:
                switch = False  # null stays
        elif self._quantum_expired:
            switch = nxt is not None and nxt is not current
        else:
            switch = False
        self._write_kernel_longword(self.switch_flag_va, 1 if switch else 0)

    def _round_robin(self) -> Optional[Process]:
        if not self.processes:
            return None
        count = len(self.processes)
        for offset in range(count):
            candidate = self.processes[(self._rr_cursor + offset) % count]
            if candidate.state is ProcessState.RUNNABLE:
                self._rr_cursor = (self._rr_cursor + offset + 1) % count
                return candidate
        return None

    def _on_context_load(self, pcb_pa: int) -> None:
        """LDPCTX hook: switch address space and measurement gating."""
        process = self._by_pcb.get(pcb_pa)
        if process is None:
            return
        self.current = process
        self.machine.memory.set_page_table("p0", process.page_table)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(
                "VMS",
                self.ebox.cycle_count,
                "context switch",
                {"process": process.name, "pid": process.pid},
            )
        monitor = self.machine.monitor
        if process.is_null:
            # The Null process is excluded from measurement (Section 2.2).
            if monitor is not None and self._measuring:
                monitor.stop()
            self.ebox.events = self.null_events
        else:
            if monitor is not None and self._measuring:
                monitor.start()
            self.ebox.events = self._main_events

    def _wake(self, pid: int) -> None:
        for process in self.processes:
            if process.pid == pid and process.state is ProcessState.BLOCKED:
                process.state = ProcessState.RUNNABLE
                process.waiting_for = None
                # Preempt the Null process promptly; a running user
                # process keeps its quantum (VMS would consider priority).
                if self.current is not None and self.current.is_null:
                    self.ebox.events.software_interrupt_requests += 1
                    self.machine.request_software_interrupt(IPL_RESCHED)
                break

    def _block_current(self, _value: int) -> None:
        if self.current is not None and not self.current.is_null:
            self.current.state = ProcessState.BLOCKED
            self.current.waiting_for = "terminal"

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------

    def _wire_devices(self, clock_period: int, terminal_period: int, disk_period: int) -> None:
        self.devices.add("clock", IPL_CLOCK, clock_period, self._clock_fired, jitter=0.05)
        self.devices.add("terminal", IPL_TERMINAL, terminal_period, self._terminal_fired)
        self.devices.add("disk", IPL_DISK, disk_period, self._disk_fired)

    def _clock_fired(self, timer) -> None:
        self._clock_ticks_since_switch += 1
        expired = (
            self._clock_ticks_since_switch >= self.quantum_ticks
            and self.current is not None
            and not self.current.is_null
        )
        if expired:
            self._quantum_expired = True
        vector = "clock_resched" if expired else "clock_plain"
        if self.machine.tracer is not None:
            self.machine.tracer.instant(
                "VMS", self.ebox.cycle_count, "clock fired", {"resched": expired}
            )
        self.machine.interrupts.post(
            InterruptRequest(ipl=timer.ipl, vector_va=self.machine.scb[vector])
        )

    def _terminal_fired(self, timer) -> None:
        """A character arrives: pick a recipient, fill the device cells."""
        if self.terminal_source is not None:
            pick = self.terminal_source(self)
            if pick is None:
                return
            pid, char = pick
        else:
            blocked = [p for p in self.processes if p.state is ProcessState.BLOCKED]
            if blocked:
                target = self._random.choice(blocked)
            elif self.processes:
                target = self._random.choice(self.processes)
            else:
                return
            pid = target.pid
            char = 0x20 + self._random.randrange(95)
        self._write_kernel_longword(self.tt_pid_va, pid)
        self._write_kernel_longword(self.tt_char_va, char)
        if self.machine.tracer is not None:
            self.machine.tracer.instant(
                "VMS", self.ebox.cycle_count, "terminal fired", {"pid": pid}
            )
        self.machine.interrupts.post(
            InterruptRequest(ipl=timer.ipl, vector_va=self.machine.scb["terminal"])
        )

    def _disk_fired(self, timer) -> None:
        if self.machine.tracer is not None:
            self.machine.tracer.instant("VMS", self.ebox.cycle_count, "disk fired")
        self.machine.interrupts.post(
            InterruptRequest(ipl=timer.ipl, vector_va=self.machine.scb["disk"])
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def boot(self) -> None:
        """Point the CPU at the boot stub (which LDPCTXes the first pick)."""
        boot_stack = self.KERNEL_STACKS_VA + 64 * self.KERNEL_STACK_BYTES
        self.machine.map_range(boot_stack - PAGE_SIZE, PAGE_SIZE)
        self.ebox.reset(self.symbols["boot"], sp=boot_stack, mode=AccessMode.KERNEL)
        self.devices.start(self.ebox.cycle_count)
        if self.machine.tracer is not None:
            self.machine.tracer.instant("VMS", self.ebox.cycle_count, "boot")

    def start_measurement(self) -> None:
        """Start the histogram boards (unless the Null process is current).

        Event counters restart alongside the monitor so both channels
        cover exactly the measurement interval (warmup is excluded from
        both, like the time before the experimenters issued the Unibus
        start command).
        """
        self._measuring = True
        fresh = EventCounters()
        self._main_events = fresh
        self.machine.events = fresh
        if self.current is None or not self.current.is_null:
            self.ebox.events = fresh
        monitor = self.machine.monitor
        if monitor is not None and (self.current is None or not self.current.is_null):
            monitor.start()
        if self.machine.tracer is not None:
            self.machine.tracer.instant(
                "VMS", self.ebox.cycle_count, "measurement start"
            )

    def stop_measurement(self) -> None:
        self._measuring = False
        if self.machine.monitor is not None:
            self.machine.monitor.stop()
        if self.machine.tracer is not None:
            self.machine.tracer.instant(
                "VMS", self.ebox.cycle_count, "measurement stop"
            )

    def run(self, max_instructions: int = 1_000_000, max_cycles: Optional[int] = None) -> int:
        """The main loop: poll devices between instructions, step the CPU.

        One ``step()`` per turn in both execution modes (interpreted and
        replay), so device events fire at the same instruction boundary,
        at the same cycle, whichever mode runs.
        """
        executed = 0
        ebox = self.ebox
        devices = self.devices
        while executed < max_instructions:
            if max_cycles is not None and ebox.cycle_count >= max_cycles:
                break
            devices.poll(ebox.cycle_count)
            if not ebox.step():
                break
            executed += 1
        return executed

    @property
    def ticks(self) -> int:
        return self._read_kernel_longword(self.tick_count_va)

    def state_summary(self) -> dict:
        """A plain-data summary of where the machine stands.

        Stamped into snapshot metadata (``repro snapshot info`` shows it
        without unpickling anything) and handy when debugging resumed
        runs."""
        return {
            "cycle_count": self.ebox.cycle_count,
            "measured_instructions": self._main_events.instructions,
            "measuring": self._measuring,
            "collecting": bool(
                self.machine.monitor is not None and self.machine.monitor.collecting
            ),
            "current_process": self.current.name if self.current else None,
            "processes": [
                {"pid": p.pid, "name": p.name, "state": p.state.name}
                for p in self.processes
            ],
            "ticks": self.ticks,
            "devices": self.devices.state_summary(),
        }

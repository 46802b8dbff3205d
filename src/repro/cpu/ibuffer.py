"""The I-Fetch stage: the 8-byte Instruction Buffer.

"The 8-byte IB makes a cache reference whenever one or more bytes are
empty.  When the requested longword arrives — possibly much later, if a
cache miss — it accepts as many bytes as it has room for then.  Thus the
IB can make repeated references (as many as four) to the same longword"
(Section 4.1).

The IB is hardware: its cache references never execute microcode, so the
micro-PC monitor cannot count them.  They are tallied in :class:`IBStats`
instead — the simulator's stand-in for the separate cache study the paper
cites for its 2.2-references-per-instruction figure.

An I-stream TB miss does not trap; it sets a flag the EBOX discovers only
when it runs out of bytes (Section 2.1), and fetching pauses until the
EBOX refills the TB.

Timing is event-driven.  The prefetcher acts at only two kinds of
cycles: a fetch (one cache reference) and the landing of an outstanding
fill.  The buffer keeps the absolute EBOX cycle of the next such event in
:attr:`InstructionBuffer.next_event`; every EBOX cycle charge compares
its new clock against it and calls :meth:`InstructionBuffer.run` only
when the clock has reached it.  The cycle-by-cycle behaviour this
reproduces exactly:

* the IB shares the cache port with EBOX data references and wins it at
  most every other cycle: a fetch at cycle ``t`` is followed by the next
  at ``t + 2``;
* a fill requested at ``t`` lands at ``t + fill_cycles`` and the next
  fetch follows two cycles after the landing;
* while the buffer is full or an I-stream TB miss is pending, nothing
  happens (``next_event`` is :data:`NEVER`) and the owed cooldown cycle
  does not elapse.  Every pause begins at a fetch or a fill landing,
  which always leaves one cooldown cycle owed, so an unpause at clock
  ``C`` (a consume that frees room, :meth:`~InstructionBuffer.clear_tb_miss`
  or :meth:`~InstructionBuffer.redirect`) schedules the next fetch at
  ``C + 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

IB_CAPACITY = 8

#: ``next_event`` while the prefetcher is paused: later than any clock.
NEVER = 1 << 62


@dataclass
class IBStats:
    """I-stream behaviour counters (Section 4.1's numbers)."""

    references: int = 0
    bytes_delivered: int = 0
    redirects: int = 0
    tb_miss_flags: int = 0

    @property
    def bytes_per_reference(self) -> float:
        return self.bytes_delivered / self.references if self.references else 0.0


class InstructionBuffer:
    """8-byte prefetch buffer running in EBOX cycle time.

    The EBOX calls :meth:`run` with its clock whenever that clock reaches
    :attr:`next_event` (the buffer fetches in the background),
    :meth:`try_consume` to take decoded bytes, and :meth:`redirect` on
    taken branches.  The calls that can unpause the prefetcher take the
    EBOX clock so they can re-arm :attr:`next_event`.
    """

    def __init__(self, memory):
        self.memory = memory  # MemorySubsystem
        self.stats = IBStats()
        #: optional repro.obs.trace.Tracer (the EBOX wires this);
        #: consulted only on miss / TB-miss / redirect branches.
        self.tracer = None
        self._bytes = bytearray()
        self._fetch_va = 0
        self._decode_va = 0
        #: the longword an outstanding cache fill will deliver at
        #: ``next_event`` (it was fetched from ``_fetch_va``)
        self._pending_value: Optional[int] = None
        self.tb_miss_pending = False
        #: EBOX cycle of the next fetch or fill landing; NEVER while the
        #: buffer is full or an I-stream TB miss is pending
        self.next_event = 1

    # -- control -----------------------------------------------------------

    def redirect(self, va: int, now: int) -> None:
        """Flush and start fetching at ``va`` (taken branch / REI / boot).

        ``now`` is the EBOX clock.  A fetch already scheduled keeps its
        cycle; a paused or filling buffer resumes with the owed cooldown.
        """
        if (
            self._pending_value is not None
            or self.tb_miss_pending
            or len(self._bytes) >= IB_CAPACITY
        ):
            self.next_event = now + 2
        self._bytes.clear()
        self._fetch_va = va
        self._decode_va = va
        self._pending_value = None
        self.tb_miss_pending = False
        self.stats.redirects += 1
        if self.tracer is not None:
            self.tracer.instant("IFETCH", now, "redirect", {"va": va})

    def clear_tb_miss(self, now: int) -> None:
        """The EBOX refilled the TB at clock ``now``; resume fetching."""
        if self.tb_miss_pending:
            self.tb_miss_pending = False
            self.next_event = now + 2

    @property
    def decode_va(self) -> int:
        """Virtual address of the next byte the EBOX will consume."""
        return self._decode_va

    @property
    def fetch_va(self) -> int:
        """Virtual address the prefetcher needs next (TB-miss service target)."""
        return self._fetch_va

    @property
    def valid_bytes(self) -> int:
        return len(self._bytes)

    # -- background fetching -------------------------------------------------

    def run(self, now: int) -> None:
        """Process every prefetcher event up to and including cycle ``now``.

        Each fetch and fill landing happens at its exact cycle ``t``:
        ``t`` is the ``now`` the SBI queues the fill on and the timestamp
        of the tracer's IFETCH events.
        """
        t = self.next_event
        buf = self._bytes
        stats = self.stats
        while t <= now:
            va = self._fetch_va
            value = self._pending_value
            if value is None:
                value, cache_hit, tb_miss, fill_cycles = self.memory.istream_read(
                    va, t
                )
                if tb_miss:
                    self.tb_miss_pending = True
                    stats.tb_miss_flags += 1
                    if self.tracer is not None:
                        self.tracer.instant("IFETCH", t, "ifetch tb miss", {"va": va})
                    t = NEVER
                    break
                stats.references += 1
                if not cache_hit:
                    # Data arrives later — after the SBI transaction (plus
                    # any queueing behind concurrent traffic) completes; the
                    # IB then accepts as many bytes as it has room for.
                    self._pending_value = value
                    if self.tracer is not None:
                        self.tracer.instant(
                            "IFETCH",
                            t,
                            "ifetch miss",
                            {"va": va, "fill_cycles": fill_cycles},
                        )
                    t += fill_cycles
                    continue
            else:
                self._pending_value = None  # the fill lands now
            # Accept the longword's bytes from ``va`` on, as many as fit.
            room = IB_CAPACITY - len(buf)
            offset = va & 3
            take = 4 - offset
            if take >= room:
                take = room
                t = NEVER  # full: paused until a consume
            else:
                t += 2
            if take == 4:
                buf += value.to_bytes(4, "little")
            else:
                buf += value.to_bytes(4, "little")[offset : offset + take]
            self._fetch_va = va + take
            stats.bytes_delivered += take
        self.next_event = t

    # -- the EBOX side ---------------------------------------------------------

    def try_consume(self, count: int, now: int) -> Optional[bytes]:
        """Take ``count`` bytes at clock ``now`` if available; None means
        IB stall.  Taking from a full buffer unpauses the prefetcher
        (replay's ``OP_CONSUME`` inlines this)."""
        buf = self._bytes
        valid = len(buf)
        if valid < count:
            return None
        if valid >= IB_CAPACITY:
            self.next_event = now + 2
        taken = bytes(buf[:count])
        del buf[:count]
        self._decode_va += count
        return taken

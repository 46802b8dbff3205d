"""The VAX general register file.

Sixteen 32-bit registers; R12-R15 have architectural roles (AP, FP, SP,
PC).  The PC is special: the I-Fetch stage owns the fetch PC while the
register file holds the architectural PC used by PC-relative specifier
arithmetic — the simulator keeps them coherent at instruction boundaries.
"""

from __future__ import annotations

from enum import IntEnum

from repro.isa.datatypes import MASK32


class Reg(IntEnum):
    """Register numbers, including the four special ones."""

    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    AP = 12
    FP = 13
    SP = 14
    PC = 15


class RegisterFile:
    """Sixteen 32-bit general registers with masking on every write."""

    __slots__ = ("_regs",)

    def __init__(self):
        self._regs = [0] * 16

    def read(self, index: int) -> int:
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        self._regs[index] = value & MASK32

    @property
    def sp(self) -> int:
        return self._regs[Reg.SP]

    @sp.setter
    def sp(self, value: int) -> None:
        self._regs[Reg.SP] = value & MASK32

    @property
    def fp(self) -> int:
        return self._regs[Reg.FP]

    @fp.setter
    def fp(self, value: int) -> None:
        self._regs[Reg.FP] = value & MASK32

    @property
    def ap(self) -> int:
        return self._regs[Reg.AP]

    @ap.setter
    def ap(self, value: int) -> None:
        self._regs[Reg.AP] = value & MASK32

    @property
    def pc(self) -> int:
        return self._regs[Reg.PC]

    @pc.setter
    def pc(self, value: int) -> None:
        self._regs[Reg.PC] = value & MASK32

    def snapshot(self):
        """Copy of all sixteen registers (used by SVPCTX and tests)."""
        return list(self._regs)

    def restore(self, values) -> None:
        """Restore a snapshot taken by :meth:`snapshot` (used by LDPCTX)."""
        if len(values) != 16:
            raise ValueError("register snapshot must have 16 entries")
        # In place: the replay loop holds the list across an instruction.
        self._regs[:] = [v & MASK32 for v in values]

    def __repr__(self) -> str:
        cells = ", ".join(
            "{}={:#x}".format(Reg(i).name, v) for i, v in enumerate(self._regs) if v
        )
        return "RegisterFile({})".format(cells or "all zero")

"""Memory-trace input for irregular algorithms (Sec. 3.3).

The declarative stencil interface covers the regular algorithms CIS
hardware is built for, but the paper notes CamJ "does accept as input a
memory trace offline collected for an irregular algorithm", to be costed
with external tools like DRAMPower.  This module is that hook: a parsed
:class:`MemoryTrace` can be billed against any digital memory model (our
SRAM/STT-RAM/DRAM stand-ins included).

Trace format: one access per line, ``R <bytes>`` or ``W <bytes>``, with
optional ``# comments`` and an optional third column carrying a timestamp
in seconds (used for active-window leakage accounting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.columns import total
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class TraceEvent:
    """One memory access of an offline-collected trace."""

    op: str  # "R" or "W"
    num_bytes: float
    timestamp: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in ("R", "W"):
            raise ConfigurationError(
                f"trace op must be 'R' or 'W', got {self.op!r}")
        if self.num_bytes <= 0:
            raise ConfigurationError(
                f"trace access size must be positive, got {self.num_bytes}")
        if self.timestamp is not None and self.timestamp < 0:
            raise ConfigurationError(
                f"trace timestamp must be non-negative, "
                f"got {self.timestamp}")


class MemoryTrace:
    """An offline-collected sequence of memory accesses."""

    def __init__(self, events: Iterable[TraceEvent]):
        self.events: List[TraceEvent] = list(events)
        if not self.events:
            raise ConfigurationError("memory trace is empty")
        timestamps = [e.timestamp for e in self.events
                      if e.timestamp is not None]
        if timestamps and len(timestamps) != len(self.events):
            raise ConfigurationError(
                "trace timestamps must be present on all events or none")
        if timestamps and timestamps != sorted(timestamps):
            raise ConfigurationError(
                "trace timestamps must be non-decreasing")

    # --- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "MemoryTrace":
        """Parse the ``R/W <bytes> [timestamp]`` line format."""
        events = []
        for line_number, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise ConfigurationError(
                    f"trace line {line_number}: expected 'R|W bytes "
                    f"[timestamp]', got {raw!r}")
            op = fields[0].upper()
            try:
                num_bytes = float(fields[1])
                timestamp = float(fields[2]) if len(fields) == 3 else None
            except ValueError as error:
                raise ConfigurationError(
                    f"trace line {line_number}: {error}") from error
            events.append(TraceEvent(op=op, num_bytes=num_bytes,
                                     timestamp=timestamp))
        return cls(events)

    @classmethod
    def from_counts(cls, reads: int, writes: int,
                    bytes_per_access: float = 1.0) -> "MemoryTrace":
        """Build a synthetic trace from aggregate counts."""
        if reads < 0 or writes < 0:
            raise ConfigurationError("access counts must be non-negative")
        if reads + writes == 0:
            raise ConfigurationError("trace needs at least one access")
        events = ([TraceEvent("R", bytes_per_access)] * reads
                  + [TraceEvent("W", bytes_per_access)] * writes)
        return cls(events)

    # --- statistics -----------------------------------------------------------

    @property
    def read_bytes(self) -> float:
        """Total bytes read."""
        return total(e.num_bytes for e in self.events if e.op == "R")

    @property
    def write_bytes(self) -> float:
        """Total bytes written."""
        return total(e.num_bytes for e in self.events if e.op == "W")

    @property
    def num_reads(self) -> int:
        return total(1 for e in self.events if e.op == "R")

    @property
    def num_writes(self) -> int:
        return total(1 for e in self.events if e.op == "W")

    @property
    def duration(self) -> Optional[float]:
        """Active window covered by timestamps, if present."""
        timestamps = [e.timestamp for e in self.events
                      if e.timestamp is not None]
        if not timestamps:
            return None
        return timestamps[-1] - timestamps[0]

    # --- energy ---------------------------------------------------------------

    def energy_against(self, memory, frame_time: Optional[float] = None
                       ) -> Tuple[float, float]:
        """``(dynamic, leakage)`` energy of running this trace on a memory.

        ``memory`` is any object exposing per-byte read/write energies
        (``read_energy_per_byte`` / ``write_energy_per_byte``) and,
        optionally, ``leakage_power``.  Leakage is billed over the trace's
        own timestamped window when available, else over ``frame_time``.
        """
        read_cost = getattr(memory, "read_energy_per_byte", None)
        write_cost = getattr(memory, "write_energy_per_byte", None)
        if read_cost is None or write_cost is None:
            raise ConfigurationError(
                f"memory {memory!r} lacks per-byte energy attributes")
        dynamic = (self.read_bytes * read_cost
                   + self.write_bytes * write_cost)
        # Standing power: SRAM-style leakage or DRAM-style refresh.
        standing_power = getattr(memory, "leakage_power", None)
        if standing_power is None:
            standing_power = getattr(memory, "refresh_power", 0.0)
        window = self.duration if self.duration else frame_time
        leakage = standing_power * window if window else 0.0
        return dynamic, leakage

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"MemoryTrace({len(self.events)} events, "
                f"{self.read_bytes:g}B read, {self.write_bytes:g}B written)")

"""DRAM configuration mirroring the paper's Table 4 main-memory parameters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.schema import SerializableConfig

#: Ceiling on each DRAM timing parameter: 80 times Table 4's 12.5 ns.
MAX_TIMING_NS = 1000.0


@dataclass
class DRAMConfig(SerializableConfig):
    """Main-memory organisation and timing.

    Defaults model the single-core configuration of Table 4: one channel,
    one rank per channel, DDR4-3200 MTPS with a 64-bit data bus, 2 KB row
    buffer, tRCD = tRP = tCAS = 12.5 ns.  All timing is expressed in *core
    cycles* assuming a 4 GHz core (so 12.5 ns = 50 cycles), matching how
    the paper reports latencies.  The paper's Table 4 lists 8 banks per
    rank; we default to the 16 banks a DDR4 device actually exposes, which
    compensates for this model's lack of FR-FCFS request reordering (see
    DESIGN.md, substitutions).
    """

    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 16
    transfer_rate_mtps: int = 3200
    bus_width_bits: int = 64
    row_buffer_bytes: int = 2048
    core_frequency_ghz: float = 4.0
    trcd_ns: float = 12.5
    trp_ns: float = 12.5
    tcas_ns: float = 12.5
    read_queue_size: int = 64
    write_queue_size: int = 64

    def validate(self) -> None:
        """Reject values the controller cannot model, naming the field.

        Counts, queue sizes, the transfer rate and the core frequency
        must be positive, the bus width a positive multiple of 8 bits,
        the row buffer at least one 64 B line, and each timing between 0
        and :data:`MAX_TIMING_NS`.  The core loop's inlined DRAM path
        binds the derived cycle counts once per span, so these are its
        preconditions.
        """
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "transfer_rate_mtps", "read_queue_size",
                     "write_queue_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)}")
        if not self.core_frequency_ghz > 0:
            raise ValueError("core_frequency_ghz must be positive, got "
                             f"{self.core_frequency_ghz}")
        if self.bus_width_bits < 8 or self.bus_width_bits % 8:
            raise ValueError("bus_width_bits must be a positive multiple of "
                             f"8, got {self.bus_width_bits}")
        if self.row_buffer_bytes < 64:
            raise ValueError("row_buffer_bytes must hold at least one 64 B "
                             f"line, got {self.row_buffer_bytes}")
        for name in ("trcd_ns", "trp_ns", "tcas_ns"):
            if not 0 <= getattr(self, name) <= MAX_TIMING_NS:
                raise ValueError(f"{name} must be between 0 and "
                                 f"{MAX_TIMING_NS:g} ns, got "
                                 f"{getattr(self, name)}")

    # ------------------------------------------------------------------ #
    # Derived quantities (in core cycles)
    # ------------------------------------------------------------------ #

    def ns_to_cycles(self, nanoseconds: float) -> int:
        return max(1, round(nanoseconds * self.core_frequency_ghz))

    @property
    def trcd_cycles(self) -> int:
        return self.ns_to_cycles(self.trcd_ns)

    @property
    def trp_cycles(self) -> int:
        return self.ns_to_cycles(self.trp_ns)

    @property
    def tcas_cycles(self) -> int:
        return self.ns_to_cycles(self.tcas_ns)

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def burst_cycles(self) -> int:
        """Core cycles the data bus is occupied transferring one 64 B line."""
        bytes_per_transfer = self.bus_width_bits // 8
        transfers = 64 // bytes_per_transfer
        seconds = transfers / (self.transfer_rate_mtps * 1e6)
        return max(1, round(seconds * self.core_frequency_ghz * 1e9))

    def scaled(self, mtps: int) -> "DRAMConfig":
        """Return a copy with a different transfer rate (bandwidth sweep)."""
        from dataclasses import replace
        return replace(self, transfer_rate_mtps=mtps)

"""Synthetic gas metering: storage writes/reads and compute units.

Stands in for on-chain execution cost; only relative magnitudes matter,
so the cost table mirrors EVM storage pricing ratios.
"""
from __future__ import annotations

WRITE_COST = 20_000
READ_COST = 800
COMPUTE_COST = 1


class GasMeter:
    """Non-decreasing counters of storage and compute activity."""

    def __init__(self):
        self.storage_writes = 0
        self.storage_reads = 0
        self.compute_units = 0

    def write(self, n: int = 1) -> None:
        self.storage_writes += n

    def read(self, n: int = 1) -> None:
        self.storage_reads += n

    def compute(self, n: int = 1) -> None:
        self.compute_units += n

    def total_gas(self) -> int:
        return (self.storage_writes * WRITE_COST
                + self.storage_reads * READ_COST
                + self.compute_units * COMPUTE_COST)

    def snapshot(self) -> tuple[int, int, int]:
        return (self.storage_writes, self.storage_reads, self.compute_units)

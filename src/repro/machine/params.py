"""Machine descriptions for the analytical performance models.

Defaults approximate the paper's evaluation platforms (Section VI):
dual-socket 24-core Intel Xeon E5-2680v3 nodes with an Infiniband
interconnect, and an NVIDIA Tesla K40.  Absolute numbers are not the
goal (DESIGN.md); the relations between them — vector width, core count,
cache versus memory latency, PCIe versus on-device bandwidth — drive the
figure shapes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuMachine:
    """One multicore node (E5-2680v3-like)."""

    name: str = "xeon-e5-2680v3"
    cores: int = 24
    frequency_ghz: float = 2.5
    vector_width_f32: int = 8          # AVX2
    flops_per_cycle_scalar: float = 4.0   # 2 FMA ports
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    l3_bytes: int = 30 * 1024 * 1024
    l1_latency_cycles: float = 4.0
    l2_latency_cycles: float = 12.0
    mem_latency_cycles: float = 200.0
    mem_bandwidth_gbs: float = 60.0
    parallel_efficiency: float = 0.88
    branch_cycles: float = 1.5
    loop_overhead_cycles: float = 1.0

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class GpuMachine:
    """An NVIDIA K40-class accelerator."""

    name: str = "tesla-k40"
    sms: int = 15
    cuda_cores: int = 2880
    frequency_ghz: float = 0.745
    global_bandwidth_gbs: float = 288.0
    shared_latency_cycles: float = 6.0
    global_latency_cycles: float = 400.0
    constant_latency_cycles: float = 8.0   # broadcast through const cache
    warp_size: int = 32
    pcie_bandwidth_gbs: float = 12.0
    pcie_latency_us: float = 10.0
    kernel_launch_us: float = 8.0
    coalescing_factor: float = 16.0        # waste for fully strided access
    divergence_penalty: float = 1.8

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class Network:
    """An Infiniband-style interconnect (MVAPICH2 in the paper)."""

    name: str = "infiniband-fdr"
    latency_us: float = 1.5
    bandwidth_gbs: float = 6.0
    pack_ns_per_byte: float = 0.25   # cost of packing non-contiguous data


DEFAULT_CPU = CpuMachine()
DEFAULT_GPU = GpuMachine()
DEFAULT_NETWORK = Network()

"""Analytical performance models for the machines the paper evaluates on
(multicore Xeon node, Tesla K40, Infiniband cluster) — see DESIGN.md for
why simulation replaces the authors' testbed.  The figures and the
schedule search read the CPU and GPU cost models; Figs. 6/7 price the
halo exchange with the network model."""

from .cpu_model import CostReport, CpuCostModel
from .gpu_model import GpuCostModel, GpuCostReport
from .network import (CommEstimate, estimate_messages, halo_exchange_time,
                      message_time)
from .params import (DEFAULT_CPU, DEFAULT_GPU, DEFAULT_NETWORK, CpuMachine,
                     GpuMachine, Network)

__all__ = [
    "CostReport", "CpuCostModel", "GpuCostModel", "GpuCostReport",
    "CommEstimate", "estimate_messages", "halo_exchange_time",
    "message_time", "DEFAULT_CPU", "DEFAULT_GPU", "DEFAULT_NETWORK",
    "CpuMachine", "GpuMachine", "Network",
]

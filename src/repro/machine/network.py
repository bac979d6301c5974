"""Interconnect cost model for the distributed experiments.

Prices a communication schedule — either a static description or the
:class:`~repro.backends.distributed.CommStats` recorded by the simulator
— on an Infiniband-style network.  The two effects the paper's
distributed comparison (Fig. 6/7 vs distributed Halide) relies on are
modelled explicitly: *volume* (distributed Halide over-estimates the data
to send when accesses are clamped) and *packing* (it "unnecessarily packs
together contiguous data into a separate buffer before sending")."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .params import DEFAULT_NETWORK, Network


@dataclass
class CommEstimate:
    seconds: float
    messages: int
    bytes_moved: float


def message_time(net: Network, nbytes: float, packed: bool = False) -> float:
    t = net.latency_us * 1e-6 + nbytes / (net.bandwidth_gbs * 1e9)
    if packed:
        t += nbytes * net.pack_ns_per_byte * 1e-9
    return t


def estimate_messages(messages: Iterable[Tuple[int, int, int]],
                      elem_bytes: float = 4.0,
                      packed: bool = False,
                      net: Network = DEFAULT_NETWORK,
                      overlap: float = 0.0) -> CommEstimate:
    """Price a set of (src, dst, elements) messages.

    ``overlap`` in [0, 1): fraction of communication hidden behind
    computation (asynchronous sends).  Messages between distinct pairs
    proceed in parallel; messages sharing a link serialise.  A link is
    the *unordered* node pair — both directions of a halo exchange ride
    the same physical cable, so ``q -> q+1`` traffic contends with
    ``q+1 -> q`` traffic rather than overlapping it for free.
    """
    per_pair = {}
    count = 0
    total_bytes = 0.0
    for src, dst, elems in messages:
        nbytes = elems * elem_bytes
        total_bytes += nbytes
        count += 1
        link = (src, dst) if src <= dst else (dst, src)
        per_pair[link] = per_pair.get(link, 0.0) + \
            message_time(net, nbytes, packed)
    worst = max(per_pair.values(), default=0.0)
    return CommEstimate(seconds=worst * (1.0 - overlap),
                        messages=count, bytes_moved=total_bytes)


def halo_exchange_time(nodes: int, halo_elems_per_pair: int,
                       elem_bytes: float = 4.0,
                       overestimate: float = 1.0,
                       packed: bool = False,
                       net: Network = DEFAULT_NETWORK,
                       overlap: float = 0.0) -> CommEstimate:
    """Closed form for a 1-D halo exchange between ``nodes`` nodes.

    A halo exchange is *bidirectional*: every adjacent pair trades
    border regions both ways (rank q needs q+1's first rows, rank q+1
    needs q's last rows), so each link carries two messages per round.

    ``overestimate`` > 1 models distributed Halide's bounding-box
    over-approximation of the border region (Section VI-B-c).
    """
    elems = int(halo_elems_per_pair * overestimate)
    msgs = []
    for q in range(nodes - 1):
        msgs.append((q + 1, q, elems))
        msgs.append((q, q + 1, elems))
    return estimate_messages(msgs, elem_bytes, packed, net, overlap)

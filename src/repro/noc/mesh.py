"""2D-mesh interconnect model (Table 2: 2D mesh, 32 B channels, 1.4 GHz).

Cores and memory partitions are placed on a rectangular grid and packets
follow dimension-ordered (XY) routing.  Each *directed* link has a
next-free time; a packet reserves every link on its path for its
serialization time (flits at one flit per cycle), which approximates
wormhole switching with per-link contention while staying O(hops) per
packet.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.obs.events import EV_NOC_DEQUEUE, EV_NOC_ENQUEUE

__all__ = ["MeshNoC"]


class MeshNoC:
    """2D mesh carrying request/response traffic between cores and L2 banks.

    Args:
        num_cores: SIMT cores (nodes 0 .. num_cores-1).
        num_partitions: Memory partitions / L2 banks (nodes num_cores ..).
        channel_width: Link width in bytes per cycle (Table 2: 32 B).
        hop_latency: Router + link traversal latency per hop, in cycles.
        ctrl_size: Size of a request/control packet in bytes.
        data_size: Payload size of a data response in bytes (cache line).
    """

    def __init__(
        self,
        num_cores: int = 16,
        num_partitions: int = 8,
        channel_width: int = 32,
        hop_latency: int = 2,
        ctrl_size: int = 8,
        data_size: int = 128,
    ) -> None:
        if num_cores < 1 or num_partitions < 1:
            raise ValueError("need at least one core and one partition")
        if channel_width < 1:
            raise ValueError(f"channel width must be positive, got {channel_width}")
        self.num_cores = num_cores
        self.num_partitions = num_partitions
        self.num_nodes = num_cores + num_partitions
        self.channel_width = channel_width
        self.hop_latency = hop_latency
        self.ctrl_flits = max(1, -(-ctrl_size // channel_width))
        self.data_flits = max(1, -(-(data_size + ctrl_size) // channel_width))

        # Near-square grid big enough for all nodes.  Memory partitions are
        # interleaved through the grid (GPU floorplans spread them around
        # the perimeter; interleaving gives similar average distance).
        self.cols = int(math.ceil(math.sqrt(self.num_nodes)))
        self.rows = int(math.ceil(self.num_nodes / self.cols))
        self._coords: List[Tuple[int, int]] = [
            (i // self.cols, i % self.cols) for i in range(self.num_nodes)
        ]
        # Routes are static (XY), so precompute every (src, dst) path once
        # as a tuple of dense link ids; `send` then walks a flat int list
        # against a flat next-free-time array instead of re-deriving
        # coordinate pairs and hashing them into a dict per packet.
        link_ids: Dict[Tuple[Tuple[int, int], Tuple[int, int]], int] = {}
        self._paths: List[Tuple[int, ...]] = []
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                self._paths.append(tuple(
                    link_ids.setdefault(link, len(link_ids))
                    for link in self._path(src, dst)
                ))
        self._path_lens: List[int] = [len(p) for p in self._paths]
        self._link_free: List[int] = [0] * len(link_ids)
        #: Event bus when tracing is enabled (see repro.obs.wire).
        self.obs = None
        self.packets_sent = 0
        self.total_hops = 0

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def core_node(self, core_id: int) -> int:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core id {core_id} out of range")
        return core_id

    def partition_node(self, partition_id: int) -> int:
        if not 0 <= partition_id < self.num_partitions:
            raise ValueError(f"partition id {partition_id} out of range")
        return self.num_cores + partition_id

    def hops(self, src_node: int, dst_node: int) -> int:
        """Manhattan distance between two nodes under XY routing."""
        sr, sc = self._coords[src_node]
        dr, dc = self._coords[dst_node]
        return abs(sr - dr) + abs(sc - dc)

    def _path(self, src_node: int, dst_node: int):
        """Yield directed links (as coordinate pairs) along the XY route."""
        r, c = self._coords[src_node]
        dr, dc = self._coords[dst_node]
        while c != dc:
            step = 1 if dc > c else -1
            yield ((r, c), (r, c + step))
            c += step
        while r != dr:
            step = 1 if dr > r else -1
            yield ((r, c), (r + step, c))
            r += step

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def send(
        self, src_node: int, dst_node: int, start: int, flits: int,
        kind: str = "packet",
    ) -> int:
        """Route one packet; returns its arrival time at ``dst_node``.

        Each link on the path is reserved for ``flits`` cycles; the packet
        waits for busy links (head-of-line contention).  ``kind`` only
        labels the packet's trace events.  The memory system calls this
        directly, once per packet, with node ids it already bounds (cores
        are nodes 0..C-1, partitions C..C+P-1).
        """
        if src_node == dst_node:
            return start
        self.packets_sent += 1
        link_free = self._link_free
        hop_latency = self.hop_latency
        pidx = src_node * self.num_nodes + dst_node
        t = start
        for link in self._paths[pidx]:
            free = link_free[link]
            depart = t if t >= free else free
            link_free[link] = depart + flits
            t = depart + hop_latency
        self.total_hops += self._path_lens[pidx]
        # The tail flit trails the head by the serialization length.
        arrive = t + flits - 1
        if self.obs is not None:
            self.obs.emit(
                EV_NOC_ENQUEUE, start, "noc",
                src_node=src_node, dst_node=dst_node, flits=flits, packet=kind,
            )
            self.obs.emit(
                EV_NOC_DEQUEUE, arrive, "noc",
                src_node=src_node, dst_node=dst_node, packet=kind,
                latency=arrive - start,
            )
        return arrive

    # The three send flavours name the packet kinds of the validated
    # public API (core_node/partition_node bound the ids).

    def send_request(self, core_id: int, partition_id: int, start: int) -> int:
        """Core -> L2 bank control packet (read request / write header)."""
        return self.send(
            self.core_node(core_id), self.partition_node(partition_id),
            start, self.ctrl_flits, "request",
        )

    def send_data_request(self, core_id: int, partition_id: int, start: int) -> int:
        """Core -> L2 bank packet carrying write data."""
        return self.send(
            self.core_node(core_id), self.partition_node(partition_id),
            start, self.data_flits, "data_request",
        )

    def send_response(self, partition_id: int, core_id: int, start: int) -> int:
        """L2 bank -> core data response (carries the victim-bit hint)."""
        return self.send(
            self.partition_node(partition_id), self.core_node(core_id),
            start, self.data_flits, "response",
        )

    @property
    def average_hops(self) -> float:
        return self.total_hops / self.packets_sent if self.packets_sent else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MeshNoC {self.rows}x{self.cols}, {self.packets_sent} pkts>"

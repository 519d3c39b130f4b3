"""Crossbar interconnect model (alternative to the 2D mesh).

GPGPU-Sim's Fermi configuration actually models a crossbar between the
SIMT cores and the memory partitions; the paper's Table 2 specifies a
2D mesh, which is our default.  Having both lets the interconnect choice
be ablated: a crossbar has uniform latency and per-*port* rather than
per-*link* contention.

The interface mirrors :class:`~repro.noc.mesh.MeshNoC` (node-addressed
``send``, the send_request / send_data_request / send_response flavours,
plus accounting), so the memory system can take either.
"""

from __future__ import annotations

from typing import List

from repro.obs.events import EV_NOC_DEQUEUE, EV_NOC_ENQUEUE

__all__ = ["CrossbarNoC"]


class CrossbarNoC:
    """Core <-> partition crossbar with per-output-port contention.

    Args:
        num_cores: SIMT cores.
        num_partitions: Memory partitions.
        channel_width: Port width in bytes/cycle.
        traversal_latency: Fixed crossbar traversal time in cycles.
        ctrl_size: Control packet size in bytes.
        data_size: Data payload size in bytes.
    """

    def __init__(
        self,
        num_cores: int = 16,
        num_partitions: int = 8,
        channel_width: int = 32,
        traversal_latency: int = 6,
        ctrl_size: int = 8,
        data_size: int = 128,
    ) -> None:
        if num_cores < 1 or num_partitions < 1:
            raise ValueError("need at least one core and one partition")
        if channel_width < 1:
            raise ValueError(f"channel width must be positive, got {channel_width}")
        self.num_cores = num_cores
        self.num_partitions = num_partitions
        self.channel_width = channel_width
        self.traversal_latency = traversal_latency
        self.ctrl_flits = max(1, -(-ctrl_size // channel_width))
        self.data_flits = max(1, -(-(data_size + ctrl_size) // channel_width))
        # Output-port next-free times: partitions for the request side,
        # cores for the response side.
        self._to_partition_free: List[int] = [0] * num_partitions
        self._to_core_free: List[int] = [0] * num_cores
        #: Event bus when tracing is enabled (see repro.obs.wire).
        self.obs = None
        self.packets_sent = 0
        self.total_hops = 0  # kept for interface parity (1 "hop" each)

    def send(
        self, src_node: int, dst_node: int, start: int, flits: int,
        kind: str = "packet",
    ) -> int:
        """Route one packet; returns its arrival time at ``dst_node``.

        Nodes are numbered as in :class:`~repro.noc.mesh.MeshNoC` (cores
        0..C-1, partitions C..C+P-1), and the packet contends for its
        destination's output port.  ``kind`` is accepted for interface
        parity; crossbar events name the port instead.
        """
        if src_node < self.num_cores:
            free = self._to_partition_free
            port = dst_node - self.num_cores
        else:
            free = self._to_core_free
            port = dst_node
        self.packets_sent += 1
        self.total_hops += 1
        busy = free[port]
        depart = start if start >= busy else busy
        free[port] = depart + flits
        arrive = depart + self.traversal_latency + flits - 1
        if self.obs is not None:
            self.obs.emit(
                EV_NOC_ENQUEUE, start, "noc", port=port, flits=flits,
            )
            self.obs.emit(
                EV_NOC_DEQUEUE, arrive, "noc", port=port,
                latency=arrive - start,
            )
        return arrive

    def send_request(self, core_id: int, partition_id: int, start: int) -> int:
        self._validate(core_id, partition_id)
        return self.send(
            core_id, self.num_cores + partition_id, start, self.ctrl_flits
        )

    def send_data_request(self, core_id: int, partition_id: int, start: int) -> int:
        self._validate(core_id, partition_id)
        return self.send(
            core_id, self.num_cores + partition_id, start, self.data_flits
        )

    def send_response(self, partition_id: int, core_id: int, start: int) -> int:
        self._validate(core_id, partition_id)
        return self.send(
            self.num_cores + partition_id, core_id, start, self.data_flits
        )

    def _validate(self, core_id: int, partition_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core id {core_id} out of range")
        if not 0 <= partition_id < self.num_partitions:
            raise ValueError(f"partition id {partition_id} out of range")

    @property
    def average_hops(self) -> float:
        return 1.0 if self.packets_sent else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CrossbarNoC {self.num_cores}x{self.num_partitions}, {self.packets_sent} pkts>"

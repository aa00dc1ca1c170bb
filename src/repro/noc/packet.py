"""NOC packet representation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.config import MessageClass

#: Bytes of NOC header per packet (one 16-byte flit in the paper's NOC).
HEADER_BYTES = 16


def flit_count(payload_bytes: int, link_bytes: int) -> int:
    """Flits a ``payload_bytes`` packet occupies on a ``link_bytes``-wide link."""
    if payload_bytes < 0:
        raise ValueError("packet payload cannot be negative")
    return 1 + math.ceil(payload_bytes / link_bytes)


@dataclass(slots=True)
class Packet:
    """One message travelling over the on-chip network.

    ``payload_bytes`` is the application/protocol payload; the header flit is
    accounted for separately when computing the flit count.  ``packet_id`` is
    handed out by the injecting :class:`~repro.noc.fabric.NocFabric` from its
    own counter, so it depends only on that fabric's send order.
    """

    src: Hashable
    dst: Hashable
    payload_bytes: int
    msg_class: MessageClass
    payload: Any = None
    packet_id: int = 0
    created_at: float = 0.0
    delivered_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """End-to-end NOC latency, available once delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Packet(#%d %s->%s %dB %s)" % (
            self.packet_id,
            self.src,
            self.dst,
            self.payload_bytes,
            self.msg_class.value,
        )

"""Mesh routing policies (§4.3).

All functions operate on mesh coordinates ``(x, y)`` where ``x`` is the
column (0 = the chip's NI/network-router edge, ``side-1`` = the MC edge) and
``y`` is the row.  They return the full node path including the source and
destination routers.

Policies
--------
* **XY** — dimension-order, X first.
* **YX** — dimension-order, Y first.
* **O1Turn** — each packet picks XY or YX (here: by a deterministic hash of
  ``(src, dst, packet_id)``), which balances the two dimension orders
  [Seo et al.].  Hashing instead of packet-id parity matters because one
  fabric's packet-id counter serves every traffic class: workloads that
  interleave two classes hand each class packet ids of a single parity, which
  would pin every packet of a class to the same orientation.
* **CDR** — class-based deterministic routing [Abts et al.]: memory requests
  route YX so they spread over the column links before turning into the MC
  column; responses route XY.
* **CDR_EXTENDED** — the paper's modification: traffic *sourced by a
  directory/LLC slice* gets its own class routed YX; everything else routes
  XY.  This keeps both the NI edge column and the MC column from becoming
  turn hotspots (§4.3).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import MessageClass, RoutingAlgorithm
from repro.errors import RoutingError

Coord = Tuple[int, int]


def _straight(a: int, b: int) -> List[int]:
    """Inclusive integer walk from a to b."""
    step = 1 if b >= a else -1
    return list(range(a, b + step, step))


def xy_path(src: Coord, dst: Coord) -> List[Coord]:
    """Dimension-order route, X dimension first."""
    sx, sy = src
    dx, dy = dst
    path: List[Coord] = [(x, sy) for x in _straight(sx, dx)]
    path.extend((dx, y) for y in _straight(sy, dy)[1:])
    return path


def yx_path(src: Coord, dst: Coord) -> List[Coord]:
    """Dimension-order route, Y dimension first."""
    sx, sy = src
    dx, dy = dst
    path: List[Coord] = [(sx, y) for y in _straight(sy, dy)]
    path.extend((x, dy) for x in _straight(sx, dx)[1:])
    return path


def o1turn_orientation(src: Coord, dst: Coord, packet_id: int) -> str:
    """The dimension order ('xy' or 'yx') an O1Turn packet uses.

    A multiply-xorshift mix of ``(src, dst, packet_id)`` rather than plain
    packet-id parity: a fabric's packet-id counter gives interleaved traffic
    classes ids of a single parity, and Python's ``hash()`` is unsuitable
    because stability across processes is required for cached/uncached route
    equivalence.
    """
    h = (
        (packet_id * 0x9E3779B1)
        ^ (src[0] * 0x85EBCA6B)
        ^ (src[1] * 0xC2B2AE35)
        ^ (dst[0] * 0x27D4EB2F)
        ^ (dst[1] * 0x165667B1)
    ) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return "xy" if h & 1 == 0 else "yx"


def o1turn_path(src: Coord, dst: Coord, packet_id: int) -> List[Coord]:
    """O1Turn: each packet picks one of the two dimension orders."""
    if o1turn_orientation(src, dst, packet_id) == "xy":
        return xy_path(src, dst)
    return yx_path(src, dst)


def route_class_direction(algorithm: RoutingAlgorithm, msg_class: MessageClass) -> str:
    """Return 'xy' or 'yx' for class-based algorithms (raises for adaptive ones)."""
    if algorithm is RoutingAlgorithm.XY:
        return "xy"
    if algorithm is RoutingAlgorithm.YX:
        return "yx"
    if algorithm is RoutingAlgorithm.CDR:
        if msg_class in (MessageClass.MEMORY_REQUEST, MessageClass.COHERENCE_REQUEST):
            return "yx"
        return "xy"
    if algorithm is RoutingAlgorithm.CDR_EXTENDED:
        if msg_class is MessageClass.DIRECTORY_SOURCED:
            return "yx"
        return "xy"
    raise RoutingError("algorithm %s does not have a fixed class direction" % algorithm)


def mesh_route(
    algorithm: RoutingAlgorithm,
    src: Coord,
    dst: Coord,
    msg_class: MessageClass,
    packet_id: int = 0,
) -> List[Coord]:
    """Compute the node path for a packet on the mesh under ``algorithm``."""
    if src == dst:
        return [src]
    if algorithm is RoutingAlgorithm.XY:
        return xy_path(src, dst)
    if algorithm is RoutingAlgorithm.YX:
        return yx_path(src, dst)
    if algorithm is RoutingAlgorithm.O1TURN:
        return o1turn_path(src, dst, packet_id)
    if algorithm in (RoutingAlgorithm.CDR, RoutingAlgorithm.CDR_EXTENDED):
        direction = route_class_direction(algorithm, msg_class)
        return xy_path(src, dst) if direction == "xy" else yx_path(src, dst)
    raise RoutingError("unknown routing algorithm %r" % algorithm)


def manhattan_distance(src: Coord, dst: Coord) -> int:
    """Hop count of any minimal route between two mesh coordinates."""
    return abs(src[0] - dst[0]) + abs(src[1] - dst[1])


def average_distance_to_column(side: int, column: int) -> float:
    """Average Manhattan X-distance from a uniformly random tile to ``column``."""
    if not 0 <= column < side:
        raise RoutingError("column %d outside a %d-wide mesh" % (column, side))
    return sum(abs(x - column) for x in range(side)) / side


def average_tile_to_tile_distance(side: int) -> float:
    """Average Manhattan distance between two uniformly random tiles."""
    total = 0
    count = 0
    for sx in range(side):
        for sy in range(side):
            for dx in range(side):
                for dy in range(side):
                    total += abs(sx - dx) + abs(sy - dy)
                    count += 1
    return total / count

"""Multi-segment route resolution.

The runtime datapath never consults this module: each segment's address map
carries proxy regions pointing at the next-hop bridge endpoint, so routing a
transaction is exactly one (memoised) ``AddressMap.decode`` per hop.  The
router is the *control plane* that places those proxy regions: it runs a BFS
over the segment/bridge graph to find the shortest bridge path between any
two segments (ties broken by bridge registration order, deterministically),
and it answers whole-path queries — "which bridges does an access from
segment S to address A cross?" — for the metrics layer and for tests.

Resolved routes are memoised in a bounded LRU keyed by
``(segment, address, size)``, mirroring the decode cache of
:class:`~repro.soc.address_map.AddressMap`.

The vector engine's fabric prepass
(:func:`repro.engine.batch.fabric_route_prepass`) uses :meth:`FabricRouter.
resolve_many` as its batched census — one control-plane query per home
segment decides routability — but derives the actual per-hop targets by
walking each segment's own address map, exactly like the datapath, so BFS
tie-breaking can never diverge from the installed proxy regions.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.soc.address_map import AddressRegion, DecodeError

__all__ = ["Route", "FabricRouter", "RoutingError", "bridge_paths"]


class RoutingError(Exception):
    """Raised when two segments are not connected by any bridge path."""


@dataclass(frozen=True)
class Route:
    """A resolved path from a source segment to the region's home segment.

    ``bridges`` lists the names of the bridges crossed, in order; an empty
    tuple means the region is local to the source segment.
    """

    region: AddressRegion
    source_segment: str
    target_segment: str
    bridges: Tuple[str, ...]

    @property
    def hops(self) -> int:
        """Number of segments traversed (1 = local access)."""
        return len(self.bridges) + 1


def bridge_paths(
    segments: Iterable[str], bridges: Iterable[Tuple[str, str, str]]
) -> Dict[Tuple[str, str], Tuple[str, ...]]:
    """Shortest bridge path between every connected pair of segments.

    ``bridges`` holds ``(a, b, bridge name)`` triples in declaration order.
    Adjacency keeps that order and each per-source BFS uses a FIFO frontier,
    so ties between equal-length paths go to the earliest-declared bridge.
    Disconnected pairs are absent from the result.
    """
    adjacency: Dict[str, List[Tuple[str, str]]] = {name: [] for name in segments}
    for a, b, bridge_name in bridges:
        adjacency[a].append((b, bridge_name))
        adjacency[b].append((a, bridge_name))
    paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for source in adjacency:
        paths[(source, source)] = ()
        frontier = deque([source])
        while frontier:
            current = frontier.popleft()
            path_here = paths[(source, current)]
            for neighbour, bridge_name in adjacency[current]:
                if (source, neighbour) in paths:
                    continue
                paths[(source, neighbour)] = path_here + (bridge_name,)
                frontier.append(neighbour)
    return paths


class FabricRouter:
    """Shortest-path resolution over a fabric's segment/bridge graph."""

    #: Upper bound on memoised routes before least-recently-used eviction.
    ROUTE_CACHE_LIMIT = 65536

    def __init__(self, fabric) -> None:
        self._fabric = fabric
        # (source segment, destination segment) -> ordered bridge-name path.
        self._paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._route_cache: "OrderedDict[Tuple[str, int, int], Route]" = OrderedDict()

    # -- control plane -----------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every segment-to-segment bridge path (BFS per source)."""
        self._route_cache.clear()
        self._paths = bridge_paths(
            self._fabric.segments,
            (
                (*bridge.segment_names, bridge.name)
                for bridge in self._fabric.bridges.values()
            ),
        )

    def path(self, source: str, destination: str) -> Tuple[str, ...]:
        """Bridge names crossed from ``source`` to ``destination``."""
        try:
            return self._paths[(source, destination)]
        except KeyError:
            raise RoutingError(
                f"no bridge path from segment {source!r} to {destination!r}"
            ) from None

    def next_hop(self, source: str, destination: str) -> Optional[str]:
        """First bridge on the path, or None for a local destination."""
        path = self.path(source, destination)
        return path[0] if path else None

    # -- queries ----------------------------------------------------------------------

    def resolve(self, segment: str, address: int, size: int = 1) -> Route:
        """Full route for an access issued on ``segment`` to ``address``.

        Raises :class:`~repro.soc.address_map.DecodeError` when the address is
        unmapped and :class:`RoutingError` when the home segment is
        unreachable.  Answers are memoised (bounded LRU).
        """
        key = (segment, address, size)
        cached = self._route_cache.get(key)
        if cached is not None:
            self._route_cache.move_to_end(key)
            return cached
        region = self._fabric.address_map.decode(address, size)
        target = self._fabric.segment_of_region(region.name)
        route = Route(
            region=region,
            source_segment=segment,
            target_segment=target,
            bridges=self.path(segment, target),
        )
        if len(self._route_cache) >= self.ROUTE_CACHE_LIMIT:
            self._route_cache.popitem(last=False)
        self._route_cache[key] = route
        return route

    def try_resolve(self, segment: str, address: int, size: int = 1) -> Optional[Route]:
        """Like :meth:`resolve` but returns None instead of raising."""
        try:
            return self.resolve(segment, address, size)
        except (DecodeError, RoutingError):
            return None

    def resolve_many(
        self, segment: str, shapes: List[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], Optional[Route]]:
        """Resolve a whole batch of unique ``(address, size)`` shapes at once.

        The batch engine uses this to characterise a transaction stream
        against a hierarchical fabric before deciding to fall back: the
        returned map tells it how many shapes would cross bridges (and is the
        shape census reported in the engine report).  Unroutable shapes map
        to None, mirroring :meth:`try_resolve`.
        """
        return {
            (address, size): self.try_resolve(segment, address, size)
            for address, size in shapes
        }

"""Routing: BFS next-hop tables with deterministic ECMP tie-breaking.

The paper's routing "can be either statically generated or dynamically
computed" (§III-B).  The :class:`Router` builds, per destination, a BFS
shortest-path DAG over the topology: for every node it stores the sorted,
interned tuple of neighbours one step closer to the destination.  A route is
then a walk down that table — O(path length) per query instead of a
per-pair ``all_shortest_paths`` enumeration — and equal-cost spreading picks
the next hop with a per-node-salted CRC32 of the flow key, so a given flow
id always takes the same path (no packet reordering) while distinct flows
load-balance across the DAG.

Tables are built lazily (one BFS per destination) and cached in an LRU
keyed by destination; topology fault mutations invalidate every table via
the change-listener hook, exactly like the old per-pair path cache.

Dynamic power-aware selection (pick the path waking the fewest sleeping
switches) is a memoised DP over the same DAG, exposed via
:meth:`Router.route_power_aware` / :meth:`Router.min_wake_cost` and used by
the joint server-network policy (§IV-D).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.link import Link
from repro.network.topology import Topology


class _DestTable:
    """BFS shortest-path DAG toward one destination.

    ``dist[n]`` is the hop count from ``n`` to the destination;
    ``next_hops[n]`` is the sorted tuple of neighbours of ``n`` that are one
    hop closer.  Nodes unreachable from the destination are absent.
    """

    __slots__ = ("dst", "dist", "next_hops")

    def __init__(self, dst: str, dist: Dict[str, int], next_hops: Dict[str, Tuple[str, ...]]):
        self.dst = dst
        self.dist = dist
        self.next_hops = next_hops


class Router:
    """Next-hop-table route computation over a :class:`Topology`."""

    def __init__(self, topology: Topology, max_cached_destinations: int = 4096):
        self.topology = topology
        self.max_cached_destinations = max_cached_destinations
        # destination -> _DestTable, LRU-evicted at max_cached_destinations.
        self._tables: "OrderedDict[str, _DestTable]" = OrderedDict()
        # Next-hop tuples are interned so tables over regular fabrics (where
        # thousands of nodes share the same few-way choice) share storage.
        self._interned: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # Per-node hash salt so consecutive hops of one flow decorrelate.
        self._salts: Dict[str, int] = {}
        # path (as tuple) -> directed (link, u, v) hop triples.
        self._hops_cache: Dict[Tuple[str, ...], List[Tuple[Link, str, str]]] = {}
        #: Bumped on every invalidation; tables are rebuilt lazily afterwards.
        self.epoch = 0
        #: Total BFS table builds (telemetry for tests and benchmarks).
        self.table_builds = 0
        # Fault injection mutates topology connectivity; stale next-hop
        # tables through dead components must never be served.
        topology.add_change_listener(self.invalidate_cache)

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _build_table(self, dst: str) -> _DestTable:
        graph = self.topology.graph
        if dst not in graph:
            raise ValueError(f"unknown node {dst!r}")
        adj = graph.adj
        dist: Dict[str, int] = {dst: 0}
        frontier = deque((dst,))
        while frontier:
            node = frontier.popleft()
            d = dist[node] + 1
            for nbr in adj[node]:
                if nbr not in dist:
                    dist[nbr] = d
                    frontier.append(nbr)
        intern = self._interned
        next_hops: Dict[str, Tuple[str, ...]] = {}
        for node, d in dist.items():
            if node == dst:
                continue
            nhs = tuple(sorted(n for n in adj[node] if dist.get(n, -1) == d - 1))
            cached = intern.get(nhs)
            if cached is None:
                intern[nhs] = nhs
            else:
                nhs = cached
            next_hops[node] = nhs
        self.table_builds += 1
        return _DestTable(dst, dist, next_hops)

    def _table(self, dst: str) -> _DestTable:
        table = self._tables.get(dst)
        if table is not None:
            self._tables.move_to_end(dst)
            return table
        table = self._build_table(dst)
        self._tables[dst] = table
        if len(self._tables) > self.max_cached_destinations:
            self._tables.popitem(last=False)
        return table

    def _salt(self, node: str) -> int:
        salt = self._salts.get(node)
        if salt is None:
            # crc32, not hash(): stable across processes (PYTHONHASHSEED),
            # so parallel sweep workers route identically to serial runs.
            salt = zlib.crc32(node.encode("utf-8"))
            self._salts[node] = salt
        return salt

    # ------------------------------------------------------------------
    # Route queries
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str, flow_key: Optional[str] = None) -> List[str]:
        """One shortest path, chosen deterministically per ``flow_key`` (ECMP).

        With no ``flow_key`` the lexicographically smallest shortest path is
        returned (the same path the old sorted-path-list implementation
        served as ``paths[0]``).
        """
        if src == dst:
            return [src]
        table = self._table(dst)
        next_hops = table.next_hops
        if src not in next_hops:
            raise ValueError(f"no path between {src!r} and {dst!r}")
        key_hash = None if flow_key is None else zlib.crc32(flow_key.encode("utf-8"))
        path = [src]
        node = src
        while node != dst:
            nhs = next_hops[node]
            if len(nhs) == 1 or key_hash is None:
                node = nhs[0]
            else:
                node = nhs[(key_hash ^ self._salt(node)) % len(nhs)]
            path.append(node)
        return path

    def try_route(self, src: str, dst: str, flow_key: Optional[str] = None) -> Optional[List[str]]:
        """Like :meth:`route` but returns None when no path exists (e.g. the
        destination is partitioned away by failures)."""
        try:
            return self.route(src, dst, flow_key)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # Power-aware routing (§IV-D)
    # ------------------------------------------------------------------
    def _node_wake_cost(self, node: str) -> int:
        switches = self.topology.switches
        switch = switches.get(node)
        return 0 if switch is None or switch.is_on else 1

    def _wake_dp(self, table: _DestTable) -> Callable[[str], int]:
        """Memoised suffix wake cost over the next-hop DAG.

        ``cost(n)`` is the minimum number of non-ON switches on any shortest
        path from ``n`` to the destination, counting ``n`` itself.
        """
        next_hops = table.next_hops
        dst = table.dst
        node_cost = self._node_wake_cost
        memo: Dict[str, int] = {dst: node_cost(dst)}

        def cost(node: str) -> int:
            cached = memo.get(node)
            if cached is not None:
                return cached
            best = node_cost(node) + min(cost(nh) for nh in next_hops[node])
            memo[node] = best
            return best

        return cost

    def route_power_aware(self, src: str, dst: str) -> List[str]:
        """The equal-cost path that wakes the fewest sleeping switches.

        Ties break lexicographically, matching the old
        ``min(paths, key=(wake_cost, path))`` over the sorted path list.
        """
        if src == dst:
            return [src]
        table = self._table(dst)
        if src not in table.next_hops:
            raise ValueError(f"no path between {src!r} and {dst!r}")
        cost = self._wake_dp(table)
        next_hops = table.next_hops
        path = [src]
        node = src
        while node != dst:
            nhs = next_hops[node]
            if len(nhs) == 1:
                node = nhs[0]
            else:
                # Sorted tuple + stable min => smallest name among the
                # minimum-cost next hops, i.e. the lexicographically
                # smallest minimum-cost continuation.
                node = min(nhs, key=lambda nh: (cost(nh), nh))
            path.append(node)
        return path

    def wake_cost(self, path: List[str]) -> int:
        """Number of non-ON switches along a node path (§IV-D's network cost)."""
        switches = self.topology.switches
        return sum(
            1
            for node in path
            if node in switches and not switches[node].is_on
        )

    def min_wake_cost(self, src: str, dst: str) -> int:
        """Wake cost of the cheapest equal-cost path between two nodes."""
        if src == dst:
            return self._node_wake_cost(src)
        table = self._table(dst)
        if src not in table.next_hops:
            raise ValueError(f"no path between {src!r} and {dst!r}")
        return self._wake_dp(table)(src)

    # ------------------------------------------------------------------
    def links_on_path(self, path: List[str]) -> List[Tuple[Link, str, str]]:
        """Directed ``(link, from_node, to_node)`` triples along a node path."""
        key = tuple(path)
        hops = self._hops_cache.get(key)
        if hops is None:
            link_between = self.topology.link_between
            hops = [(link_between(u, v), u, v) for u, v in zip(path, path[1:])]
            if len(self._hops_cache) < 4 * self.max_cached_destinations:
                self._hops_cache[key] = hops
        return hops

    def switches_on_path(self, path: List[str]) -> List:
        """The :class:`Switch` objects traversed by a node path, in order."""
        return [self.topology.switches[n] for n in path if n in self.topology.switches]

    def invalidate_cache(self) -> None:
        """Drop all next-hop tables (called after mutating the topology)."""
        self._tables.clear()
        self._hops_cache.clear()
        self.epoch += 1

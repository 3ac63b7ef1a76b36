"""Directed acyclic computation graph of operator nodes.

A :class:`Graph` stores nodes in insertion order and exposes a cached
topological order.  PowerLens consumes graphs through their topological
order — "operator i" in Algorithm 1 of the paper refers to the i-th node
in this order — so the order is deterministic (Kahn's algorithm with
insertion-order tie-breaking).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.graph.ops import OpAttrs, OpCategory, OpType, category_of

if TYPE_CHECKING:
    from repro.graph.metrics import NodeTable


class GraphError(Exception):
    """Raised for structural errors: duplicate names, missing inputs,
    cycles, or malformed graphs."""


@dataclass
class Node:
    """A single operator instance in a graph.

    Attributes
    ----------
    name:
        Unique node identifier within its graph.
    op:
        Concrete operator type.
    attrs:
        Typed attribute record matching ``op``.
    inputs:
        Names of producer nodes, in positional order.
    output_shape:
        Inferred output shape excluding the batch dimension.  Filled in by
        the builder / shape-inference pass.
    """

    name: str
    op: OpType
    attrs: OpAttrs
    inputs: Tuple[str, ...] = ()
    output_shape: Tuple[int, ...] = ()

    @property
    def category(self) -> OpCategory:
        return category_of(self.op, self.attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ins = ",".join(self.inputs)
        return f"Node({self.name}: {self.op.value}({ins}) -> {self.output_shape})"


class Graph:
    """A named DAG of operator nodes.

    Nodes are added in construction order via :meth:`add_node`; the graph
    guards against duplicate names, dangling input references and cycles.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._consumers: Dict[str, List[str]] = {}
        self._topo_cache: Optional[List[str]] = None
        self._fingerprint_cache: Optional[str] = None
        # Built and read by repro.graph.metrics.node_table.
        self._node_table: Optional["NodeTable"] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Insert ``node``; all of its inputs must already exist."""
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name: {node.name!r}")
        for src in node.inputs:
            if src not in self._nodes:
                raise GraphError(
                    f"node {node.name!r} references unknown input {src!r}"
                )
        self._nodes[node.name] = node
        self._consumers[node.name] = []
        for src in node.inputs:
            self._consumers[src].append(node.name)
        self._topo_cache = None
        self._fingerprint_cache = None
        self._node_table = None
        return node

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __getitem__(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"no such node: {name!r}") from None

    def nodes(self) -> Iterator[Node]:
        """Iterate nodes in insertion order."""
        return iter(self._nodes.values())

    def consumers(self, name: str) -> List[str]:
        """Names of nodes consuming ``name``'s output."""
        if name not in self._consumers:
            raise GraphError(f"no such node: {name!r}")
        return list(self._consumers[name])

    @property
    def input_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.op is OpType.INPUT]

    @property
    def output_nodes(self) -> List[Node]:
        """Nodes with no consumers (graph outputs)."""
        return [
            n for n in self._nodes.values() if not self._consumers[n.name]
        ]

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Node]:
        """Deterministic topological order (Kahn, insertion-order ties).

        Because :meth:`add_node` requires producers to exist before
        consumers, the insertion order is itself already topological; the
        explicit sort is kept as a structural check against future
        mutation APIs and returns the canonical operator sequence used by
        the clustering algorithm.
        """
        if self._topo_cache is None:
            indeg = {name: len(n.inputs) for name, n in self._nodes.items()}
            ready = [name for name, d in indeg.items() if d == 0]
            order: List[str] = []
            while ready:
                name = ready.pop(0)
                order.append(name)
                for consumer in self._consumers[name]:
                    indeg[consumer] -= 1
                    if indeg[consumer] == 0:
                        ready.append(consumer)
            if len(order) != len(self._nodes):
                raise GraphError(f"graph {self.name!r} contains a cycle")
            # Preserve insertion order among nodes (stable, deterministic).
            insertion_rank = {n: i for i, n in enumerate(self._nodes)}
            order.sort(key=insertion_rank.__getitem__)
            self._topo_cache = order
        return [self._nodes[n] for n in self._topo_cache]

    def compute_nodes(self) -> List[Node]:
        """Topologically ordered nodes excluding graph inputs.

        This is the operator sequence PowerLens clusters: index ``i`` in
        Algorithm 1 is ``compute_nodes()[i]``.
        """
        return [n for n in self.topological_order() if n.op is not OpType.INPUT]

    def depth(self) -> int:
        """Longest path length (in compute nodes) from any input to any
        output — the network 'depth' used as a macro structural feature."""
        depth: Dict[str, int] = {}
        for node in self.topological_order():
            if node.op is OpType.INPUT:
                depth[node.name] = 0
            else:
                best = max((depth[s] for s in node.inputs), default=0)
                depth[node.name] = best + 1
        return max(depth.values(), default=0)

    def fingerprint(self) -> str:
        """Stable structural digest of the compute-node sequence.

        Two graphs share a fingerprint exactly when their canonical
        operator sequences match in op type, attributes, wiring and
        output shapes.  Frequency plans record the fingerprint of the
        graph they were computed for, so a stale plan applied to a
        renamed-but-different graph is detected at job start.

        Cached until the next :meth:`add_node` (the digest keys the
        hardware models' work and profile-table caches, so it is queried
        far more often than graphs mutate).
        """
        if self._fingerprint_cache is None:
            h = hashlib.sha256()
            for node in self.compute_nodes():
                h.update(node.name.encode())
                h.update(node.op.value.encode())
                h.update(repr(node.attrs).encode())
                h.update(repr(node.inputs).encode())
                h.update(repr(node.output_shape).encode())
                h.update(b"\x00")
            self._fingerprint_cache = h.hexdigest()[:16]
        return self._fingerprint_cache

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.name!r}, {len(self)} nodes)"

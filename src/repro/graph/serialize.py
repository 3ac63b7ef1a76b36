"""JSON (de)serialization of graphs.

Graphs round-trip through plain dicts so dataset generation can cache the
thousands of random networks used for model training (section 2.2 of the
paper) without re-running the generator.
"""

from __future__ import annotations

from repro.graph.graph import Graph, GraphError, Node
from repro.graph.ops import OpType, attrs_class_for


def _listify(value):
    """Tuples become lists for JSON; applied recursively."""
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    return value


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def graph_to_dict(graph: Graph) -> dict:
    """Serialize ``graph`` to a JSON-compatible dict."""
    nodes = []
    for node in graph.nodes():
        nodes.append({
            "name": node.name,
            "op": node.op.value,
            "attrs": {k: _listify(v) for k, v in node.attrs.to_dict().items()},
            "inputs": list(node.inputs),
            "output_shape": list(node.output_shape),
        })
    return {"name": graph.name, "nodes": nodes}


def graph_from_dict(payload: dict) -> Graph:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    try:
        graph = Graph(payload["name"])
        for rec in payload["nodes"]:
            op = OpType(rec["op"])
            cls = attrs_class_for(op)
            attrs = cls(**{k: _tuplify(v) for k, v in rec["attrs"].items()})
            node = Node(
                name=rec["name"],
                op=op,
                attrs=attrs,
                inputs=tuple(rec["inputs"]),
                output_shape=tuple(rec["output_shape"]),
            )
            graph.add_node(node)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph payload: {exc}") from exc
    return graph

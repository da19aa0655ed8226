"""Graphviz dot rendering of diagrams.

Control-flow elements use conventional shapes (boxes, diamonds, circles);
data stores render as cylinders and data objects as notes. Data elements
and their connectors can be suppressed with ``hide_data=True`` to show the
pure control-flow skeleton.
"""

from __future__ import annotations

from .expr import print_expr
from .model import Diagram

_NODE_SHAPES = {
    "task": "box",
    "sub_process": "box",
    "gateway_exclusive_data": "diamond",
    "gateway_parallel": "diamond",
    "start_event_none": "circle",
    "start_event_message": "circle",
    "end_event": "doublecircle",
    "intermediate_message": "circle",
}

_GATEWAY_MARKS = {"gateway_exclusive_data": "X", "gateway_parallel": "+"}


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(diagram: Diagram, hide_data: bool = False) -> str:
    """Render the diagram as Graphviz dot text."""
    lines = [f"digraph {_quote(diagram.id)} {{", "  rankdir=LR;", "  node [fontsize=10];"]

    for pool in diagram.pools:
        lines.append(f"  subgraph {_quote('cluster_' + pool.id)} {{")
        lines.append(f"    label={_quote(pool.name)};")
        if not pool.nodes:
            # black-box participant: draw the pool itself as an opaque box
            lines.append(f"    {_quote(pool.id)} [shape=box, style=dashed, label={_quote(pool.name)}];")
        for node in pool.iter_nodes():
            shape = _NODE_SHAPES[node.kind]
            label = _GATEWAY_MARKS.get(node.kind, node.name)
            style = ", style=bold" if node.kind == "sub_process" else ""
            lines.append(f"    {_quote(node.id)} [shape={shape}, label={_quote(label)}{style}];")
        for flow in pool.sequence_flows:
            attrs = ""
            if flow.guard is not None:
                attrs = f" [label={_quote(print_expr(flow.guard))}]"
            lines.append(f"    {_quote(flow.source)} -> {_quote(flow.target)}{attrs};")
        lines.append("  }")

    if not hide_data:
        for store in diagram.stores:
            lines.append(f"  {_quote(store.id)} [shape=cylinder, label={_quote(store.name)}];")
        for obj in diagram.objects:
            lines.append(f"  {_quote(obj.id)} [shape=note, label={_quote(obj.name)}];")
        for pool in diagram.pools:
            for flow in pool.explicit_data_flows:
                style = "dashed" if not flow.optional else "dotted"
                lines.append(
                    f"  {_quote(flow.source)} -> {_quote(flow.target)}"
                    f" [style={style}, label={_quote(flow.object)}];"
                )
            for flow in pool.sequence_flows:
                for att in flow.attachments:
                    if att.direction == "output":
                        lines.append(
                            f"  {_quote(flow.source)} -> {_quote(att.object)} [style=dashed];"
                        )
                    else:
                        style = "dotted" if att.optional else "dashed"
                        lines.append(
                            f"  {_quote(att.object)} -> {_quote(flow.target)} [style={style}];"
                        )

    for flow in diagram.message_flows:
        attrs = "style=dashed, arrowhead=open"
        if not hide_data:
            # every attached object once, whatever its direction
            objs = ", ".join(dict.fromkeys(a.object for a in flow.attachments))
            if objs:
                attrs += f", label={_quote(objs)}"
        lines.append(f"  {_quote(flow.source)} -> {_quote(flow.target)} [{attrs}];")

    lines.append("}")
    return "\n".join(lines) + "\n"

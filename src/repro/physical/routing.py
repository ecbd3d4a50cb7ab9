"""Grid global routing with explicit geometry.

Each multi-pin net is routed as a star from its driver pin: a vertical M3
segment to the sink's row followed by a horizontal M2 segment to the sink
pin, with vias at the pin access points and at each bend.  Horizontal
segments are assigned one of ``CHANNEL_TRACKS`` sub-tracks in their row
channel (and vertical segments one of the column sub-tracks) by a stable
per-net hash — this is what lets the DFM checker find pairs of nets with
long parallel runs on adjacent tracks (likely-short sites) without a full
detailed router.

Constant nets are ties realized inside the cells and are not routed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.physical.layout import M2, M3, Layout, RouteSegment, Via
from repro.utils.hashing import stable_hash as _stable_hash

#: Routing sub-tracks available per row channel / column.
CHANNEL_TRACKS = 7


def subtrack(net: str, horizontal: bool) -> int:
    """Deterministic sub-track assignment of a net within a channel."""
    return _stable_hash(("h:" if horizontal else "v:") + net) % CHANNEL_TRACKS


def route(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    layout: Layout,
) -> Layout:
    """Route every signal net of *circuit* on *layout* (in place).

    Pin locations come from the placed gates; primary inputs enter at the
    left die edge, spread over the rows.  Returns the same layout with
    ``segments`` and ``vias`` populated.
    """
    del cells  # pin geometry is uniform per track in this model
    layout.segments.clear()
    layout.vias.clear()
    pi_pos: Dict[str, Tuple[int, int]] = {}
    n_pi = max(1, len(circuit.inputs))
    for i, pi in enumerate(circuit.inputs):
        pi_pos[pi] = (0, (i * layout.die_rows) // n_pi)

    def source_of(net: str) -> Tuple[int, int]:
        drv = circuit.driver(net)
        if drv is not None:
            g = layout.gates[drv]
            return g.pin_x, g.y
        if net in pi_pos:
            return pi_pos[net]
        raise ValueError(f"net {net} has no source (undriven, not a PI)")

    for net in sorted(circuit.nets()):
        if net in (CONST0, CONST1):
            continue
        sx, sy = source_of(net)
        sinks: List[Tuple[int, int, Tuple[str, str] | None]] = [
            (layout.gates[gname].pin_x, layout.gates[gname].y, (gname, pin))
            for gname, pin in sorted(circuit.loads(net))
        ]
        if net in circuit.outputs:
            # POs exit at the right die edge in their source row.
            sinks.append((layout.die_width - 1, sy, None))
        if not sinks:
            continue
        drv = circuit.driver(net)
        layout.vias.append(
            Via(net, sx, sy, "M1", M3, owner=(drv, "") if drv else None)
        )
        for tx, ty, owner in sinks:
            if ty != sy:
                layout.segments.append(
                    RouteSegment(net, M3, sx, min(sy, ty), sx, max(sy, ty))
                )
            if tx != sx:
                layout.segments.append(
                    RouteSegment(net, M2, min(sx, tx), ty, max(sx, tx), ty)
                )
            if ty != sy and tx != sx:
                layout.vias.append(Via(net, sx, ty, M2, M3))
            layout.vias.append(Via(net, tx, ty, "M1", M2, owner=owner))
    return layout

"""Row-based placement: topological seeding plus annealing refinement.

Gates are assigned to rows in topological order (snaking across the die so
connected logic lands close together), then a seeded simulated-annealing
pass swaps gates / relocates gates between rows to reduce half-perimeter
wirelength.  Exact x coordinates come from packing each row left to right
with even spreading.  The annealer scores every trial swap on those
positions: swapping two equal-width gates exchanges their positions,
any other swap repacks the two rows, and a rejected swap puts the saved
positions back.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping

from repro.library.cell import StandardCell
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.physical.floorplan import Floorplan, cell_tracks
from repro.physical.layout import Layout, PlacedGate
from repro.utils.rng import make_rng


class PlacementError(Exception):
    """The circuit does not fit in the floorplan."""


def place(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    floorplan: Floorplan,
    seed: int = 0,
    effort: int = 1,
) -> Layout:
    """Place *circuit* on *floorplan*; returns a legal :class:`Layout`.

    Raises :class:`PlacementError` when the cells cannot fit — the caller
    (the resynthesis flow) treats that as a die-area constraint violation.
    """
    widths = {g.name: cell_tracks(cells[g.cell]) for g in circuit}
    total = sum(widths.values())
    if total > floorplan.capacity_tracks:
        raise PlacementError(
            f"{total} tracks needed, die has {floorplan.capacity_tracks}"
        )

    # --- initial snake placement in topological order ------------------
    rows: List[List[str]] = [[] for _ in range(floorplan.rows)]
    row_fill = [0] * floorplan.rows
    order = circuit.topo_order()
    target_per_row = total / floorplan.rows
    row = 0
    for gname in order:
        w = widths[gname]
        # Advance when the row reached its fair share and space remains
        # in later rows; never exceed physical row width.
        while row < floorplan.rows - 1 and (
            row_fill[row] + w > floorplan.width
            or row_fill[row] >= target_per_row
        ):
            row += 1
        if row_fill[row] + w > floorplan.width:
            # Fall back to first row with space.
            for r in range(floorplan.rows):
                if row_fill[r] + w <= floorplan.width:
                    row = r
                    break
            else:
                raise PlacementError("row overflow during initial placement")
        rows[row].append(gname)
        row_fill[row] += w

    # Pin point of each gate (cell-centre track, row), and of each PI
    # under the key ``(net,)``, which no gate name can collide with.
    pin_x: Dict[object, int] = {}
    pin_y: Dict[object, int] = {}
    half = {g: w // 2 for g, w in widths.items()}

    def repack_row(r: int) -> None:
        """Recompute x positions of row *r*, spreading slack evenly."""
        gs = rows[r]
        slack = floorplan.width - row_fill[r]
        gap = slack // (len(gs) + 1) if gs else 0
        x = gap
        for g in gs:
            pin_x[g] = x + half[g]
            pin_y[g] = r
            x += widths[g] + gap

    for r in range(floorplan.rows):
        repack_row(r)

    # --- net pins, built once -------------------------------------------
    # PIs sit on the die's left edge, evenly spread; constants are local.
    n_pi = max(1, len(circuit.inputs))
    for i, pi in enumerate(circuit.inputs):
        pin_x[(pi,)] = 0
        pin_y[(pi,)] = (i * floorplan.rows) // n_pi

    # Per net, the pins it connects: its driver gate or PI, then its
    # loading gates.  Nets with fewer than two pins have no wirelength
    # and are left out of every gate's net set.
    names = list(circuit.gates)
    net_pins: Dict[str, List[object]] = {}
    nets_of: Dict[str, FrozenSet[str]] = {}
    for gname in names:
        g = circuit.gates[gname]
        nets = [n for n in g.pins.values() if n not in (CONST0, CONST1)]
        nets.append(g.output)
        for net in nets:
            if net not in net_pins:
                drv = circuit.driver(net)
                if drv is not None:
                    pins: List[object] = [drv]
                elif (net,) in pin_x:
                    pins = [(net,)]
                else:
                    pins = []
                pins.extend(
                    sorted({load for load, _pin in circuit.loads(net)}))
                net_pins[net] = pins
        nets_of[gname] = frozenset(n for n in nets if len(net_pins[n]) > 1)

    def net_hpwl(net: str) -> int:
        pins = net_pins[net]
        xs = [pin_x[p] for p in pins]
        ys = [pin_y[p] for p in pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    # --- annealing refinement ------------------------------------------
    rng = make_rng(seed)
    if len(names) >= 2 and effort > 0:
        iters = effort * 12 * len(names)
        temp = max(2.0, floorplan.width / 4.0)
        cooling = math.exp(math.log(0.05 / temp) / max(1, iters))
        row_of = {g: r for r in range(floorplan.rows) for g in rows[r]}
        slot = {g: i for r in range(floorplan.rows)
                for i, g in enumerate(rows[r])}
        for _ in range(iters):
            a = rng.choice(names)
            b = rng.choice(names)
            if a == b:
                continue
            ra, rb = row_of[a], row_of[b]
            wa, wb = widths[a], widths[b]
            if ra == rb and wa != wb:
                continue  # same-row unequal swap would shift neighbours
            if ra != rb:
                # Capacity check for cross-row swap.
                if (row_fill[ra] - wa + wb > floorplan.width or
                        row_fill[rb] - wb + wa > floorplan.width):
                    continue
            nets = nets_of[a] | nets_of[b]
            before = sum(net_hpwl(n) for n in nets)
            ia, ib = slot[a], slot[b]
            rows[ra][ia], rows[rb][ib] = b, a
            row_of[a], row_of[b] = rb, ra
            slot[a], slot[b] = ib, ia
            if wa == wb:
                # Every other gate keeps its x; the two trade places.
                pin_x[a], pin_x[b] = pin_x[b], pin_x[a]
                pin_y[a], pin_y[b] = pin_y[b], pin_y[a]
                saved = None
            else:
                saved = [(g, pin_x[g], pin_y[g])
                         for g in rows[ra] + rows[rb]]
                row_fill[ra] += wb - wa
                row_fill[rb] += wa - wb
                repack_row(ra)
                repack_row(rb)
            after = sum(net_hpwl(n) for n in nets)
            delta = after - before
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                pass  # accept
            else:  # revert
                rows[ra][ia], rows[rb][ib] = a, b
                row_of[a], row_of[b] = ra, rb
                slot[a], slot[b] = ia, ib
                if saved is None:
                    pin_x[a], pin_x[b] = pin_x[b], pin_x[a]
                    pin_y[a], pin_y[b] = pin_y[b], pin_y[a]
                else:
                    row_fill[ra] += wa - wb
                    row_fill[rb] += wb - wa
                    for g, x, y in saved:
                        pin_x[g] = x
                        pin_y[g] = y
            temp *= cooling

    layout = Layout(die_width=floorplan.width, die_rows=floorplan.rows)
    for gname in names:
        layout.gates[gname] = PlacedGate(
            name=gname, cell=circuit.gates[gname].cell,
            x=pin_x[gname] - half[gname], y=pin_y[gname],
            width=widths[gname],
        )
    problems = layout.check_legal()
    if problems:
        raise PlacementError("; ".join(problems[:3]))
    return layout

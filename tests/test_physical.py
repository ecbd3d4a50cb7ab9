"""Tests for the physical design substrate."""

from __future__ import annotations

import hashlib

import pytest

from repro.physical import (
    Floorplan,
    make_floorplan,
    pdesign,
    place,
    route,
    static_timing,
    power_analysis,
)
from repro.physical.floorplan import cell_tracks, total_tracks
from repro.physical.placement import PlacementError
from repro.physical.layout import M2, M3, Layout, RouteSegment
from repro.physical.timing import PO_LOAD_CAP, WIRE_CAP_PER_TRACK, net_load_cap
from tests.conftest import random_mapped_circuit


@pytest.fixture(scope="module")
def placed(cells_mod, circuit_mod):
    fp = make_floorplan(circuit_mod, cells_mod)
    layout = place(circuit_mod, cells_mod, fp, seed=1)
    route(circuit_mod, cells_mod, layout)
    return fp, layout


@pytest.fixture(scope="module")
def circuit_mod(cells_mod):
    return random_mapped_circuit(cells_mod, n_pi=10, n_gates=120, seed=2)


@pytest.fixture(scope="module")
def cells_mod():
    from repro.library import osu018_library

    return {c.name: c for c in osu018_library()}


class TestFloorplan:
    def test_utilization_bounds(self, circuit_mod, cells_mod):
        fp = make_floorplan(circuit_mod, cells_mod, utilization=0.70)
        need = total_tracks(circuit_mod, cells_mod)
        assert need <= fp.capacity_tracks
        assert need / fp.capacity_tracks == pytest.approx(0.70, abs=0.12)

    def test_bad_utilization_raises(self, circuit_mod, cells_mod):
        with pytest.raises(ValueError):
            make_floorplan(circuit_mod, cells_mod, utilization=0.0)

    def test_cell_tracks_positive(self, cells_mod):
        for cell in cells_mod.values():
            assert cell_tracks(cell) >= 1


class TestPlacement:
    def test_legal(self, placed):
        _fp, layout = placed
        assert layout.check_legal() == []

    def test_all_gates_placed(self, placed, circuit_mod):
        _fp, layout = placed
        assert set(layout.gates) == set(circuit_mod.gates)

    def test_deterministic(self, circuit_mod, cells_mod):
        fp = make_floorplan(circuit_mod, cells_mod)
        l1 = place(circuit_mod, cells_mod, fp, seed=7)
        l2 = place(circuit_mod, cells_mod, fp, seed=7)
        assert {g.name: (g.x, g.y) for g in l1.gates.values()} == {
            g.name: (g.x, g.y) for g in l2.gates.values()
        }

    def test_too_small_die_raises(self, circuit_mod, cells_mod):
        with pytest.raises(PlacementError):
            place(circuit_mod, cells_mod, Floorplan(width=4, rows=2))

    def test_annealing_not_worse_than_initial(self, circuit_mod, cells_mod):
        fp = make_floorplan(circuit_mod, cells_mod)
        raw = place(circuit_mod, cells_mod, fp, seed=3, effort=0)
        ann = place(circuit_mod, cells_mod, fp, seed=3, effort=2)
        route(circuit_mod, cells_mod, raw)
        route(circuit_mod, cells_mod, ann)
        assert ann.wirelength() <= raw.wirelength() * 1.10


class TestRouting:
    def test_every_signal_net_routed(self, placed, circuit_mod):
        _fp, layout = placed
        routed = {s.net for s in layout.segments} | {
            v.net for v in layout.vias
        }
        for net in circuit_mod.nets():
            if circuit_mod.loads(net) or net in circuit_mod.outputs:
                assert net in routed, net

    def test_segments_axis_parallel(self, placed):
        _fp, layout = placed
        for seg in layout.segments:
            assert seg.x1 == seg.x2 or seg.y1 == seg.y2
            assert (seg.layer == M2) == seg.horizontal

    def test_pin_vias_have_owners(self, placed):
        _fp, layout = placed
        owners = [v.owner for v in layout.vias if v.owner and v.owner[1]]
        assert owners, "expected sink-pin vias with (gate, pin) owners"

    def test_net_length_positive(self, placed, circuit_mod):
        _fp, layout = placed
        total = sum(layout.net_length(n) for n in circuit_mod.nets())
        assert total == layout.wirelength()


class TestTimingPower:
    def test_arrival_monotone_along_paths(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        report = static_timing(circuit_mod, cells_mod, layout)
        for gname in circuit_mod.gates:
            gate = circuit_mod.gates[gname]
            out_arr = report.arrival[gate.output]
            for net in gate.pins.values():
                assert report.arrival[net] < out_arr

    def test_critical_path_is_max(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        report = static_timing(circuit_mod, cells_mod, layout)
        assert report.critical_path_delay == max(
            report.arrival[po] for po in circuit_mod.outputs
        )

    def test_wire_load_increases_delay(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        with_wires = static_timing(circuit_mod, cells_mod, layout)
        without = static_timing(circuit_mod, cells_mod, None)
        assert with_wires.critical_path_delay > without.critical_path_delay

    def test_power_positive_and_deterministic(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        p1 = power_analysis(circuit_mod, cells_mod, layout, seed=5)
        p2 = power_analysis(circuit_mod, cells_mod, layout, seed=5)
        assert p1.total > 0
        assert p1.dynamic == p2.dynamic
        assert p1.leakage == p2.leakage

    def test_leakage_is_cell_sum(self, circuit_mod, cells_mod):
        p = power_analysis(circuit_mod, cells_mod, None)
        expected = sum(cells_mod[g.cell].leakage for g in circuit_mod)
        assert p.leakage == pytest.approx(expected)


class TestPDesign:
    def test_constraints_self_satisfied(self, circuit_mod, cells_mod):
        pd = pdesign(circuit_mod, cells_mod, seed=1)
        assert pd.meets_constraints(pd, q_percent=0)

    def test_fixed_floorplan_reused(self, circuit_mod, cells_mod):
        pd1 = pdesign(circuit_mod, cells_mod, seed=1)
        pd2 = pdesign(circuit_mod, cells_mod, floorplan=pd1.floorplan, seed=2)
        assert pd2.floorplan == pd1.floorplan

    def test_constraint_rejects_big_delay(self, circuit_mod, cells_mod):
        pd = pdesign(circuit_mod, cells_mod, seed=1)
        import dataclasses

        worse_timing = dataclasses.replace(
            pd.timing, critical_path_delay=pd.delay * 1.2
        )
        from repro.physical.pdesign import PhysicalDesign

        worse = PhysicalDesign(
            circuit=pd.circuit, floorplan=pd.floorplan, layout=pd.layout,
            timing=worse_timing, power=pd.power, area_tracks=pd.area_tracks,
        )
        assert not worse.meets_constraints(pd, q_percent=5)
        assert worse.meets_constraints(pd, q_percent=25)


class TestNetLengths:
    def test_agree_with_per_net_sum_after_append(self, placed, circuit_mod):
        _fp, routed = placed
        layout = Layout(routed.die_width, routed.die_rows,
                        gates=dict(routed.gates),
                        segments=list(routed.segments),
                        vias=list(routed.vias))
        before = layout.net_lengths()
        some_net = layout.segments[0].net
        layout.segments.append(RouteSegment(some_net, M2, 0, 0, 5, 0))
        layout.segments.append(RouteSegment("extra", M3, 2, 0, 2, 3))
        lengths = layout.net_lengths()
        assert lengths[some_net] == before[some_net] + 5
        assert lengths["extra"] == 3
        expected = {}
        for seg in layout.segments:
            expected[seg.net] = expected.get(seg.net, 0) + seg.length
        assert lengths == expected
        for net in set(expected) | circuit_mod.nets():
            assert layout.net_length(net) == expected.get(net, 0)
        assert sum(lengths.values()) == layout.wirelength()

    def test_net_load_cap_unchanged(self, cells_mod):
        from repro.bench import build_benchmark
        from repro.library import osu018_library

        circuit = build_benchmark("sparc_tlu", osu018_library())
        layout = place(circuit, cells_mod,
                       make_floorplan(circuit, cells_mod), seed=0)
        route(circuit, cells_mod, layout)
        lengths = layout.net_lengths()
        for net in sorted(circuit.nets()):
            for lay, lens in ((layout, lengths), (None, None)):
                # The load as computed before the lengths were passed in:
                # pin caps in sorted order, then a per-net segment scan.
                cap = 0.0
                for gname, _pin in sorted(circuit.loads(net)):
                    cap += cells_mod[circuit.gates[gname].cell].input_cap
                if lay is not None:
                    cap += WIRE_CAP_PER_TRACK * lay.net_length(net)
                if net in circuit.outputs:
                    cap += PO_LOAD_CAP
                assert net_load_cap(circuit, cells_mod, lens, net) == cap
            # A net without segments carries no wire load.
            assert net_load_cap(circuit, cells_mod, {}, net) == \
                net_load_cap(circuit, cells_mod, None, net)


def physical_digest(circuit, library, seed):
    """sha256 over everything PDesign and the DFM fault extraction emit.

    Covers the placement, the ordered route segments and vias, the
    ordered violation list, the ordered fault ids, and the exact delay,
    critical path and power floats.
    """
    from repro.dfm import build_fault_set, check_layout

    cells = {c.name: c for c in library}
    pd = pdesign(circuit, cells, seed=seed)
    layout = pd.layout
    violations = check_layout(layout)
    faults = build_fault_set(circuit, library, layout)
    record = (
        sorted((g.name, g.cell, g.x, g.y, g.width)
               for g in layout.gates.values()),
        [(s.net, s.layer, s.x1, s.y1, s.x2, s.y2) for s in layout.segments],
        [(v.net, v.x, v.y, v.lower, v.upper, v.owner) for v in layout.vias],
        [(v.guideline, v.kind, v.net, v.other_net, v.location, v.owner)
         for v in violations],
        [f.fault_id for f in faults],
        repr(pd.delay), pd.timing.critical_path,
        repr(pd.power.dynamic), repr(pd.power.leakage),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


# Digests recorded before the placement, net-length and DFM checker
# speed-ups; those rewrites must leave every output byte-identical.
GOLDEN_DIGESTS = {
    ("sparc_tlu", 0):
        "95b457ace0634e3cb7d5b1bdc7bb0938d21ae1e18e1cb5304cc1b7391105cfcb",
    ("sparc_tlu", 1):
        "b3b05e6e8c9e88fd013072434edd709d828af763122ed95b75a6e11a700bf907",
    ("sparc_tlu", 2):
        "368f20c683d2ff63e14c94129abcd2e416b3f4227402fc95cf03596ded9a803f",
    ("wb_conmax", 0):
        "400f5ae5f591adaf21321ceafc87aed34bdd2791adbe86e7f99ccccf3164e85e",
    ("wb_conmax", 1):
        "f894d31eb9ccb06c4d4aed10f5afd229fcd0f49e931044154d9dbad5a9ee3a7c",
    ("wb_conmax", 2):
        "bcfcd9dc1cd9efd1a57a3d07704d435ace608ae16eee424f9ca61c8882c85092",
    ("aes_core", 0):
        "2ce85251422a21c7f353005ffb5f70a7603292e6d393c6b6445ee0561281c2f3",
    ("aes_core", 1):
        "f99537c9c0c539dde990a783dff1e80e62642cc9d9ee91850c27c9b49eb29c6d",
    ("aes_core", 2):
        "6db37ec446195c993fe03fec21688d98ba439aeab1f933d0b86acea7f4bfea92",
    ("c17", 0):
        "e2c08a1450c574b06fa34d987ac6564c3e0a918a284b892ec7f8fa699e599351",
    ("alu8", 0):
        "ff01403cc014aadd378fd3a67bc65a636534b274d9ce83618a874c01a5cb38c8",
}


class TestGoldenIdentity:
    @pytest.mark.parametrize("name", ["sparc_tlu", "wb_conmax", "aes_core"])
    def test_bench_circuits(self, name, library):
        from repro.bench import build_benchmark

        circuit = build_benchmark(name, library)
        for seed in (0, 1, 2):
            assert physical_digest(circuit, library, seed) == \
                GOLDEN_DIGESTS[(name, seed)], (name, seed)

    @pytest.mark.parametrize("name", ["c17", "alu8"])
    def test_bundled_netlists(self, name, library, cells):
        from repro.netlist import Circuit
        from repro.netlist.ingest import bundled_path

        circuit = Circuit.from_file(bundled_path(name), cells=cells)
        assert physical_digest(circuit, library, 0) == \
            GOLDEN_DIGESTS[(name, 0)]

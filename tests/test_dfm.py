"""Tests for the DFM guideline engine and fault translation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dfm import (
    DENSITY,
    METAL,
    VIA,
    all_guidelines,
    build_fault_set,
    check_layout,
    external_faults_from_violations,
)
from repro.dfm.checker import BRIDGE, OPEN, LayoutViolation
from repro.dfm.guidelines import Guideline
from repro.faults.model import BridgingFault, StuckAtFault, TransitionFault
from repro.physical import make_floorplan, place, route
from repro.physical.layout import M2, M3, Layout, RouteSegment, Via
from repro.physical.routing import subtrack
from tests.conftest import random_mapped_circuit


@pytest.fixture(scope="module")
def designed(cells_mod, circuit_mod):
    fp = make_floorplan(circuit_mod, cells_mod)
    layout = place(circuit_mod, cells_mod, fp, seed=4)
    route(circuit_mod, cells_mod, layout)
    return layout


@pytest.fixture(scope="module")
def circuit_mod(cells_mod):
    return random_mapped_circuit(cells_mod, n_pi=10, n_gates=140, seed=6)


@pytest.fixture(scope="module")
def cells_mod():
    from repro.library import osu018_library

    return {c.name: c for c in osu018_library()}


class TestGuidelineDeck:
    def test_counts_match_paper(self):
        deck = all_guidelines()
        by_cat = {}
        for g in deck:
            by_cat[g.category] = by_cat.get(g.category, 0) + 1
        assert by_cat == {VIA: 19, METAL: 29, DENSITY: 11}

    def test_unique_ids(self):
        deck = all_guidelines()
        assert len({g.gid for g in deck}) == len(deck)

    def test_ids_follow_family_convention(self):
        for g in all_guidelines():
            prefix = g.gid.split("-")[0]
            assert prefix in ("VIA", "MET", "DEN")


class TestChecker:
    def test_runs_and_returns_violations(self, designed):
        violations = check_layout(designed)
        assert violations, "a routed layout should violate some guidelines"
        for v in violations:
            assert v.kind in (OPEN, BRIDGE)
            if v.kind == BRIDGE:
                assert v.other_net is not None
                assert v.other_net != v.net

    def test_deterministic(self, designed):
        a = check_layout(designed)
        b = check_layout(designed)
        assert [(v.guideline, v.net, v.location) for v in a] == [
            (v.guideline, v.net, v.location) for v in b
        ]

    def test_reported_guidelines_exist(self, designed):
        deck_ids = {g.gid for g in all_guidelines()}
        for v in check_layout(designed):
            assert v.guideline in deck_ids

    def test_subset_of_deck(self, designed):
        deck = [g for g in all_guidelines() if g.category == VIA]
        violations = check_layout(designed, deck)
        assert all(v.guideline.startswith("VIA-") for v in violations)


class TestTranslation:
    def test_open_yields_stuckat_and_transition(self, circuit_mod):
        net = next(iter(circuit_mod.internal_nets()))
        v = LayoutViolation("VIA-01", OPEN, net, None, (3, 4), None)
        faults = external_faults_from_violations(circuit_mod, [v])
        kinds = {type(f) for f in faults}
        assert kinds == {StuckAtFault, TransitionFault}

    def test_bridge_yields_one_dominant_fault(self, circuit_mod):
        nets = sorted(circuit_mod.internal_nets())[:2]
        v = LayoutViolation("MET-05", BRIDGE, nets[0], nets[1], (1, 1), None)
        faults = external_faults_from_violations(circuit_mod, [v])
        assert len(faults) == 1
        (fault,) = faults
        assert {fault.victim, fault.aggressor} == set(nets)
        # Mirrored reports collapse to the same single fault site.
        mirror = LayoutViolation(
            "MET-05", BRIDGE, nets[1], nets[0], (1, 1), None
        )
        again = external_faults_from_violations(circuit_mod, [v, mirror])
        assert len(again) == 1

    def test_constant_nets_skipped(self, circuit_mod):
        v = LayoutViolation("VIA-01", OPEN, "CONST0", None, (0, 0), None)
        assert external_faults_from_violations(circuit_mod, [v]) == []

    def test_duplicate_sites_dedupe(self, circuit_mod):
        net = next(iter(circuit_mod.internal_nets()))
        v = LayoutViolation("VIA-01", OPEN, net, None, (3, 4), None)
        faults = external_faults_from_violations(circuit_mod, [v, v])
        assert len(faults) == 2  # one SA + one transition, not four

    def test_branch_owner_preserved(self, circuit_mod):
        net = next(
            n for n in sorted(circuit_mod.internal_nets())
            if circuit_mod.loads(n)
        )
        gname, pin = next(iter(circuit_mod.loads(net)))
        v = LayoutViolation("VIA-02", OPEN, net, None, (9, 9), (gname, pin))
        faults = external_faults_from_violations(circuit_mod, [v])
        for f in faults:
            assert f.branch == (gname, pin)


class TestFaultSetAssembly:
    def test_internal_plus_external(self, circuit_mod, designed):
        from repro.library import osu018_library

        lib = osu018_library()
        fs = build_fault_set(circuit_mod, lib, designed)
        counts = fs.counts()
        assert counts["internal"] > 0
        assert counts["external"] > 0
        assert counts["total"] == counts["internal"] + counts["external"]
        expected_internal = sum(
            lib[g.cell].internal_fault_count for g in circuit_mod
        )
        assert counts["internal"] == expected_internal

    def test_fault_ids_unique(self, circuit_mod, designed):
        from repro.library import osu018_library

        fs = build_fault_set(circuit_mod, osu018_library(), designed)
        ids = [f.fault_id for f in fs]
        assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Independent oracle: the checker written the naive way, scanning every
# neighbour window cell and every track a segment spans, and choosing
# the strictest guideline by a deck-order scan.
# ----------------------------------------------------------------------

def _ref_strictest(guidelines, key, pred, prefer_smallest):
    best = None
    for g in guidelines:
        if not pred(g):
            continue
        if best is None:
            best = g
        elif prefer_smallest and key(g) < key(best):
            best = g
        elif not prefer_smallest and key(g) > key(best):
            best = g
    return best


def _ref_foreign_metal(via, h_by_row, v_by_col):
    best_len, best_net = 0, None
    if via.upper == M2:
        for y in (via.y - 1, via.y, via.y + 1):
            for seg in h_by_row.get(y, ()):
                if seg.net == via.net:
                    continue
                if seg.x1 - 1 <= via.x <= seg.x2 + 1 and seg.length > best_len:
                    best_len, best_net = seg.length, seg.net
    else:
        for x in (via.x - 1, via.x, via.x + 1):
            for seg in v_by_col.get(x, ()):
                if seg.net == via.net:
                    continue
                if seg.y1 - 1 <= via.y <= seg.y2 + 1 and seg.length > best_len:
                    best_len, best_net = seg.length, seg.net
    return best_len, best_net


def _ref_parallel_pairs(by_line, horizontal):
    for line, segs in sorted(by_line.items()):
        best = {}
        if horizontal:
            span = [(s.x1, s.x2, s.net) for s in segs]
        else:
            span = [(s.y1, s.y2, s.net) for s in segs]
        span.sort()
        for i, (a1, a2, na) in enumerate(span):
            for b1, b2, nb in span[i + 1:]:
                if b1 > a2:
                    break
                if nb == na:
                    continue
                if abs(subtrack(nb, horizontal)
                       - subtrack(na, horizontal)) > 1:
                    continue
                overlap = min(a2, b2) - b1
                if overlap <= 0:
                    continue
                key = tuple(sorted((na, nb)))
                loc = (b1, line) if horizontal else (line, b1)
                if key not in best or overlap > best[key][0]:
                    best[key] = (overlap, loc)
        for pair, (overlap, loc) in sorted(best.items()):
            yield pair, overlap, loc


def _ref_crossings(seg, h_by_row, v_by_col):
    count = 0
    if seg.horizontal:
        for x in range(seg.x1, seg.x2 + 1):
            for other in v_by_col.get(x, ()):
                if other.net != seg.net and other.y1 <= seg.y1 <= other.y2:
                    count += 1
    else:
        for y in range(seg.y1, seg.y2 + 1):
            for other in h_by_row.get(y, ()):
                if other.net != seg.net and other.x1 <= seg.x1 <= other.x2:
                    count += 1
    return count


def _ref_windows(layout, w):
    out = {}
    for seg in layout.segments:
        if seg.horizontal:
            cells = [(x, seg.y1) for x in range(seg.x1, seg.x2 + 1)]
        else:
            cells = [(seg.x1, y) for y in range(seg.y1, seg.y2 + 1)]
        for x, y in cells:
            bucket = out.setdefault((x // w, y // w), {})
            bucket[seg.net] = bucket.get(seg.net, 0) + 1
    return out


def reference_check_layout(layout, guidelines=None):
    """The full, ordered violation list computed the naive way."""
    deck = list(guidelines) if guidelines is not None else all_guidelines()
    by_rule = {}
    for g in deck:
        by_rule.setdefault(g.rule, []).append(g)
    out = []
    h_by_row, v_by_col = {}, {}
    for seg in layout.segments:
        if seg.horizontal:
            h_by_row.setdefault(seg.y1, []).append(seg)
        else:
            v_by_col.setdefault(seg.x1, []).append(seg)

    via_grid = {}
    for via in layout.vias:
        via_grid[(via.x, via.y)] = via_grid.get((via.x, via.y), 0) + 1

    def neighbours(via, r):
        count = 0
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                count += via_grid.get((via.x + dx, via.y + dy), 0)
        return count - 1

    iso = by_rule.get("isolated_via", [])
    crowd = by_rule.get("crowded_via", [])
    near = by_rule.get("via_near_metal", [])
    for via in layout.vias:
        site = (via.x, via.y)
        hit = _ref_strictest(
            iso, key=lambda g: (g.params["t"], g.params["r"]),
            pred=lambda g: neighbours(via, g.params["r"]) <= g.params["t"],
            prefer_smallest=True)
        if hit:
            out.append(LayoutViolation(hit.gid, OPEN, via.net, None, site,
                                       via.owner))
        hit = _ref_strictest(
            crowd, key=lambda g: g.params["t"],
            pred=lambda g: neighbours(via, g.params["r"]) >= g.params["t"],
            prefer_smallest=False)
        if hit:
            out.append(LayoutViolation(hit.gid, OPEN, via.net, None, site,
                                       via.owner))
        if near:
            length, other = _ref_foreign_metal(via, h_by_row, v_by_col)
            hit = _ref_strictest(
                near, key=lambda g: g.params["t"],
                pred=lambda g: length >= g.params["t"],
                prefer_smallest=False)
            if hit and other is not None:
                out.append(LayoutViolation(hit.gid, BRIDGE, via.net, other,
                                           site, None))
    prun = by_rule.get("parallel_run", [])
    if prun:
        pairs = list(_ref_parallel_pairs(h_by_row, True)) + list(
            _ref_parallel_pairs(v_by_col, False))
        for pair, overlap, loc in pairs:
            hit = _ref_strictest(
                prun, key=lambda g: g.params["t"],
                pred=lambda g: overlap >= g.params["t"],
                prefer_smallest=False)
            if hit:
                out.append(LayoutViolation(hit.gid, BRIDGE, pair[0], pair[1],
                                           loc, None))
    for seg in layout.segments:
        site = (seg.x1, seg.y1)
        hit = _ref_strictest(
            by_rule.get("long_wire", []), key=lambda g: g.params["t"],
            pred=lambda g: seg.length >= g.params["t"],
            prefer_smallest=False)
        if hit:
            out.append(LayoutViolation(hit.gid, OPEN, seg.net, None, site,
                                       None))
        if by_rule.get("many_crossings"):
            n_cross = _ref_crossings(seg, h_by_row, v_by_col)
            hit = _ref_strictest(
                by_rule["many_crossings"], key=lambda g: g.params["t"],
                pred=lambda g: n_cross >= g.params["t"],
                prefer_smallest=False)
            if hit:
                out.append(LayoutViolation(hit.gid, OPEN, seg.net, None,
                                           site, None))
    dlow = by_rule.get("density_low", [])
    dhigh = by_rule.get("density_high", [])
    for w in sorted({g.params["w"] for g in dlow + dhigh}):
        for site, length_by_net in _ref_windows(layout, w).items():
            density = sum(length_by_net.values()) / float(w * w)
            nets = sorted(length_by_net, key=lambda n: (-length_by_net[n], n))
            hit = _ref_strictest(
                [g for g in dlow if g.params["w"] == w],
                key=lambda g: g.params["lo"],
                pred=lambda g: density * 100.0 < g.params["lo"],
                prefer_smallest=True)
            if hit and nets:
                for net in nets[:2]:
                    out.append(LayoutViolation(hit.gid, OPEN, net, None,
                                               site, None))
            hit = _ref_strictest(
                [g for g in dhigh if g.params["w"] == w],
                key=lambda g: g.params["hi"],
                pred=lambda g: density * 100.0 > g.params["hi"],
                prefer_smallest=False)
            if hit and len(nets) >= 2:
                out.append(LayoutViolation(hit.gid, BRIDGE, nets[0], nets[1],
                                           site, None))
    return out


@pytest.fixture(scope="module")
def bench_layouts(cells_mod):
    from repro.bench import build_benchmark
    from repro.library import osu018_library

    lib = osu018_library()
    layouts = []
    for name, seed in (("sparc_tlu", 0), ("wb_conmax", 1)):
        circuit = build_benchmark(name, lib)
        layout = place(circuit, cells_mod,
                       make_floorplan(circuit, cells_mod), seed=seed)
        layouts.append(route(circuit, cells_mod, layout))
    return layouts


class TestCheckerOracle:
    def test_random_design_matches_reference(self, designed):
        assert check_layout(designed) == reference_check_layout(designed)

    def test_bench_layouts_match_reference(self, bench_layouts):
        for layout in bench_layouts:
            got = check_layout(layout)
            assert got, "a routed bench layout violates some guidelines"
            assert got == reference_check_layout(layout)

    def test_no_vias(self, designed):
        bare = Layout(designed.die_width, designed.die_rows,
                      segments=list(designed.segments))
        assert check_layout(bare) == reference_check_layout(bare)

    def test_empty_layout(self):
        assert check_layout(Layout(die_width=10, die_rows=3)) == []

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_generated_layouts_default_deck(self, data):
        layout = data.draw(_layouts())
        assert check_layout(layout) == reference_check_layout(layout)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_generated_layouts_generated_deck(self, data):
        layout = data.draw(_layouts())
        deck = data.draw(_decks())
        assert check_layout(layout, deck) == reference_check_layout(
            layout, deck)

    def test_equal_threshold_earlier_guideline_wins(self):
        # Two crowded_via guidelines share t; both hold, so the earlier
        # one in the deck is reported, whichever order it is passed in.
        lay = Layout(die_width=6, die_rows=2,
                     vias=[Via("n", 1, 0, "M1", M2), Via("m", 2, 0, "M1", M2)])
        a = Guideline("A", "Via", "crowded_via", {"t": 1, "r": 1}, "")
        b = Guideline("B", "Via", "crowded_via", {"t": 1, "r": 2}, "")
        assert {v.guideline for v in check_layout(lay, [a, b])} == {"A"}
        assert {v.guideline for v in check_layout(lay, [b, a])} == {"B"}


_NETS = ("a", "b", "c", "d")


@st.composite
def _layouts(draw):
    """Small layouts that stress the checker's edge cases.

    Few nets, so same-net crossings and coincident vias are common;
    segments may span one track or none, and a few run high to low,
    which the router never emits but a hand-built layout may; vias sit
    on the die edges.
    """
    width = draw(st.integers(3, 24))
    rows = draw(st.integers(1, 8))
    segments = []
    for _ in range(draw(st.integers(0, 14))):
        net = draw(st.sampled_from(_NETS))
        reverse = draw(st.integers(0, 5)) == 0
        if draw(st.booleans()):
            y = draw(st.integers(0, rows - 1))
            x1 = draw(st.integers(0, width - 1))
            x2 = draw(st.integers(x1, min(width - 1, x1 + draw(
                st.sampled_from((0, 1, width))))))
            if reverse:
                x1, x2 = x2, x1
            segments.append(RouteSegment(net, M2, x1, y, x2, y))
        else:
            x = draw(st.integers(0, width - 1))
            y1 = draw(st.integers(0, rows - 1))
            y2 = draw(st.integers(y1, rows - 1))
            if reverse:
                y1, y2 = y2, y1
            segments.append(RouteSegment(net, M3, x, y1, x, y2))
    vias = []
    for _ in range(draw(st.integers(0, 12))):
        net = draw(st.sampled_from(_NETS))
        x = draw(st.one_of(st.just(0), st.just(width - 1),
                           st.integers(0, width - 1)))
        y = draw(st.integers(0, rows - 1))
        upper = draw(st.sampled_from((M2, M3)))
        owner = draw(st.sampled_from((None, ("g", ""), ("g", "A"))))
        vias.append(Via(net, x, y, "M1", upper, owner=owner))
        if draw(st.booleans()):  # a coincident via
            vias.append(Via(draw(st.sampled_from(_NETS)), x, y, M2, M3))
    return Layout(die_width=width, die_rows=rows, segments=segments,
                  vias=vias)


@st.composite
def _decks(draw):
    """A deck with small thresholds and repeated keys in every rule."""
    small = st.integers(0, 6)
    rules = {
        "isolated_via": lambda: {"t": draw(small), "r": draw(st.integers(0, 3))},
        "crowded_via": lambda: {"t": draw(small), "r": draw(st.integers(0, 3))},
        "via_near_metal": lambda: {"t": draw(small)},
        "parallel_run": lambda: {"t": draw(small)},
        "long_wire": lambda: {"t": draw(small)},
        "many_crossings": lambda: {"t": draw(small)},
        "density_low": lambda: {"w": draw(st.sampled_from((2, 3, 5))),
                                "lo": draw(st.integers(0, 100))},
        "density_high": lambda: {"w": draw(st.sampled_from((2, 3, 5))),
                                 "hi": draw(st.integers(0, 100))},
    }
    deck = []
    for rule, params in rules.items():
        for _ in range(draw(st.integers(0, 4))):
            deck.append(Guideline(f"G-{len(deck):02d}", "X", rule, params(),
                                  rule))
    return draw(st.permutations(deck))

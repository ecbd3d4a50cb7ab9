"""DFM guideline checker over the layout geometry.

For every defect-prone *site* (via, segment, segment pair, density
window) the checker computes the relevant metric once and reports a
violation of the **most specific** guideline of the matching family —
the same way sign-off decks report the worst matching recommendation —
so one physical site yields at most one violation per family.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dfm.guidelines import Guideline, all_guidelines
from repro.physical.layout import Layout, M2, RouteSegment, Via
from repro.physical.routing import subtrack

OPEN = "open"
BRIDGE = "bridge"


@dataclass(frozen=True)
class LayoutViolation:
    """One DFM violation site in the layout."""

    guideline: str
    kind: str  # OPEN | BRIDGE
    net: str
    other_net: Optional[str]
    location: Tuple[int, int]
    owner: Optional[Tuple[str, str]]  # (gate, pin) for pin-via opens


def check_layout(
    layout: Layout, guidelines: Optional[Sequence[Guideline]] = None
) -> List[LayoutViolation]:
    """Evaluate the guideline deck on *layout*; return all violations."""
    deck = list(guidelines) if guidelines is not None else all_guidelines()
    by_rule: Dict[str, List[Guideline]] = {}
    for g in deck:
        by_rule.setdefault(g.rule, []).append(g)

    violations: List[LayoutViolation] = []
    h_by_row: Dict[int, List[RouteSegment]] = {}
    v_by_col: Dict[int, List[RouteSegment]] = {}
    for seg in layout.segments:
        if seg.horizontal:
            h_by_row.setdefault(seg.y1, []).append(seg)
        else:
            v_by_col.setdefault(seg.x1, []).append(seg)

    # ---- via rules -----------------------------------------------------
    # isolated_via / crowded_via predicates depend on the radius too, so
    # each via scans these strictest first and takes the first that
    # holds; the sorts are stable, so on an equal key the earlier
    # guideline in the deck wins.
    iso = sorted(by_rule.get("isolated_via", []),
                 key=lambda g: (g.params["t"], g.params["r"]))
    crowd = sorted(by_rule.get("crowded_via", []),
                   key=lambda g: g.params["t"], reverse=True)
    near = _Thresholds(by_rule.get("via_near_metal", []), "t")
    radii = sorted({g.params["r"] for g in iso + crowd})
    neighbours = (_neighbour_counter(layout.vias)
                  if radii and layout.vias else None)
    if near:
        h_runs = _longest_first(h_by_row, True)
        v_runs = _longest_first(v_by_col, False)
    for via in layout.vias:
        if neighbours is not None:
            counts = {r: neighbours(via.x, via.y, r) for r in radii}
            for g in iso:
                if counts[g.params["r"]] <= g.params["t"]:
                    violations.append(LayoutViolation(
                        g.gid, OPEN, via.net, None, (via.x, via.y), via.owner,
                    ))
                    break
            for g in crowd:
                if counts[g.params["r"]] >= g.params["t"]:
                    violations.append(LayoutViolation(
                        g.gid, OPEN, via.net, None, (via.x, via.y), via.owner,
                    ))
                    break
        if near:
            foreign_len, foreign_net = _foreign_metal(via, h_runs, v_runs)
            hit = near.at_least(foreign_len)
            if hit and foreign_net is not None:
                violations.append(LayoutViolation(
                    hit.gid, BRIDGE, via.net, foreign_net,
                    (via.x, via.y), None,
                ))

    # ---- metal rules ---------------------------------------------------
    prun = _Thresholds(by_rule.get("parallel_run", []), "t")
    if prun:
        for pair, overlap, loc in _parallel_pairs(h_by_row, v_by_col):
            hit = prun.at_least(overlap)
            if hit:
                violations.append(LayoutViolation(
                    hit.gid, BRIDGE, pair[0], pair[1], loc, None,
                ))
    lwire = _Thresholds(by_rule.get("long_wire", []), "t")
    xings = _Thresholds(by_rule.get("many_crossings", []), "t")
    crossings = _crossings(layout.segments) if xings else []
    for i, seg in enumerate(layout.segments):
        hit = lwire.at_least(seg.length)
        if hit:
            violations.append(LayoutViolation(
                hit.gid, OPEN, seg.net, None, (seg.x1, seg.y1), None,
            ))
        if xings:
            hit = xings.at_least(crossings[i])
            if hit:
                violations.append(LayoutViolation(
                    hit.gid, OPEN, seg.net, None, (seg.x1, seg.y1), None,
                ))

    # ---- density rules ---------------------------------------------------
    dlow = by_rule.get("density_low", [])
    dhigh = by_rule.get("density_high", [])
    for w in sorted({g.params["w"] for g in dlow + dhigh}):
        low = _Thresholds([g for g in dlow if g.params["w"] == w], "lo")
        high = _Thresholds([g for g in dhigh if g.params["w"] == w], "hi")
        for (wx, wy), length_by_net in _windows(layout, w).items():
            total = sum(length_by_net.values())
            density = total / float(w * w)
            nets = sorted(
                length_by_net, key=lambda n: (-length_by_net[n], n)
            )
            hit = low.lowest_above(density * 100.0)
            if hit and nets:
                for net in nets[:2]:
                    violations.append(LayoutViolation(
                        hit.gid, OPEN, net, None, (wx, wy), None,
                    ))
            hit = high.highest_below(density * 100.0)
            if hit and len(nets) >= 2:
                violations.append(LayoutViolation(
                    hit.gid, BRIDGE, nets[0], nets[1], (wx, wy), None,
                ))
    return violations


class _Thresholds:
    """One rule's guidelines as a sorted table of a single threshold.

    Replaces a scan over the guidelines with a bisection.  A threshold
    shared by several guidelines maps to the earliest one in the deck,
    which is the one a deck-order scan keeping strict improvements picks.
    """

    def __init__(self, guidelines: Sequence[Guideline], param: str):
        first: Dict[float, Guideline] = {}
        for g in guidelines:
            first.setdefault(g.params[param], g)
        self.values = sorted(first)
        self.guidelines = [first[v] for v in self.values]

    def __bool__(self) -> bool:
        return bool(self.values)

    def at_least(self, value) -> Optional[Guideline]:
        """The guideline of the highest threshold ``t <= value``."""
        i = bisect_right(self.values, value)
        return self.guidelines[i - 1] if i else None

    def highest_below(self, value) -> Optional[Guideline]:
        """The guideline of the highest threshold ``t < value``."""
        i = bisect_left(self.values, value)
        return self.guidelines[i - 1] if i else None

    def lowest_above(self, value) -> Optional[Guideline]:
        """The guideline of the lowest threshold ``t > value``."""
        i = bisect_right(self.values, value)
        return self.guidelines[i] if i < len(self.values) else None


def _neighbour_counter(vias: Sequence[Via]):
    """``count(x, y, r)``: vias within Chebyshev radius *r*, less one.

    A summed-area table over the vias' bounding box answers each window
    in constant time; the one subtracted is the via at the centre.
    """
    x0 = min(v.x for v in vias)
    y0 = min(v.y for v in vias)
    width = max(v.x for v in vias) - x0 + 1
    height = max(v.y for v in vias) - y0 + 1
    # table[j][i] = number of vias with local row < j and column < i.
    table = [[0] * (width + 1) for _ in range(height + 1)]
    for v in vias:
        table[v.y - y0 + 1][v.x - x0 + 1] += 1
    for j in range(1, height + 1):
        above, row = table[j - 1], table[j]
        run = 0
        for i in range(1, width + 1):
            run += row[i]
            row[i] = above[i] + run

    def count(x: int, y: int, r: int) -> int:
        xa, xb = max(x - r - x0, 0), min(x + r - x0, width - 1) + 1
        ya, yb = max(y - r - y0, 0), min(y + r - y0, height - 1) + 1
        lo, hi = table[ya], table[yb]
        return hi[xb] - hi[xa] - lo[xb] + lo[xa] - 1

    return count


def _longest_first(
    by_line: Dict[int, List[RouteSegment]], horizontal: bool
) -> Dict[int, List[Tuple[int, int, int, str]]]:
    """Per track line, ``(length, lo - 1, hi + 1, net)`` of each segment.

    Longest first; segments of equal length keep layout order.
    """
    out: Dict[int, List[Tuple[int, int, int, str]]] = {}
    for line, segs in by_line.items():
        if horizontal:
            runs = [(s.length, s.x1 - 1, s.x2 + 1, s.net) for s in segs]
        else:
            runs = [(s.length, s.y1 - 1, s.y2 + 1, s.net) for s in segs]
        runs.sort(key=lambda run: -run[0])
        out[line] = runs
    return out


def _foreign_metal(
    via: Via,
    h_runs: Dict[int, List[Tuple[int, int, int, str]]],
    v_runs: Dict[int, List[Tuple[int, int, int, str]]],
) -> Tuple[int, Optional[str]]:
    """Longest other-net segment on the via's upper layer within 1 track.

    On equal lengths the first one met wins, scanning the three track
    lines in ascending order and each line in layout order.
    """
    if via.upper == M2:
        runs, line, pos = h_runs, via.y, via.x
    else:
        runs, line, pos = v_runs, via.x, via.y
    best_len, best_net = 0, None
    for at in (line - 1, line, line + 1):
        for length, lo, hi, net in runs.get(at, ()):
            if length <= best_len:
                break
            if lo <= pos <= hi and net != via.net:
                best_len, best_net = length, net
                break
    return best_len, best_net


def _parallel_pairs(
    h_by_row: Dict[int, List[RouteSegment]],
    v_by_col: Dict[int, List[RouteSegment]],
):
    """Yield ((netA, netB), overlap, location) for adjacent-track runs.

    Each unordered net pair is reported once per channel with its maximum
    overlap; sub-tracks within a channel must differ by at most 1 for the
    nets to be adjacent.
    """
    sub_h = {net: subtrack(net, True)
             for net in {s.net for segs in h_by_row.values() for s in segs}}
    sub_v = {net: subtrack(net, False)
             for net in {s.net for segs in v_by_col.values() for s in segs}}
    for y, segs in sorted(h_by_row.items()):
        best: Dict[Tuple[str, str], Tuple[int, Tuple[int, int]]] = {}
        ordered = sorted(segs, key=lambda s: (s.x1, s.x2, s.net))
        for i, a in enumerate(ordered):
            sa = sub_h[a.net]
            for b in ordered[i + 1:]:
                if b.x1 > a.x2:
                    break
                if b.net == a.net:
                    continue
                if abs(sub_h[b.net] - sa) > 1:
                    continue
                overlap = min(a.x2, b.x2) - b.x1
                if overlap <= 0:
                    continue
                key = tuple(sorted((a.net, b.net)))
                if key not in best or overlap > best[key][0]:
                    best[key] = (overlap, (b.x1, y))
        for (na, nb), (overlap, loc) in sorted(best.items()):
            yield (na, nb), overlap, loc
    for x, segs in sorted(v_by_col.items()):
        best = {}
        ordered = sorted(segs, key=lambda s: (s.y1, s.y2, s.net))
        for i, a in enumerate(ordered):
            sa = sub_v[a.net]
            for b in ordered[i + 1:]:
                if b.y1 > a.y2:
                    break
                if b.net == a.net:
                    continue
                if abs(sub_v[b.net] - sa) > 1:
                    continue
                overlap = min(a.y2, b.y2) - b.y1
                if overlap <= 0:
                    continue
                key = tuple(sorted((a.net, b.net)))
                if key not in best or overlap > best[key][0]:
                    best[key] = (overlap, (x, b.y1))
        for (na, nb), (overlap, loc) in sorted(best.items()):
            yield (na, nb), overlap, loc


def _crossings(segments: Sequence[RouteSegment]) -> List[int]:
    """Per segment, the number of foreign orthogonal segments crossing it.

    A horizontal segment on row y spanning [x1, x2] is crossed by every
    vertical segment whose column lies in the span and whose rows cover
    y (and symmetrically for vertical segments).  Coverage of each layer
    is spread over a grid of the segments' bounding box, prefix-summed
    along the crossing line, so each segment's total is two lookups; the
    segment's own-net crossings are then subtracted.
    """
    if not segments:
        return []
    x0 = min(min(s.x1, s.x2) for s in segments)
    y0 = min(min(s.y1, s.y2) for s in segments)
    width = max(max(s.x1, s.x2) for s in segments) - x0 + 1
    height = max(max(s.y1, s.y2) for s in segments) - y0 + 1
    # Difference arrays: horizontal coverage along each row, vertical
    # coverage down each column.
    h_diff = [[0] * (width + 1) for _ in range(height)]
    v_diff = [[0] * width for _ in range(height + 1)]
    h_own: Dict[str, List[Tuple[int, int, int]]] = {}
    v_own: Dict[str, List[Tuple[int, int, int]]] = {}
    for s in segments:
        if s.horizontal:
            if s.x1 <= s.x2:
                row = h_diff[s.y1 - y0]
                row[s.x1 - x0] += 1
                row[s.x2 - x0 + 1] -= 1
                h_own.setdefault(s.net, []).append((s.y1, s.x1, s.x2))
        elif s.y1 <= s.y2:
            v_diff[s.y1 - y0][s.x1 - x0] += 1
            v_diff[s.y2 - y0 + 1][s.x1 - x0] -= 1
            v_own.setdefault(s.net, []).append((s.x1, s.y1, s.y2))
    # v_along_row[j][i]: vertical segments covering row j in columns < i.
    # h_down_col[j][i]: horizontal segments covering column i in rows < j.
    v_along_row: List[List[int]] = []
    h_down_col: List[List[int]] = [[0] * width]
    v_cov = [0] * width
    for j in range(height):
        v_cov = [c + d for c, d in zip(v_cov, v_diff[j])]
        v_along_row.append(list(accumulate(v_cov, initial=0)))
        h_cov = accumulate(h_diff[j])
        h_down_col.append([c + d for c, d in zip(h_down_col[j], h_cov)])
    counts: List[int] = []
    for s in segments:
        if s.horizontal:
            if s.x1 > s.x2:
                counts.append(0)
                continue
            line = v_along_row[s.y1 - y0]
            total = line[s.x2 - x0 + 1] - line[s.x1 - x0]
            y = s.y1
            own = sum(1 for x, lo, hi in v_own.get(s.net, ())
                      if s.x1 <= x <= s.x2 and lo <= y <= hi)
        else:
            if s.y1 > s.y2:
                counts.append(0)
                continue
            i = s.x1 - x0
            total = h_down_col[s.y2 - y0 + 1][i] - h_down_col[s.y1 - y0][i]
            x = s.x1
            own = sum(1 for y, lo, hi in h_own.get(s.net, ())
                      if s.y1 <= y <= s.y2 and lo <= x <= hi)
        counts.append(total - own)
    return counts


def _windows(layout: Layout, w: int) -> Dict[Tuple[int, int], Dict[str, int]]:
    """Per-window wirelength by net, tiling the die with w x w windows.

    Windows are keyed in the order a left-to-right (bottom-to-top) walk
    along each segment first touches them.
    """
    out: Dict[Tuple[int, int], Dict[str, int]] = {}
    for seg in layout.segments:
        if seg.horizontal:
            lo, hi, fixed = seg.x1, seg.x2, seg.y1 // w
        else:
            lo, hi, fixed = seg.y1, seg.y2, seg.x1 // w
        if lo > hi:
            continue
        for k in range(lo // w, hi // w + 1):
            run = min(hi, k * w + w - 1) - max(lo, k * w) + 1
            key = (k, fixed) if seg.horizontal else (fixed, k)
            bucket = out.setdefault(key, {})
            bucket[seg.net] = bucket.get(seg.net, 0) + run
    return out

"""Independent brute-force oracles backing the derived test values.

Everything here recomputes results by definition-level search (all
reduction orders, all firing orders, full move closures, interval
arithmetic over Fractions), deliberately avoiding the package's optimized
code paths.
"""

from __future__ import annotations

import dataclasses
import itertools
import zlib
from collections import deque
from fractions import Fraction
from functools import lru_cache

from picturecalc.coeff import CyclicSpec, GraphProductWord, GroupElement, TrivialSpec
from picturecalc.coeff import coeff_serialize, trivial_system
from picturecalc.embed import QPRES, free_system, project_to_thompson, psi
from picturecalc.errors import CompositionError, ParseError
from picturecalc.moves import BallConfig
from picturecalc.picture import (
    Diagram,
    atom_linear,
    atom_permutation,
    atom_transistor,
    canonical_key,
    classify_kind,
    eps,
    invert,
    is_reduced,
    length,
    multiply,
    reduce,
    rel_sides,
    replace,
    rotate_bottom,
    sum_diagrams,
    top_down,
    with_bottom_ports,
)
from picturecalc.presentation import (
    MAX_WORD_LENGTH,
    SemigroupPresentation,
    serialize_presentation,
    validate_presentation,
)
from picturecalc.qmgraph import (
    Report,
    _base_carrier,
    _certified_geodesic_edges,
    _linear_edge_witness_ok,
    _UnionFind,
    enumerate_pins,
    hyperplanes,
)
from picturecalc.thompson import TreePair, forest_leaves, leaf_addresses, thompson_presentation


# -- coefficients, each built fresh ------------------------------------------------
# Every element is a new GroupElement, so no oracle runs the interned
# elements of `coeff` that it checks.

def identity_oracle(spec) -> GroupElement:
    return GroupElement(spec, 0 if isinstance(spec, CyclicSpec) else ())


def cyclic_element_oracle(spec, residue: int) -> GroupElement:
    return GroupElement(spec, residue % spec.order)


def nontrivial_elements_oracle(spec) -> list[GroupElement]:
    return [GroupElement(spec, r) for r in range(1, spec.order)]


def free_element_oracle(spec, word) -> GroupElement:
    return GroupElement(spec, naive_free_reduce(word))


def coeff_multiply_oracle(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise ValueError("coefficient spec mismatch")
    if isinstance(a.spec, CyclicSpec):
        return cyclic_element_oracle(a.spec, a.payload + b.payload)
    if isinstance(a.spec, TrivialSpec):
        return identity_oracle(a.spec)
    return free_element_oracle(a.spec, a.payload + b.payload)


# -- all reduction orders -------------------------------------------------------

def _dipoles_of(d: Diagram):
    out = []
    for t1 in d.transistors:
        conn = d.t_top[t1]
        site = d.wire_top[conn[0]]
        if site[0] != "TB" or site[2] != 0:
            continue
        t2 = site[1]
        if d.t_bot[t2] != conn:
            continue
        if any(not d.wires[w][1].is_identity() for w in conn):
            continue
        if tuple(d.wires[w][0] for w in d.t_top[t2]) != tuple(d.wires[w][0] for w in d.t_bot[t1]):
            continue
        out.append((t1, t2))
    return out


def _reduce_one(d: Diagram, pair) -> Diagram:
    """Reduce exactly the dipole `pair` of d (by id), definition-level."""
    t1, t2 = pair
    wires = dict(d.wires)
    transistors = dict(d.transistors)
    t_top = dict(d.t_top)
    t_bot = dict(d.t_bot)
    bottom = list(d.bottom_ports)
    wire_bot = dict(d.wire_bot)
    for w in t_top[t1]:
        del wires[w]
    for a, b in zip(t_top[t2], t_bot[t1]):
        la, ca = wires[a]
        _, cb = wires[b]
        wires[a] = (la, coeff_multiply_oracle(ca, cb))
        site = wire_bot[b]
        if site[0] == "FB":
            bottom[site[1]] = a
        else:
            _, tid, idx = site
            tup = list(t_top[tid])
            tup[idx] = a
            t_top[tid] = tuple(tup)
        del wires[b]
    for t in (t1, t2):
        del transistors[t], t_top[t], t_bot[t]
    return Diagram(d.pres, d.coeffs, wires, transistors, t_top, t_bot,
                   d.top_ports, tuple(bottom), d.annular)


def concat_oracle(d1: Diagram, d2: Diagram) -> Diagram:
    """d2 glued below d1 by definition: d2 relabelled past d1's ids, every
    dict merged, then each frame-top wire of d2 merged into the frame-bottom
    wire of d1 above it (the upper id kept, coefficients multiplied upper
    first), and the endpoint maps rebuilt by the public constructor."""
    if d1.pres != d2.pres or d1.coeffs != d2.coeffs:
        raise CompositionError("presentation or coefficient system mismatch")
    if d1.bot_word() != d2.top_word():
        raise CompositionError("boundary mismatch")
    w_off = (max(d1.wires) if d1.wires else 0) + 1
    t_off = (max(d1.transistors) if d1.transistors else 0) + 1
    wires = dict(d1.wires)
    wires.update({w + w_off: v for w, v in d2.wires.items()})
    transistors = dict(d1.transistors)
    transistors.update({t + t_off: v for t, v in d2.transistors.items()})
    t_top = dict(d1.t_top)
    t_top.update({t + t_off: tuple(w + w_off for w in tup) for t, tup in d2.t_top.items()})
    t_bot = dict(d1.t_bot)
    t_bot.update({t + t_off: tuple(w + w_off for w in tup) for t, tup in d2.t_bot.items()})
    top2 = tuple(w + w_off for w in d2.top_ports)
    bottom2 = tuple(w + w_off for w in d2.bottom_ports)
    merged: dict[int, int] = {}
    for upper, lower in zip(d1.bottom_ports, top2):
        lu, cu = wires[upper]
        wires[upper] = (lu, coeff_multiply_oracle(cu, wires[lower][1]))
        merged[lower] = upper
        del wires[lower]
    for t in d2.t_bot:
        t_top[t + t_off] = tuple(merged.get(w, w) for w in t_top[t + t_off])
    return Diagram(d1.pres, d1.coeffs, wires, transistors, t_top, t_bot,
                   d1.top_ports, tuple(merged.get(w, w) for w in bottom2),
                   d1.annular or d2.annular)


def reduce_all_orders(d: Diagram) -> set[str]:
    """Exact keys of the results of every maximal reduction sequence."""
    dips = _dipoles_of(d)
    if not dips:
        return {canonical_key(d)}
    out = set()
    for pair in dips:
        out |= reduce_all_orders(_reduce_one(d, pair))
    return out


def count_dipoles(d: Diagram) -> int:
    return len(_dipoles_of(d))


def reduce_oracle(d: Diagram, rng=None) -> Diagram:
    """Reduce the first dipole until none is left, one copy per step; with
    `rng`, a dipole drawn at random from the list at each step."""
    while True:
        dips = _dipoles_of(d)
        if not dips:
            return d
        d = _reduce_one(d, dips[rng.randrange(len(dips)) if rng else 0])


# -- key text by definition ---------------------------------------------------------

def _numbering_oracle(d: Diagram) -> tuple[dict[int, int], dict[int, int]]:
    """Wire and transistor numbers of a deque BFS from the frame top:
    transistors at first visit, wires at discovery."""
    worder: dict[int, int] = {}
    torder: dict[int, int] = {}
    queue: deque[int] = deque()

    def disc(w: int):
        if w not in worder:
            worder[w] = len(worder)
            queue.append(w)

    for w in d.top_ports:
        disc(w)
    while queue:
        w = queue.popleft()
        for site in (d.wire_bot[w], d.wire_top[w]):
            if site[0] in ("TT", "TB"):
                tid = site[1]
                if tid not in torder:
                    torder[tid] = len(torder)
                    for w2 in d.t_top[tid]:
                        disc(w2)
                    for w2 in d.t_bot[tid]:
                        disc(w2)
    return worder, torder


def key_text_oracle(d: Diagram, mode: str = "exact") -> str:
    """The canonical key spelled out from `_numbering_oracle`: the bottom
    sequence is the bottom-port numbers (sorted in class mode); wires and
    transistors are listed by sorting on their numbers; the tag is the
    CRC-32 of the configuration's repr."""
    worder, torder = _numbering_oracle(d)
    bottom = [worder[w] for w in d.bottom_ports]
    if mode == "class":
        bottom.sort()
    parts = [
        "a" if d.annular else "p",
        f"{zlib.crc32(repr((d.pres, d.coeffs)).encode()):08x}",
        "B" + ",".join(map(str, bottom)),
    ]
    wire_items = sorted(((i, w) for w, i in worder.items()))
    parts.append("W" + ";".join(
        f"{d.wires[w][0]}:{coeff_serialize(d.wires[w][1])}" for _, w in wire_items))
    trans_items = sorted(((i, t) for t, i in torder.items()))
    parts.append("T" + ";".join(
        f"{d.transistors[t][0]}:{d.transistors[t][1]}:"
        f"{','.join(str(worder[w]) for w in d.t_top[t])}:"
        f"{','.join(str(worder[w]) for w in d.t_bot[t])}"
        for _, t in trans_items))
    return "|".join(parts)


def class_key_oracle(d: Diagram, geometry: str) -> str:
    """Key of the vertex class of d by definition: the least exact key over
    the rotations (annular), the class key (braided), the exact key (planar)."""
    if geometry == "annular":
        return min(key_text_oracle(rotate_bottom(d, k)) for k in range(len(d.bottom_ports)))
    return key_text_oracle(d, "class" if geometry == "braided" else "exact")


def class_rep_oracle(d: Diagram, geometry: str) -> Diagram:
    """A member of [d] whose exact key is the class key of d: bottom ports
    in BFS-number order (braided), the first least rotation (annular), d
    itself (planar)."""
    if geometry == "annular":
        keys = [key_text_oracle(rotate_bottom(d, k)) for k in range(len(d.bottom_ports))]
        return rotate_bottom(d, keys.index(min(keys)))
    if geometry == "braided":
        worder = _numbering_oracle(d)[0]
        return with_bottom_ports(d, tuple(sorted(d.bottom_ports, key=worder.__getitem__)))
    return d


# -- pins by class keys -----------------------------------------------------------

def _pin_oracle(rep: Diagram, position: int, coeffs, geometry: str):
    """Class keys of the pin through [rep] at a bottom position: the wire
    there takes every value of its group."""
    wid = rep.bottom_ports[position]
    letter = rep.wires[wid][0]
    spec = coeffs.spec(letter)
    keys = []
    for value in [identity_oracle(spec)] + nontrivial_elements_oracle(spec):
        wires = dict(rep.wires)
        wires[wid] = (letter, value)
        keys.append(class_key_oracle(replace(rep, wires=wires), geometry))
    return frozenset(keys), letter


def pins_oracle(g) -> list[tuple[frozenset[str], str, bool]]:
    """All pins meeting the ball g, as (frozenset of class keys, letter,
    complete), in order of first meeting by vertex, then bottom position."""
    in_ball = {v.key for v in g.vertices}
    seen: dict[frozenset, tuple[str, bool]] = {}
    for v in g.vertices:
        for position, wid in enumerate(v.rep.bottom_ports):
            if nontrivial_elements_oracle(g.cfg.coeffs.spec(v.rep.wires[wid][0])):
                pin, letter = _pin_oracle(v.rep, position, g.cfg.coeffs, g.geometry)
                seen.setdefault(pin, (letter, pin <= in_ball))
    return [(pin, letter, complete) for pin, (letter, complete) in seen.items()]


# -- the quasi-median checks by adjacency-set intersections ------------------------
# Each common-neighbour set intersected from the adjacency sets where it is
# needed, the K3,2 test and the induced squares over every vertex pair.

def triangles_oracle(g, margin: int | None = None) -> list[tuple[int, int, int]]:
    """(i, j, k) with i < j < k pairwise adjacent, all within the margin,
    per edge (i, j) in edge order."""
    lim = g.radius if margin is None else margin
    out = []
    for (i, j) in g.edges:
        if g.depth(i) > lim or g.depth(j) > lim:
            continue
        for k in sorted(g.adj[i] & g.adj[j]):
            if k > j and g.depth(k) <= lim:
                out.append((i, j, k))
    return out


def induced_squares_oracle(g) -> list[tuple[int, int, int, int]]:
    """(a, b, c, d) with edges ab, bc, cd, da and non-edges ac, bd."""
    out = []
    n = len(g.vertices)
    for a in range(n):
        for c in range(a + 1, n):
            if c in g.adj[a]:
                continue
            for b, d in itertools.combinations(sorted(g.adj[a] & g.adj[c]), 2):
                if d not in g.adj[b]:
                    out.append((a, b, c, d))
    return out


def qm_axioms_oracle(g) -> tuple[int, int, list, bool]:
    """(checked, skipped, violations, triangle_free) of the triangle and
    quadrangle conditions and the forbidden K4- and K3,2, premises limited
    to radius - 1 as in `verify_qm_axioms`."""
    checked, skipped, violations = 0, 0, []
    inner = [i for i in range(len(g.vertices)) if g.depth(i) <= g.radius - 1]
    inner_set = set(inner)
    n = len(g.vertices)
    for (v, w) in g.edges:
        if v not in inner_set or w not in inner_set:
            skipped += 1
            continue
        commons = g.adj[v] & g.adj[w]
        for u in range(n):
            k = g.distance(u, v)
            if k != g.distance(u, w) or u == v or u == w:
                continue
            checked += 1
            if not any(g.distance(u, x) == k - 1 for x in commons):
                violations.append(("triangle", u, v, w))
    for z in range(n):
        for v, w in itertools.combinations(sorted(g.adj[z]), 2):
            if v not in inner_set or w not in inner_set:
                skipped += 1
                continue
            if w in g.adj[v]:
                continue
            commons = (g.adj[v] & g.adj[w]) - {z}
            for u in range(n):
                k = g.distance(u, z)
                if g.distance(u, v) != k - 1 or g.distance(u, w) != k - 1:
                    continue
                checked += 1
                if not any(g.distance(u, x) == k - 2 for x in commons):
                    violations.append(("quadrangle", u, z, v, w))
    for (a, b) in g.edges:
        if a not in inner_set or b not in inner_set:
            continue
        checked += 1
        for c, d in itertools.combinations(sorted(g.adj[a] & g.adj[b] & inner_set), 2):
            if d not in g.adj[c]:
                violations.append(("K4-", a, b, c, d))
    for a in inner:
        for b in inner:
            if b <= a or b in g.adj[a]:
                continue
            commons = sorted(g.adj[a] & g.adj[b] & inner_set)
            if len(commons) < 3:
                continue
            checked += 1
            for c, d, e in itertools.combinations(commons, 3):
                if d not in g.adj[c] and e not in g.adj[c] and e not in g.adj[d]:
                    violations.append(("K3,2", a, b, c, d, e))
    return checked, skipped, violations, not triangles_oracle(g)


def linear_edge_witness_oracle(g, i: int, j: int) -> bool:
    """Whether one linear move at a bottom position of [i]'s representative
    gives [j]: [D.(U+eps(l,g))] vs [D.(U+eps(l,h))]."""
    u = g.vertices[i].rep
    for wid in u.bottom_ports:
        letter, c = u.wires[wid]
        for gval in nontrivial_elements_oracle(g.cfg.coeffs.spec(letter)):
            wires = dict(u.wires)
            wires[wid] = (letter, coeff_multiply_oracle(c, gval))
            if class_key_oracle(replace(u, wires=wires), g.geometry) == g.vertices[j].key:
                return True
    return False


# -- the pin and hyperplane reports by scans ---------------------------------------
# Each vertex pair's pins and each edge's hyperplane found again where needed:
# a linear hyperplane's carriers by a scan over every complete pin, the
# crossings by a scan of every certified geodesic per hyperplane, and the pin
# pairs, triangles and linear edges of `pins_report` by scans over all
# complete pins.

def linear_carriers_oracle(g, J) -> list[frozenset[int]]:
    """The complete pins with an edge in the linear hyperplane J, in pin order."""
    member_set = set(J.member_edges)
    return [pin for pin, _, complete in enumerate_pins(g)
            if complete and any(e in member_set for e in itertools.combinations(sorted(pin), 2))]


def pins_report_oracle(g) -> Report:
    """`pins_report`, each pin pair, triangle and linear edge tested against
    every complete pin."""
    rep = Report("pins")
    complete = []
    for pin, letter, is_complete in enumerate_pins(g):
        if not is_complete:
            rep.skipped += 1
            continue
        size = g.cfg.coeffs.spec(letter).order
        rep.hit()
        if len(pin) != size:
            rep.fail(("pin_size", letter, len(pin), size))
        complete.append(pin)
        for a in pin:
            for b in pin:
                if a < b and b not in g.adj[a]:
                    rep.fail(("pin_not_clique", a, b))
    for p, q in itertools.combinations(complete, 2):
        rep.hit()
        if len(p & q) > 1:
            rep.fail(("pin_intersection", sorted(p & q)))
    margin = g.radius - 1
    for (a, b, c) in g.triangles(margin):
        rep.hit()
        if not any({a, b, c} <= pin for pin in complete):
            rep.fail(("triangle_outside_pins", a, b, c))
    for (i, j), (kind, _) in g.edges.items():
        if kind != "linear":
            continue
        rep.hit()
        if not any(i in pin and j in pin for pin in complete):
            if g.depth(i) <= margin and g.depth(j) <= margin:
                rep.fail(("linear_edge_outside_pins", i, j))
            else:
                rep.skipped += 1
    rep.details["pin_count"] = len(complete)
    rep.details["max_pin_size"] = max((len(p) for p in complete), default=0)
    return rep


def hyperplanes_report_oracle(g) -> Report:
    """`hyperplanes_report` over `hyperplanes(g)`, with each hyperplane's
    member edges as a set: its sectors join every other edge, every certified
    geodesic is scanned for its crossings, and a linear hyperplane's carriers
    come from `linear_carriers_oracle`."""
    rep = Report("hyperplanes")
    margin = g.radius - 2
    hyps = hyperplanes(g)
    rep.details["count"] = len(hyps)
    rep.details["interior"] = sum(1 for J in hyps if J.interior)
    geodesics = _certified_geodesic_edges(g, rep)
    inner = g.within(margin)
    for J in hyps:
        if J.kind == "mixed":
            rep.fail(("mixed_kind_hyperplane", J.hid))
        if not J.interior:
            rep.skipped += 1
            continue
        member_set = set(J.member_edges)
        if J.kind == "linear":
            J = dataclasses.replace(J, carrier_cliques=linear_carriers_oracle(g, J))
        carrier = _base_carrier(g, J)
        comp = _UnionFind(range(len(g.vertices)))
        for (i, j) in g.edges:
            if (i, j) not in member_set:
                comp.union(i, j)
        gates: dict[int, int] = {}
        gate_ok = True
        for x in range(len(g.vertices)):
            dists = sorted((g.distance(c, x), c) for c in carrier)
            if len(dists) > 1 and dists[0][0] == dists[1][0]:
                rep.fail(("gate_not_unique", J.hid, x, sorted(carrier)))
                gate_ok = False
                continue
            gates[x] = dists[0][1]
        rep.hit()
        if gate_ok:
            for x, y in itertools.combinations(inner, 2):
                same_comp = comp.find(x) == comp.find(y)
                same_fiber = gates[x] == gates[y]
                if same_comp and not same_fiber:
                    rep.fail(("sector_mismatch", J.hid, x, y))
                elif same_fiber and not same_comp:
                    rep.inconclusive.append(("sector_truncated", J.hid, x, y))
        for x, y, path_edges in geodesics:
            crossings = sum(1 for e in path_edges if e in member_set)
            rep.hit()
            if crossings > 1:
                rep.fail(("double_crossing", J.hid, x, y, crossings))
        if J.kind == "linear":
            for (i, j) in J.member_edges:
                rep.hit()
                if not _linear_edge_witness_ok(g, i, j):
                    rep.fail(("linear_edge_form", J.hid, i, j))
    return rep


def bfs_distances_oracle(g, start: int) -> list[int | None]:
    """Edge-path distances from start inside the ball g, by breadth-first
    search (None for a vertex the ball's edges do not reach)."""
    out: list[int | None] = [None] * len(g.vertices)
    out[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for i in frontier:
            for j in g.adj[i]:
                if out[j] is None:
                    out[j] = d
                    nxt.append(j)
        frontier = nxt
    return out


# -- distance by the product formula ---------------------------------------------

def pair_distance_oracle(a, b) -> int:
    """d([A],[B]) = length(A^-1 . B), with the product built and reduced."""
    return length(multiply(invert(a.rep), b.rep))


def pair_distance_matching_oracle(a, b) -> int:
    """length(A^-1 . B) by matching the reduced A and B from the frame top:
    port i of A is mated with port i of B, and a transistor of A cancels
    with one of B when their top wires are mated slot by slot with equal
    coefficients and their bottom label words agree, which mates their
    bottom wires in turn.  A mated pair (w, m) takes [w in N_A] + [m in N_B]
    - [c_w != c_m] off |N_A| + |N_B|, N the wires with a nontrivial
    coefficient; the term is 0 unless both are in N."""
    da, db = reduce_oracle(a.rep), reduce_oracle(b.rep)
    if da.top_word() != db.top_word():
        raise CompositionError("vertices live over different basewords")
    if da.pres != db.pres or da.coeffs != db.coeffs:
        raise CompositionError("presentation or coefficient system mismatch")
    na = {w for w, (_, c) in da.wires.items() if not c.is_identity()}
    nb = {w for w, (_, c) in db.wires.items() if not c.is_identity()}
    a_wires, b_wires = da.wires, db.wires
    a_bot, b_bot = da.wire_bot, db.wire_bot
    a_top, b_top = da.t_top, db.t_top
    mate = dict(zip(da.top_ports, db.top_ports))
    unmated_tops = {}
    cancelled = 0
    stack = list(da.top_ports)
    while stack:
        site = a_bot[stack.pop()]
        if site[0] != "TT":
            continue
        ta = site[1]
        left = unmated_tops.get(ta, len(a_top[ta])) - 1
        unmated_tops[ta] = left
        if left:
            continue
        tops = a_top[ta]
        mates = tuple(mate[w] for w in tops)
        first = b_bot[mates[0]]
        if first[0] != "TT" or b_top[first[1]] != mates:
            continue
        tb = first[1]
        if any(a_wires[w][1] != b_wires[m][1] for w, m in zip(tops, mates)):
            continue
        a_lower, b_lower = da.t_bot[ta], db.t_bot[tb]
        if (tuple(a_wires[w][0] for w in a_lower)
                != tuple(b_wires[w][0] for w in b_lower)):
            continue
        cancelled += 1
        for wa, wb in zip(a_lower, b_lower):
            mate[wa] = wb
            stack.append(wa)
    nontrivial = len(na) + len(nb)
    for w in na:
        m = mate.get(w)
        if m in nb:
            nontrivial -= 2 - (a_wires[w][1] != b_wires[m][1])
    return len(da.transistors) + len(db.transistors) - 2 * cancelled + nontrivial


# -- backtracking embeddability (planar / annular) ------------------------------

def planar_embeddable(d: Diagram) -> bool:
    """Try every firing order (not just the greedy one)."""

    def go(cut: tuple, unfired: frozenset) -> bool:
        if not unfired:
            return cut == d.bottom_ports
        pos = {w: i for i, w in enumerate(cut)}
        for tid in unfired:
            tt = d.t_top[tid]
            i0 = pos.get(tt[0])
            if i0 is None:
                continue
            if all(pos.get(w) == i0 + j for j, w in enumerate(tt)):
                new = cut[:i0] + d.t_bot[tid] + cut[i0 + len(tt):]
                if go(new, unfired - {tid}):
                    return True
        return False

    return go(d.top_ports, frozenset(d.transistors))


def annular_embeddable(d: Diagram) -> bool:
    def go(cut: tuple, unfired: frozenset) -> bool:
        n = len(cut)
        if not unfired:
            target = d.bottom_ports
            return any(cut[k:] + cut[:k] == target for k in range(n))
        pos = {w: i for i, w in enumerate(cut)}
        for tid in unfired:
            tt = d.t_top[tid]
            if len(tt) > n:
                continue
            i0 = pos.get(tt[0])
            if i0 is None:
                continue
            if all(pos.get(w) == (i0 + j) % n for j, w in enumerate(tt)):
                rotated = cut[i0:] + cut[:i0]
                new = d.t_bot[tid] + rotated[len(tt):]
                if go(new, unfired - {tid}):
                    return True
        return False

    return go(d.top_ports, frozenset(d.transistors))


def classify_geometry_oracle(d: Diagram) -> str:
    if planar_embeddable(d):
        return "planar"
    if annular_embeddable(d):
        return "annular_not_planar"
    return "braided_only"


# -- free group naive reduction --------------------------------------------------

def naive_free_reduce(word):
    """Concatenate-then-scan until no adjacent cancelling pair remains."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            g, s = word[i]
            h, t = word[i + 1]
            if g == h and s == -t:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


# -- graph product move closure ---------------------------------------------------

def gp_move_closure(w: GraphProductWord) -> set[tuple]:
    """Closure of the syllable sequence under cancellation, amalgamation and
    shuffling; words as tuples of (vertex, serialized element)."""
    graph = w.graph

    def freeze(sylls):
        return tuple((v, coeff_serialize(g)) for v, g in sylls)

    seen = {}
    start = tuple(w.syllables)
    frontier = [start]
    seen[freeze(start)] = start
    while frontier:
        cur = frontier.pop()
        n = len(cur)
        nexts = []
        for i in range(n):
            if cur[i][1].is_identity():
                nexts.append(cur[:i] + cur[i + 1:])
        for i in range(n - 1):
            (u, g), (v, h) = cur[i], cur[i + 1]
            if u == v:
                nexts.append(cur[:i] + ((u, coeff_multiply_oracle(g, h)),) + cur[i + 2:])
            elif graph.adjacent(u, v):
                nexts.append(cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:])
        for nxt in nexts:
            k = freeze(nxt)
            if k not in seen:
                seen[k] = nxt
                frontier.append(nxt)
    return set(seen)


def gp_reduced_forms(w: GraphProductWord) -> set[tuple]:
    closure = gp_move_closure(w)
    m = min(len(x) for x in closure)
    return {x for x in closure if len(x) == m}


def gp_equal_oracle(w1: GraphProductWord, w2: GraphProductWord) -> bool:
    return bool(gp_reduced_forms(w1) & gp_reduced_forms(w2))


def gp_heads_oracle(w: GraphProductWord) -> set:
    """First syllables over all minimal-length members of the move closure."""
    forms = gp_reduced_forms(w)
    return {f[0] for f in forms if f}


# -- tree pair evaluation via interval arithmetic --------------------------------

def leaf_intervals(forest, arity, lo=Fraction(0), hi=Fraction(1)):
    """Left-to-right [a,b) leaf intervals of an n-ary forest on [lo,hi)."""
    roots = len(forest)
    out = []
    width = (hi - lo) / roots
    for i, tree in enumerate(forest):
        out.extend(_tree_intervals(tree, arity, lo + i * width, lo + (i + 1) * width))
    return out


def _tree_intervals(tree, arity, lo, hi):
    if tree == ():
        return [(lo, hi)]
    out = []
    width = (hi - lo) / arity
    for i, child in enumerate(tree):
        out.extend(_tree_intervals(child, arity, lo + i * width, lo + (i + 1) * width))
    return out


def evaluate_oracle(pair, q: Fraction) -> Fraction:
    """Map q through the pair by direct interval arithmetic: image leaf
    pi(i) is sent affinely onto domain leaf i."""
    dom = leaf_intervals(pair.domain, pair.arity)
    img = leaf_intervals(pair.image, pair.arity)
    for i, j in enumerate(pair.perm):
        a, b = img[j]
        if a <= q < b:
            c, d = dom[i]
            return c + (q - a) * (d - c) / (b - a)
    raise ValueError(f"{q} not in [0,1)")


# -- verbatim neighbor enumeration ------------------------------------------------

def _all_perms_for_geometry(n, geometry):
    if geometry == "planar":
        yield tuple(range(n))
    elif geometry == "annular":
        for k in range(n):
            yield tuple((i + k) % n for i in range(n))
    else:
        yield from itertools.permutations(range(n))


def neighbor_keys_oracle(rep, cfg):
    """Definition-level neighbors of [rep]: all geometry permutation diagrams P,
    all unitary atoms U, keys of reduce(rep o P o U)."""
    out = set()
    pres, coeffs, geometry = cfg.pres, cfg.coeffs, cfg.geometry
    botword = rep.bot_word()
    n = len(botword)
    me = class_key_oracle(rep, geometry)
    for sigma in _all_perms_for_geometry(n, geometry):
        p = atom_permutation(pres, coeffs, botword, sigma, annular=rep.annular)
        base = concat_oracle(rep, p)
        word = base.bot_word()
        for rel_index in range(len(pres.relations)):
            for direction in (1, -1):
                consumed, produced = rel_sides(pres, rel_index, direction)
                if n - len(consumed) + len(produced) > cfg.max_width:
                    continue
                k = len(consumed)
                for i0 in range(n - k + 1):
                    if word[i0:i0 + k] != consumed:
                        continue
                    atom = atom_transistor(pres, coeffs, word[:i0], rel_index,
                                           direction, word[i0 + k:], annular=rep.annular)
                    key = class_key_oracle(reduce_oracle(concat_oracle(base, atom)), geometry)
                    if key != me:
                        out.add(key)
        for i0, letter in enumerate(word):
            spec = coeffs.spec(letter)
            if isinstance(spec, TrivialSpec):
                continue
            for g in nontrivial_elements_oracle(spec):
                atom = atom_linear(pres, coeffs, word, i0, g, annular=rep.annular)
                key = class_key_oracle(reduce_oracle(concat_oracle(base, atom)), geometry)
                if key != me:
                    out.add(key)
    return out


# -- ball and random walks with every neighbour built ----------------------------

def _feed_positions_oracle(word, consumed, geometry):
    """Ordered position tuples spelling `consumed`, lexicographically:
    any distinct positions (braided), a cyclic block (annular), a block
    (planar)."""
    n, k = len(word), len(consumed)
    for pos in itertools.permutations(range(n), k):
        if tuple(word[p] for p in pos) != consumed:
            continue
        if geometry == "planar" and pos != tuple(range(pos[0], pos[0] + k)):
            continue
        if geometry == "annular" and pos != tuple((pos[0] + j) % n for j in range(k)):
            continue
        yield pos


def moves_oracle(rep: Diagram, cfg):
    """Every unitary move from rep as (unreduced result, kind, witness), in
    the enumeration order of the package, each result built as rep . P . U
    from atoms: P puts the fed wires where the geometry puts the atom's
    transistor (after the rest, braided; first, annular; in place,
    planar)."""
    pres, coeffs, geometry = cfg.pres, cfg.coeffs, cfg.geometry
    word = rep.bot_word()
    n = len(word)
    for rel_index in range(len(pres.relations)):
        for direction in (1, -1):
            consumed, produced = rel_sides(pres, rel_index, direction)
            if n - len(consumed) + len(produced) > cfg.max_width:
                continue
            for pos in _feed_positions_oracle(word, consumed, geometry):
                if geometry == "planar":
                    base, a, b = rep, word[:pos[0]], word[pos[0] + len(pos):]
                else:
                    if geometry == "braided":
                        rest = tuple(i for i in range(n) if i not in pos)
                        order = rest + pos
                    else:
                        order = tuple((pos[0] + j) % n for j in range(n))
                        rest = order[len(pos):]
                    perm = [0] * n
                    for new, old in enumerate(order):
                        perm[old] = new
                    base = concat_oracle(rep, atom_permutation(pres, coeffs, word, perm,
                                                               annular=rep.annular))
                    rest_word = tuple(word[i] for i in rest)
                    a, b = (rest_word, ()) if geometry == "braided" else ((), rest_word)
                atom = atom_transistor(pres, coeffs, a, rel_index, direction, b,
                                       annular=rep.annular)
                yield concat_oracle(base, atom), "transistor", (rel_index, direction, pos)
    for i, letter in enumerate(word):
        spec = coeffs.spec(letter)
        if isinstance(spec, TrivialSpec):
            continue
        for g in nontrivial_elements_oracle(spec):
            atom = atom_linear(pres, coeffs, word, i, g, annular=rep.annular)
            yield concat_oracle(rep, atom), "linear", (letter, g)


def length_oracle(d: Diagram) -> int:
    r = reduce_oracle(d)
    return len(r.transistors) + sum(1 for _, c in r.wires.values() if not c.is_identity())


def bfs_oracle(base: Diagram, radius: int, cfg):
    """The ball by breadth-first search that builds, reduces and keys every
    neighbour of every vertex, the outermost shell included; returns (reps,
    depths, edges) like `bfs_classes`."""
    geometry = cfg.geometry
    root = reduce_oracle(base)
    if geometry == "annular" and not root.annular:
        root = Diagram(root.pres, root.coeffs, root.wires, root.transistors, root.t_top,
                       root.t_bot, root.top_ports, root.bottom_ports, True)
    root = class_rep_oracle(root, geometry)
    index = {class_key_oracle(root, geometry): 0}
    reps, depths, edges = [root], [0], {}

    def neighbours(i):
        for raw, kind, witness in moves_oracle(reps[i], cfg):
            out = reduce_oracle(raw)
            key = class_key_oracle(out, geometry)
            yield key, index.get(key), out, kind, witness

    frontier = [0]
    for depth in range(1, radius + 1):
        found = {}
        for i in frontier:
            for key, j, out, kind, witness in neighbours(i):
                if j is None:
                    found.setdefault(key, (out, i, kind, witness))
                elif j != i:
                    edges.setdefault((min(i, j), max(i, j)), (kind, witness))
        for key in sorted(found):
            out, parent, kind, witness = found[key]
            index[key] = len(reps)
            edges.setdefault((parent, len(reps)), (kind, witness))
            reps.append(class_rep_oracle(out, geometry))
            depths.append(depth)
        frontier = [i for i in range(len(reps)) if depths[i] == depth]
        if not frontier:
            break
    for i in frontier:
        for key, j, out, kind, witness in neighbours(i):
            if j is not None and j != i:
                edges.setdefault((min(i, j), max(i, j)), (kind, witness))
    return reps, depths, edges


def walk_oracle(d: Diagram, steps: int, rng, cfg) -> Diagram:
    """The sampler's random walk with every neighbour built and reduced
    before one is drawn."""
    for _ in range(steps):
        options = [reduce_oracle(raw) for raw, _, _ in moves_oracle(d, cfg)]
        if not options:
            break
        d = options[rng.randrange(len(options))]
    return d


def random_unreduced_oracle(base: Diagram, transistor_budget: int, rng, cfg) -> Diagram:
    """`random_unreduced` with every unreduced neighbour built before one
    is drawn."""
    d, placed = base, 0
    while placed < transistor_budget:
        options = list(moves_oracle(d, cfg))
        if not options:
            break
        d, kind, _ = options[rng.randrange(len(options))]
        if kind == "transistor":
            placed += 1
    return d


def random_element_oracle(pres, coeffs, w, rng, geometry: str = "braided", steps: int = 4,
                          attempts: int = 60, max_width: int = 12) -> Diagram:
    """`random_element` with every walk built by `walk_oracle` from a fresh
    base, the rejected ones too, and glued with `concat_oracle`."""
    w, cfg = tuple(w), BallConfig(pres, coeffs, geometry, max_width)
    annular = geometry == "annular"
    a = walk_oracle(eps(pres, coeffs, w, annular=annular), steps, rng, cfg)
    u = a.bot_word()
    for _ in range(attempts):
        b = walk_oracle(eps(pres, coeffs, w, annular=annular), rng.randrange(steps + 2), rng, cfg)
        sigma = boundary_match_oracle(u, b.bot_word(), geometry)
        if sigma is not None:
            align = atom_permutation(pres, coeffs, u, sigma, annular=annular)
            return reduce_oracle(concat_oracle(concat_oracle(a, align), invert(b)))
    sigma = boundary_symmetry_oracle(u, geometry)
    if sigma is not None:
        mid = atom_permutation(pres, coeffs, u, sigma, annular=annular)
        return reduce_oracle(concat_oracle(concat_oracle(a, mid), invert(a)))
    return reduce_oracle(concat_oracle(a, invert(a)))


# -- tree pairs: the rescanning caret cancellation -----------------------------------

def forest_diagram_oracle(forest, pres, coeffs) -> Diagram:
    """One positive caret atom glued below per internal node, in preorder,
    at the bottom position of the node's leftmost leaf."""
    d = eps(pres, coeffs, ("x",) * len(forest))
    for i, (_, addr) in enumerate(leaf_addresses(forest)):
        depth = len(addr)
        while depth and addr[depth - 1] == 0:
            depth -= 1
            rest = ("x",) * (len(d.bottom_ports) - i - 1)
            d = concat_oracle(d, atom_transistor(pres, coeffs, ("x",) * i, 0, 1, rest))
    return d


def tree_pair_to_diagram_oracle(tp: TreePair) -> Diagram:
    """Domain forest, leaf bijection and inverted image forest, glued."""
    pres = thompson_presentation(tp.arity)
    coeffs = trivial_system(pres.alphabet)
    link = atom_permutation(pres, coeffs, ("x",) * len(tp.perm), tp.perm)
    bot = invert(forest_diagram_oracle(tp.image, pres, coeffs))
    return concat_oracle(concat_oracle(forest_diagram_oracle(tp.domain, pres, coeffs), link), bot)


def _caret_sites_oracle(forest, arity: int):
    """(root, address, leftmost leaf index) of each all-leaf internal node."""
    out = []
    idx = 0
    for r, t in enumerate(forest):
        stack = [(t, ())]
        while stack:
            tree, addr = stack.pop()
            if not tree:
                idx += 1
            elif not any(tree):
                out.append((r, addr, idx))
                idx += len(tree)
            else:
                for i in range(len(tree) - 1, -1, -1):
                    stack.append((tree[i], addr + (i,)))
    return out


def _replace_oracle(forest, root: int, addr, sub):
    path = []
    t = forest[root]
    for i in addr:
        path.append(t)
        t = t[i]
    for node, i in zip(reversed(path), reversed(addr)):
        sub = node[:i] + (sub,) + node[i + 1:]
    return forest[:root] + (sub,) + forest[root + 1:]


def reduce_pair_oracle(tp: TreePair) -> TreePair:
    """Cancel one matched caret pair per pass, rescanning both forests from
    the start after each cancellation."""
    n = tp.arity
    while True:
        image_carets = {leftmost: (root, addr)
                        for root, addr, leftmost in _caret_sites_oracle(tp.image, n)}
        hit = None
        for root, addr, i in _caret_sites_oracle(tp.domain, n):
            j = tp.perm[i]
            if all(tp.perm[i + t] == j + t for t in range(n)) and j in image_carets:
                hit = (root, addr, i, j)
                break
        if hit is None:
            return tp
        root, addr, i, j = hit
        iroot, iaddr = image_carets[j]
        domain = _replace_oracle(tp.domain, root, addr, ())
        image = _replace_oracle(tp.image, iroot, iaddr, ())
        perm = []
        for k in range(forest_leaves(tp.domain)):
            if i < k < i + n:
                continue
            v = tp.perm[k]
            perm.append(v - (n - 1) if v > j else v)
        tp = TreePair(n, domain, image, tuple(perm))


def _fold(forest, leaf, node) -> list:
    """The values of a forest's roots, folded bottom-up without recursion:
    leaf(i) at leaf i, node(the children's values) at an internal node."""
    done: list = []
    i = 0
    stack = list(reversed(forest))
    while stack:
        t = stack.pop()
        if type(t) is int:  # the node's t children are done
            kids = done[-t:]
            del done[-t:]
            done.append(node(kids))
        elif t:
            stack.append(len(t))
            stack.extend(reversed(t))
        else:
            done.append(leaf(i))
            i += 1
    return done


def reduce_pair_fold_oracle(tp: TreePair) -> TreePair:
    """Every cancellation decided in one bottom-up pass over the domain,
    tp itself when no caret pair matches.  Each node is named by its leaf
    interval (lo, hi), which no other node of its forest shares (an
    internal node has at least two children): a domain leaf collapses onto
    the image leaf the bijection sends it to, and a domain node onto an
    image node when its children collapse, in order, onto that node's
    children.  The collapsed nodes whose parents stay are the leaves of
    the reduced pair.  Linear, so it checks pairs too large for the
    rescanning `reduce_pair_oracle`."""
    n, perm = tp.arity, tp.perm
    image_carets = {leftmost for _, _, leftmost in _caret_sites_oracle(tp.image, n)}
    if not any(perm[i] in image_carets and all(perm[i + k] == perm[i] + k for k in range(1, n))
               for _, _, i in _caret_sites_oracle(tp.domain, n)):
        return tp
    children: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def image_node(kids):
        children[kids[0][0], kids[-1][1]] = kids
        return kids[0][0], kids[-1][1]

    _fold(tp.image, lambda i: (i, i + 1), image_node)
    mated: list[tuple[int, tuple[int, int]]] = []  # (domain lo, image span) per new leaf

    def domain_node(kids):  # kids: (image span or None, rebuilt tree, domain lo)
        spans = [k[0] for k in kids]
        if None not in spans and children.get((spans[0][0], spans[-1][1])) == spans:
            return (spans[0][0], spans[-1][1]), (), kids[0][2]
        mated.extend([(k[2], k[0]) for k in kids if k[0] is not None])
        return None, tuple([k[1] for k in kids]), kids[0][2]

    roots = _fold(tp.domain, lambda i: ((perm[i], perm[i] + 1), (), i), domain_node)
    mated.extend([(r[2], r[0]) for r in roots if r[0] is not None])
    leaves = {span for _, span in mated}

    def image_cut(kids):  # kids: (span, rebuilt tree)
        span = (kids[0][0][0], kids[-1][0][1])
        return span, () if span in leaves else tuple([k[1] for k in kids])

    image = _fold(tp.image, lambda i: ((i, i + 1), ()), image_cut)
    rank = {span: j for j, span in enumerate(sorted(leaves))}
    return TreePair(n, tuple([r[1] for r in roots]), tuple([r[1] for r in image]),
                    tuple([rank[span] for _, span in sorted(mated)]))


def _subtree_oracle(forest, root: int, addr):
    t = forest[root]
    for i in addr:
        t = t[i]
    return t


def _merge_forest_oracle(f1, f2):
    """The least common refinement: each leaf of f1 that is a node of f2
    gets f2's subtree there."""
    out = f1
    for root, addr in leaf_addresses(f1):
        t = f2[root]
        for i in addr:
            if not t:
                break
            t = t[i]
        if t:
            out = _replace_oracle(out, root, addr, t)
    return out


def _expand_oracle(other, fixed, to_fixed, refined):
    """`other`, one side of a pair, with each leaf i grown by the subtree of
    `refined` (a refinement of the other side, `fixed`) at fixed leaf
    to_fixed[i]; and the map of its leaves onto those of `refined`."""
    subs = [_subtree_oracle(refined, r, a) for r, a in leaf_addresses(fixed)]
    for i, (r, a) in enumerate(leaf_addresses(other)):
        other = _replace_oracle(other, r, a, subs[to_fixed[i]])
    starts = list(itertools.accumulate([forest_leaves((t,)) for t in subs], initial=0))
    return other, [k for j in to_fixed for k in range(starts[j], starts[j + 1])]


def _inverse_oracle(perm) -> list[int]:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return out


def tp_multiply_refine_oracle(a: TreePair, b: TreePair) -> TreePair:
    """a's action after b's by the refinement law, with no diagram: a's
    image and b's domain are refined to their least common refinement, each
    outer forest is grown to match, the bijections are composed through
    the middle, and the pair is reduced by `reduce_pair_fold_oracle`."""
    assert a.arity == b.arity and len(a.image) == len(b.domain)
    middle = _merge_forest_oracle(a.image, b.domain)
    domain, down = _expand_oracle(a.domain, a.image, a.perm, middle)
    image, up = _expand_oracle(b.image, b.domain, _inverse_oracle(b.perm), middle)
    back = _inverse_oracle(up)
    perm = tuple([back[k] for k in down])
    return reduce_pair_fold_oracle(TreePair(a.arity, domain, image, perm))


# -- factorization ---------------------------------------------------------------
# The alternating decomposition of a reduced diagram into unitary atoms and
# permutations, which the factor-by-factor embedding oracle below reads.


def factorize(d: Diagram) -> tuple[Diagram, list[tuple[Diagram, Diagram]]]:
    """Absolutely reduced alternating decomposition, peeled from the bottom.

    Returns (lead, [(U_1, P_1), ..., (U_n, P_n)]) with each U_i a unitary
    atom, each P_i a permutation diagram, n = length(d), and

        lead o U_1 o P_1 o ... o U_n o P_n == d   (exact concatenation).

    One pass up a cut from the frame bottom, in reverse `top_down` order,
    so each transistor's bottom wires are on the cut when it is peeled; a
    wire's coefficient is peeled when the wire reaches the cut, left to
    right.  The factors depend only on the diagram, not on its ids.  The
    leading permutation cannot be avoided for braided diagrams whose first
    transistor attaches to scattered frame-top ports.
    """
    if not is_reduced(d):
        raise ValueError("factorize requires a reduced diagram")
    pres, coeffs, wires = d.pres, d.coeffs, d.wires
    cut = list(d.bottom_ports)
    rev: list[tuple[Diagram, Diagram]] = []

    def peel_coefficients(positions):
        word = [wires[w][0] for w in cut]
        for i in positions:
            g = wires[cut[i]][1]
            if not g.is_identity():
                rev.append((atom_linear(pres, coeffs, word, i, g), eps(pres, coeffs, word)))

    peel_coefficients(range(len(cut)))
    for tid in reversed(list(top_down(d))):
        sel, top = d.t_bot[tid], d.t_top[tid]
        first = cut.index(sel[0])
        passing = [i for i, w in enumerate(cut) if w not in sel]
        left = [i for i in passing if i < first]
        right = passing[len(left):]
        sigma = left + [cut.index(w) for w in sel] + right  # u's bottom onto the cut
        word = [wires[w][0] for w in cut]
        u = atom_transistor(pres, coeffs, [word[i] for i in left], *d.transistors[tid],
                            [word[i] for i in right])
        rev.append((u, atom_permutation(pres, coeffs, [word[i] for i in sigma], sigma)))
        cut = [cut[i] for i in left] + list(top) + [cut[i] for i in right]
        peel_coefficients(range(len(left), len(left) + len(top)))
    rev.reverse()
    return atom_permutation(pres, coeffs, d.top_word(), [cut.index(w) for w in d.top_ports],
                            d.annular), rev


# -- the universal embedding, factor by factor -----------------------------------------

def gamma_oracle(n: int, coeffs) -> Diagram:
    """n positive x -> x.x atoms, each under the leftmost wire of the last."""
    d = eps(QPRES, coeffs, "x")
    for i in range(n):
        d = concat_oracle(d, atom_transistor(QPRES, coeffs, (), 0, 1, ("x",) * i))
    return d


def block_oracle(left: int, top_len: int, rel_index: int, sign: int,
                  bot_len: int, right: int, coeffs) -> Diagram:
    label = free_element_oracle(coeffs.spec("x"), [(f"R{rel_index + 1}", sign)])
    middle = concat_oracle(eps(QPRES, coeffs, [("x", label)]), gamma_oracle(bot_len - 1, coeffs))
    out = concat_oracle(invert(gamma_oracle(top_len - 1, coeffs)), middle)
    if left:
        out = sum_diagrams(eps(QPRES, coeffs, ("x",) * left), out)
    if right:
        out = sum_diagrams(out, eps(QPRES, coeffs, ("x",) * right))
    return out


def _relabelled_permutation_oracle(p: Diagram, coeffs) -> Diagram:
    perm = tuple(p.wire_bot[w][1] for w in p.top_ports)
    return atom_permutation(QPRES, coeffs, ("x",) * len(perm), perm)


def psi_unreduced_factor_oracle(d: Diagram, coeffs=None) -> Diagram:
    """The unreduced image of d as the concatenation of its factors' images:
    each permutation factor relabelled by x, each transistor atom replaced
    by its padded block."""
    if any(not c.is_identity() for _, c in d.wires.values()):
        raise ValueError("the embedding applies to diagrams with trivial coefficients")
    if coeffs is None:
        coeffs = free_system(max(1, len(d.pres.relations)))
    lead, factors = factorize(reduce(d))
    out = _relabelled_permutation_oracle(lead, coeffs)
    for u, p in factors:
        assert classify_kind(u) == "transistor"
        (tid, (rel_index, direction)), = u.transistors.items()
        top_side, bot_side = rel_sides(u.pres, rel_index, direction)
        left = min(u.wire_top[w][1] for w in u.t_top[tid])
        right = len(u.top_ports) - left - len(top_side)
        out = concat_oracle(out, block_oracle(left, len(top_side), rel_index, direction,
                                              len(bot_side), right, coeffs))
        out = concat_oracle(out, _relabelled_permutation_oracle(p, coeffs))
    return replace(out, annular=d.annular)


def pi_oracle(d: Diagram):
    """The quotient map by its definition: embed d by psi (reduced over
    F_kappa), then kill the coefficients, reduce and bridge to a tree pair."""
    return project_to_thompson(psi(d))


# -- per-geometry rules, one branch per geometry -----------------------------------
# Reference code for `picture.GEOMETRY`: each rule written out with one
# branch per geometry name.

def feed_tuples_oracle(labels, consumed, geometry):
    n, k = len(labels), len(consumed)
    if k > n:
        return
    if geometry == "planar":
        for i0 in range(n - k + 1):
            if all(labels[i0 + j] == consumed[j] for j in range(k)):
                yield tuple(range(i0, i0 + k))
    elif geometry == "annular":
        for i0 in range(n):
            if all(labels[(i0 + j) % n] == consumed[j] for j in range(k)):
                yield tuple((i0 + j) % n for j in range(k))
    else:
        pools: dict[str, list[int]] = {}
        for i, lab in enumerate(labels):
            pools.setdefault(lab, []).append(i)
        acc: list[int] = []
        used: set[int] = set()

        def rec(j):
            if j == k:
                yield tuple(acc)
                return
            for p in pools.get(consumed[j], ()):
                if p not in used:
                    used.add(p)
                    acc.append(p)
                    yield from rec(j + 1)
                    acc.pop()
                    used.discard(p)

        yield from rec(0)


def after_oracle(ports, positions, produced, geometry):
    """The bottom ports after the ports at `positions` feed a transistor."""
    if geometry == "planar":
        i0 = positions[0]
        return ports[:i0] + produced + ports[i0 + len(positions):]
    if geometry == "annular":
        i0 = positions[0]
        return produced + (ports[i0:] + ports[:i0])[len(positions):]
    pos_set = set(positions)
    return tuple(w for i, w in enumerate(ports) if i not in pos_set) + produced


def boundary_match_oracle(u, v, geometry):
    """A permutation aligning bot word u onto v within the geometry, or None."""
    if geometry == "planar":
        return tuple(range(len(u))) if u == v else None
    if geometry == "annular":
        n = len(u)
        if n != len(v):
            return None
        for k in range(n):
            if tuple(u[(i + k) % n] for i in range(n)) == tuple(v):
                return tuple((i - k) % n for i in range(n))
        return None
    if sorted(u) != sorted(v):
        return None
    pools: dict[str, list[int]] = {}
    for j, lab in enumerate(v):
        pools.setdefault(lab, []).append(j)
    return tuple(pools[lab].pop() for lab in u)


def boundary_symmetry_oracle(u, geometry):
    """`random_element`'s fallback: a nontrivial label-preserving permutation
    of u in the geometry (the first transposition of equal letters, braided;
    the least rotation fixing u, annular), or None."""
    n = len(u)
    if geometry == "braided":
        for i in range(n):
            for j in range(i + 1, n):
                if u[i] == u[j]:
                    s = list(range(n))
                    s[i], s[j] = s[j], s[i]
                    return tuple(s)
    elif geometry == "annular":
        for k in range(1, n):
            if tuple(u[(i - k) % n] for i in range(n)) == u:
                return tuple((i + k) % n for i in range(n))
    return None


def membership_oracle(perm) -> str:
    """F / T_not_F / V_not_T of a reduced pair's leaf bijection."""
    m = len(perm)
    if all(perm[i] == i for i in range(m)):
        return "F"
    for k in range(1, m):
        if all(perm[i] == (i + k) % m for i in range(m)):
            return "T_not_F"
    return "V_not_T"


@lru_cache(maxsize=None)
def _sorted_permutations(n: int) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(range(n))))


def label_permutations_oracle(word) -> list[tuple[int, ...]]:
    """The nontrivial permutations sigma with word[i] == word[sigma[i]], sorted."""
    n = len(word)
    return [s for s in _sorted_permutations(n)
            if s != tuple(range(n)) and all(word[i] == word[s[i]] for i in range(n))]


def shuffled_transistor_ids(d: Diagram, rng) -> Diagram:
    """d with its transistors renumbered at random and listed in a random
    order: an input whose ids and dict order follow no top-down order."""
    old = list(d.transistors)
    ren = dict(zip(old, rng.sample(range(3 * len(old) + 1), len(old))))
    rng.shuffle(old)
    return Diagram(d.pres, d.coeffs, d.wires, {ren[t]: d.transistors[t] for t in old},
                   {ren[t]: d.t_top[t] for t in old}, {ren[t]: d.t_bot[t] for t in old},
                   d.top_ports, d.bottom_ports, d.annular)


# -- the presentation grammar, token by token --------------------------------------

_RESERVED_ORACLE = set("<>|=,.^")

def _tokenize_oracle(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) with kind in {punct, ident, int}."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _RESERVED_ORACLE:
            toks.append(("punct", c, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _RESERVED_ORACLE:
            j += 1
        val = text[i:j]
        # isdecimal, not isdigit: int() rejects digits such as '²'
        toks.append(("int" if val.isdecimal() else "ident", val, i))
        i = j
    return toks


class _ParserOracle:
    def __init__(self, text: str):
        self.toks = _tokenize_oracle(text)
        self.pos = 0
        self.textlen = len(text)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else ("eof", "", self.textlen)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if kind == "eof" or val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", at)
        return val

    def ident(self) -> tuple[str, int]:
        kind, val, at = self.next()
        if kind not in ("ident", "int"):
            raise ParseError(f"expected identifier, found {val or 'end of input'!r}", at)
        return val, at


def _expand_atom_oracle(token: str, at: int, alphabet: tuple[str, ...]) -> list[str]:
    if token in alphabet:
        return [token]
    if all(len(a) == 1 for a in alphabet):
        letters = list(token)
        for c in letters:
            if c not in alphabet:
                raise ParseError(f"undeclared letter {c!r}", at)
        return letters
    raise ParseError(f"undeclared letter {token!r}", at)


def _parse_word_tokens_oracle(p: _ParserOracle, alphabet: tuple[str, ...]) -> tuple[str, ...]:
    """word := atom ('.' atom)*, read from the parser's position."""
    letters: list[str] = []
    while True:
        tok, at = p.ident()
        expanded = _expand_atom_oracle(tok, at, alphabet)
        power = 1
        if p.peek()[1] == "^":
            p.next()
            k, v, at = p.next()
            try:
                power = int(v) if k == "int" else 0
            except ValueError:  # over 4,300 digits: longer than any word allowed
                power = MAX_WORD_LENGTH + 1
            if power < 1:
                raise ParseError("power must be a positive integer", at)
        if len(letters) + len(expanded) * power > MAX_WORD_LENGTH:
            raise ParseError(f"word longer than {MAX_WORD_LENGTH} letters", at)
        letters.extend(expanded * power)
        if p.peek()[1] != ".":
            return tuple(letters)
        p.next()


def parse_presentation_oracle(text: str) -> SemigroupPresentation:
    """The presentation grammar read by a tokenizer and a recursive-descent
    parser, for comparison with the package's field-splitting reader."""
    p = _ParserOracle(text)
    p.expect("<")
    alphabet: list[str] = []
    while True:
        name, at = p.ident()
        if name in alphabet:
            raise ParseError(f"duplicate letter {name!r}", at)
        alphabet.append(name)
        if p.peek()[1] != ",":
            break
        p.next()
    p.expect("|")
    alpha = tuple(alphabet)
    relations = []
    while True:
        lhs = _parse_word_tokens_oracle(p, alpha)
        p.expect("=")
        relations.append((lhs, _parse_word_tokens_oracle(p, alpha)))
        if p.peek()[1] != ",":
            break
        p.next()
    p.expect(">")
    kind, val, at = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", at)
    pres = SemigroupPresentation(alpha, tuple(relations))
    bad = validate_presentation(pres)
    if bad:
        raise ParseError("; ".join(str(v) for v in bad))
    return pres


def parse_word_oracle(text: str, pres: SemigroupPresentation) -> tuple[str, ...]:
    """A baseword read token by token (see parse_presentation_oracle)."""
    p = _ParserOracle(text)
    letters = _parse_word_tokens_oracle(p, pres.alphabet)
    kind, val, at = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", at)
    return letters


# -- coefficient text, token by token ------------------------------------------------

def _split_power_oracle(token: str) -> tuple[str, int]:
    if "^" in token:
        gen, _, exp = token.partition("^")
        try:  # a sign and decimal digits, as in words: int() alone also takes '+2' and '1_0'
            power = int(exp) if exp.strip().removeprefix("-").isdecimal() else 0
        except ValueError:
            raise ParseError(f"malformed token {token!r}") from None
        if power == 0 or not gen:
            raise ParseError(f"malformed token {token!r}")
        return gen, power
    if not token:
        raise ParseError("empty token")
    return token, 1


def coeff_parse_oracle(spec, text: str):
    """Coefficient text split on '.' into unstripped tokens, each split at
    its '^': whitespace is allowed only at the ends of the text and beside a
    power's digits."""
    text = text.strip()
    if text == "1":
        return identity_oracle(spec)
    if isinstance(spec, TrivialSpec):
        raise ParseError(f"trivial group has no element {text!r}")
    tokens = text.split(".")
    if isinstance(spec, CyclicSpec):
        total = 0
        for tok in tokens:
            gen, power = _split_power_oracle(tok)
            if gen != "t":
                raise ParseError(f"unknown generator {gen!r} (cyclic generator is 't')")
            total += power
        return cyclic_element_oracle(spec, total)
    word: list[tuple[str, int]] = []
    powers = [_split_power_oracle(tok) for tok in tokens]
    if sum(abs(power) for _, power in powers) > MAX_WORD_LENGTH:
        raise ParseError(f"coefficient longer than {MAX_WORD_LENGTH} letters")
    for gen, power in powers:
        if gen not in spec.generators:
            raise ParseError(f"unknown generator {gen!r}")
        sign = 1 if power > 0 else -1
        word.extend([(gen, sign)] * abs(power))
    return free_element_oracle(spec, word)


# -- file objects as dicts -------------------------------------------------------------

def _site_json_oracle(site) -> dict:
    if site[0] == "FT":
        return {"site": "frame_top", "index": site[1]}
    if site[0] == "FB":
        return {"site": "frame_bottom", "index": site[1]}
    kind = "top" if site[0] == "TT" else "bottom"
    return {"site": {"transistor": site[1], "side": kind}, "index": site[2]}


def diagram_dict_oracle(d: Diagram) -> dict:
    """A diagram file's object built as a dict, wires and transistors in the
    `_numbering_oracle` order and transistor sites renumbered by it; its
    file text is json.dumps(obj, indent=2, sort_keys=True)."""
    worder, torder = _numbering_oracle(d)

    def renum_site(site):
        if site[0] in ("TT", "TB"):
            return (site[0], torder[site[1]], site[2])
        return site

    return {
        "presentation": serialize_presentation(d.pres),
        "coeffs": {letter: str(spec) for letter, spec in d.coeffs.assignments},
        "annular": d.annular,
        "wires": [
            {
                "label": d.wires[w][0],
                "coeff": coeff_serialize(d.wires[w][1]),
                "bottom": _site_json_oracle(renum_site(d.wire_bot[w])),
                "top": _site_json_oracle(renum_site(d.wire_top[w])),
            }
            for w in sorted(worder, key=worder.get)
        ],
        "transistors": [
            {"rel": d.transistors[t][0], "dir": d.transistors[t][1]}
            for t in sorted(torder, key=torder.get)
        ],
    }


def _witness_json_oracle(kind, witness):
    if kind == "linear":
        letter, delta = witness
        return {"letter": letter, "delta": coeff_serialize(delta)}
    rel_index, direction, positions = witness
    return {"relation": rel_index, "direction": direction,
            "positions": list(positions)}


def ball_dict_oracle(g) -> dict:
    """A ball file's object built as a dict; its file text is
    json.dumps(obj, indent=2, sort_keys=True)."""
    return {
        "geometry": g.geometry,
        "radius": g.radius,
        "vertices": [
            {"key": v.key, "depth": v.depth, "length": v.length}
            for v in g.vertices
        ],
        "edges": [
            {"a": i, "b": j, "kind": kind,
             "witness": _witness_json_oracle(kind, witness)}
            for (i, j), (kind, witness) in sorted(g.edges.items())
        ],
    }

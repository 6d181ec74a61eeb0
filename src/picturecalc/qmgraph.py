"""Finite-ball explorer and verifier for the quasi-median graphs X.

Vertices are classes of reduced (w,*)-diagrams (bottom permutations
quotiented per geometry), edges are unitary moves.  Distances are exact
and global: d([A],[B]) = length(A^-1 . B), so only containment questions
need boundary margins.

Distances come from hyperplane coordinates.  As A and B are reduced, each
dipole cancelled in A^-1 . B pairs a transistor of A^-1 with one of B (a
dipole inside either half would be one of A or of B), and merged wires
never chain, so length(A^-1 . B) = |A| + |B| - 2m + (wires of the reduced
product with a nontrivial coefficient), m the cancelled pairs; by
confluence the order of cancellation does not matter.  Name wires and
transistors from the frame top down (`moves.hyperplane_names`), a cone by
its top wires' (id, coefficient) and its bottom word, a wire by its port
or by (cone, slot).  By induction from the top, a wire of A merges with
one of B iff they share an id, and a transistor of A cancels with one of B
iff they share a cone id (top wires merged slot by slot with equal
coefficients, bottom words equal).  A merged pair leaves one wire
with coefficient c_a^-1 c_b, nontrivial iff c_a != c_b.  So, with K_v the
cone ids of v, W_v the ids of its wires with a nontrivial coefficient and
C_v their (id, coefficient) pairs,

    d(u, v) = |u| + |v| - 2|K_u & K_v| - |W_u & W_v| - |C_u & C_v|

The ids are the hyperplanes of X that the diagrams meet, and d counts those
that separate u from v: the distance formula of quasi-median graphs.
`BallGraph` interns the ids of its vertices in one table, keeps each set as
an int bitmask, and reads every distance as three popcounts into one row
per vertex.

Pins are fibres of the same names.  Changing a bottom wire's coefficient
keeps a reduced diagram reduced and its names as they are, so the pin
[D.(U + eps(l, g))], g in G_l, is the set of vertices sharing the pin key
(K, C without that wire's pair, the wire's id), None for a trivial G_l;
`enumerate_pins`, the linear-edge witness check and the probe read them.

`verify` checks hyperplane crossings on one geodesic per certified pair
(x, y), one with depth(x) + depth(y) + d(x, y) <= 2r, and takes it by
descent: from x, step to the lowest-index neighbour one closer to y, until
y.  Every vertex p of an x..y geodesic has depth(p) <= depth(x) + d(x, p)
and depth(p) <= depth(y) + d(p, y), whose sum bounds 2 depth(p) by the
certified 2r; so every such p lies in the ball.  Each vertex on the way
lies on an x..y geodesic, the next vertex of a geodesic from it to y is
one closer to y and lies on one too, and the ball is the full induced
subgraph of X on its vertices; so a decreasing neighbour is always an
edge of the ball, and the exact distances make the path an X-geodesic.
`geodesic` takes the same descent in X, to the first of `neighbors` one closer.

The verifiers check the weak-modularity axioms (the triangle and quadrangle
conditions as one interval test), the forbidden induced subgraphs, the pin
lemmas (reading one map from each vertex pair to the complete pins holding
it), hyperplane sector/gate structure and crossings (reading one map from
each edge to its hyperplane id), the technical condition (+) and the
rotative-stabiliser description of linear hyperplanes, reporting any
violating tuple.

A hyperplane is called interior when at least one member edge has both
endpoints within radius r-2; assertions quantify over margin-limited
vertices so that promised witnesses cannot be lost to the boundary, and
boundary-truncated observations are reported as inconclusive rather than
as counterexamples.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice, permutations

from .coeff import coeff_serialize, nontrivial_elements, trivial_system
from .errors import CompositionError
from .moves import (BallConfig, Interned, apply_move, bfs_classes, geometry_class_key,
                    hyperplane_names, unitary_moves)
from .picture import (
    GEOMETRY,
    Diagram,
    atom_linear,
    atom_permutation,
    canonical_key,
    eps,
    invert,
    is_permutation_diagram,
    multiply,
    reduce,
)


@dataclass(frozen=True)
class VertexClass:
    key: str
    rep: Diagram
    length: int  # rep's length
    depth: int = 0

    def __repr__(self):
        return f"<VertexClass len={self.length} {self.key[:24]}...>"


class BallGraph:
    """Radius-r piece of X with its edge kinds and witnesses."""

    def __init__(self, cfg: BallConfig, radius: int, vertices, edges):
        self.cfg = cfg
        self.radius = radius
        self.vertices: list[VertexClass] = vertices
        self.edges = edges  # (i, j) -> (kind, witness), i < j
        self.adj: list[set[int]] = [set() for _ in vertices]
        for (i, j) in edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self._rows: list[array | None] = [None] * len(vertices)
        self._hyperplanes: list[Hyperplane] | None = None
        self._pins: list[tuple[frozenset[int], str, bool]] | None = None

    @property
    def geometry(self) -> str:
        return self.cfg.geometry

    def depth(self, i: int) -> int:
        return self.vertices[i].depth

    def within(self, margin: int):
        return [i for i in range(len(self.vertices)) if self.depth(i) <= margin]

    def edge_kind(self, i: int, j: int) -> str:
        return self.edges[(i, j) if i < j else (j, i)][0]

    @cached_property
    def _named(self):
        return hyperplane_coordinates([v.rep for v in self.vertices])

    @property
    def coordinates(self) -> list[tuple[int, int, int, int]]:
        """(length, K, W, C) of every vertex, over one intern table."""
        return self._named[0]

    @property
    def pin_keys(self) -> list[tuple]:
        """Each vertex's pin key at every bottom position (see `enumerate_pins`)."""
        return self._named[1]

    @cached_property
    def _typecode(self) -> str:
        # a distance is at most the sum of two lengths: bytes up to length 127
        return "B" if max(c[0] for c in self.coordinates) < 128 else "I"

    def row(self, i: int) -> array:
        """d(i, j) for every vertex j (`distance_row`), built on first use."""
        if self._rows[i] is None:
            coords = self.coordinates
            self._rows[i] = array(self._typecode, distance_row(coords[i], coords))
        return self._rows[i]

    def distance(self, i: int, j: int) -> int:
        """Global distance via the length formula (valid beyond the ball)."""
        return self.row(i)[j]

    @cached_property
    def commons(self) -> dict[tuple[int, int], list[int]]:
        """(a, c) -> the ascending common neighbours of a < c, read off the
        2-paths a-b-c centre by centre, for every pair with one, in ascending
        pair order: the order of `induced_squares`, which fixes hyperplane ids."""
        out: dict[tuple[int, int], list[int]] = {}
        for b, nbrs in enumerate(self.adj):
            for pair in combinations(sorted(nbrs), 2):
                out.setdefault(pair, []).append(b)
        return dict(sorted(out.items()))

    def triangles(self, margin: int | None = None):
        lim = self.radius if margin is None else margin
        out = []
        for (i, j) in self.edges:
            if self.depth(i) > lim or self.depth(j) > lim:
                continue
            for k in self.commons.get((i, j), ()):
                if k > j and self.depth(k) <= lim:
                    out.append((i, j, k))
        return out


def neighbors(v: VertexClass, cfg: BallConfig) -> list[tuple[VertexClass, str]]:
    """All adjacent classes, in order of first move, with the kind of a
    realizing unitary move.  Public API for exploring single vertices;
    `ball` and `verify` do not call it (they go through `bfs_classes`)."""
    out: dict[str, tuple[VertexClass, str]] = {}
    for kind, witness, after, _ in unitary_moves(v.rep, cfg, v.length):
        rep = GEOMETRY[cfg.geometry].class_rep(apply_move(v.rep, kind, witness, cfg.geometry))
        key = canonical_key(rep)
        if key != v.key and key not in out:
            out[key] = (VertexClass(key, rep, after), kind)
    return list(out.values())


def ball(base: Diagram, radius: int, cfg: BallConfig) -> BallGraph:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    reps, depths, edges, lengths = bfs_classes(base, radius, cfg)
    # a class representative's exact key names its class, already cached
    vertices = [VertexClass(canonical_key(rep), rep, n, depth)
                for rep, depth, n in zip(reps, depths, lengths)]
    return BallGraph(cfg, radius, vertices, edges)


def hyperplane_coordinates(diagrams) -> tuple[list[tuple[int, int, int, int]], list[tuple]]:
    """(length, K, W, C) of each diagram's reduction, with K, W and C as int
    bitmasks over one intern table filled in diagram order (see the module
    docstring), and its pin keys, one per bottom position (see
    `enumerate_pins`).  Raises CompositionError unless all diagrams share the
    baseword, presentation and coefficient system."""
    first, table, out, pins = diagrams[0], Interned(), [], []
    word = first.top_word()
    trivial = {a for a in first.pres.alphabet if first.coeffs.spec(a).order == 1}
    for d in map(reduce, diagrams):
        if d.top_word() != word:
            raise CompositionError("vertices live over different basewords")
        if d.pres != first.pres or d.coeffs != first.coeffs:
            raise CompositionError("presentation or coefficient system mismatch")
        wires, (name, named_cones) = d.wires, hyperplane_names(d, table)
        cones = sum(1 << cone for cone in named_cones.values())  # distinct ids
        own = {w: 1 << table["C", name[w], c.payload]  # the bit of w's (id, coefficient) pair
               for w, (_, c) in wires.items() if not c.is_identity()}
        nontrivial, coefficients = sum(1 << name[w] for w in own), sum(own.values())
        out.append((len(d.transistors) + len(own), cones, nontrivial, coefficients))
        pins.append(tuple(None if wires[w][0] in trivial
                          else (cones, coefficients & ~own.get(w, 0), name[w])
                          for w in d.bottom_ports))
    return out, pins


def distance_row(u: tuple[int, int, int, int], coords) -> list[int]:
    """d(u, v) for every v of coords by the formula of the module docstring."""
    s, k, w, c = u
    return [s + t - 2 * (k & kt).bit_count() - (w & wt).bit_count() - (c & ct).bit_count()
            for t, kt, wt, ct in coords]


def pair_distance(a: VertexClass, b: VertexClass) -> int:
    """length(A^-1 . B) from the hyperplane coordinates of the two vertices,
    without building the product (see the module docstring)."""
    u, v = hyperplane_coordinates([a.rep, b.rep])[0]
    return distance_row(u, [v])[0]


def geodesic(a: VertexClass, b: VertexClass, cfg: BallConfig) -> list[VertexClass]:
    """Vertex path a..b of length pair_distance(a, b): from a, step to the first
    of `neighbors(cur, cfg)` one closer to b, until b.  Raises ValueError when
    no neighbour within `cfg.max_width` is one closer."""
    path = [a]
    for left in reversed(range(pair_distance(a, b))):
        steps = [v for v, _ in neighbors(path[-1], cfg)]
        coords = hyperplane_coordinates([b.rep, *(v.rep for v in steps)])[0]
        to_b = distance_row(coords[0], coords[1:])
        if left not in to_b:
            raise ValueError(f"no neighbour within max_width {cfg.max_width} is closer to b")
        path.append(steps[to_b.index(left)] if left else b)
    return path


# -- reports -------------------------------------------------------------------------


@dataclass
class Report:
    name: str
    passed: bool = True
    checked: int = 0
    skipped: int = 0
    violations: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def hit(self):
        self.checked += 1

    def fail(self, item):
        self.passed = False
        self.violations.append(item)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f", {len(self.inconclusive)} inconclusive" if self.inconclusive else ""
        return (f"{self.name}: {status} ({self.checked} checked, "
                f"{self.skipped} skipped{extra})")


def verify_qm_axioms(g: BallGraph) -> Report:
    """Triangle/quadrangle conditions and the forbidden induced subgraphs,
    with premises restricted so the promised witness must lie in the ball."""
    rep = Report("qm_axioms")
    margin = g.radius - 1
    inner_set = set(g.within(margin))
    n = len(g.vertices)
    row = g.row  # row(x)[u] = d(u, x): one row serves every u

    def unwitnessed(v, w, witnesses, to_ref, offset):
        """The u with d(u,v) = d(u,ref) - offset = d(u,w) = k that no witness x
        has at d(u,x) = k - 1.  No u in {v, w} has d(u,v) = d(u,w)."""
        to_v, to_w = row(v), row(w)
        to_witnesses = [row(x) for x in witnesses]
        premise = [u for u in range(n) if to_v[u] == to_ref[u] - offset == to_w[u]]
        rep.checked += len(premise)
        return [u for u in premise if not any(to_x[u] == to_v[u] - 1 for to_x in to_witnesses)]
    # triangle condition: ref v, offset 0
    for (v, w) in g.edges:
        if v not in inner_set or w not in inner_set:
            rep.skipped += 1
            continue
        for u in unwitnessed(v, w, g.commons.get((v, w), ()), row(v), 0):
            rep.fail(("triangle", u, v, w))
    # quadrangle condition: ref z, offset 1
    for z in range(n):
        nbrs = sorted(g.adj[z])
        for v, w in combinations(nbrs, 2):
            if v not in inner_set or w not in inner_set:
                rep.skipped += 1
                continue
            if w in g.adj[v]:
                continue
            for u in unwitnessed(v, w, [x for x in g.commons[v, w] if x != z], row(z), 1):
                rep.fail(("quadrangle", u, z, v, w))
    # induced K4- : an edge with two nonadjacent common neighbors
    for (a, b) in g.edges:
        if a not in inner_set or b not in inner_set:
            continue
        rep.hit()
        for c, d in combinations([c for c in g.commons.get((a, b), ()) if c in inner_set], 2):
            if d not in g.adj[c]:
                rep.fail(("K4-", a, b, c, d))
    # induced K3,2: two nonadjacent vertices with 3 pairwise nonadjacent commons
    for (a, b), shared in g.commons.items():
        if a not in inner_set or b not in inner_set or b in g.adj[a]:
            continue
        shared = [c for c in shared if c in inner_set]
        if len(shared) < 3:
            continue
        rep.hit()
        for c, d, e in combinations(shared, 3):
            if d not in g.adj[c] and e not in g.adj[c] and e not in g.adj[d]:
                rep.fail(("K3,2", a, b, c, d, e))
    rep.details["triangle_free"] = not g.triangles()
    return rep


# -- pins ---------------------------------------------------------------------------


def enumerate_pins(g: BallGraph):
    """All pins meeting the ball, as (frozenset of vertex indices, letter,
    complete), in order of first meeting by vertex, then bottom position:
    the fibres of the pin keys (see the module docstring).  A pin is
    complete when all |G_l| members lie in the ball; an incomplete one lists
    only those that do.  A fibre of more than |G_l| members also counts as
    complete, so that `pins_report` flags its size.  Computed once per ball
    and shared."""
    if g._pins is not None:
        return g._pins
    fibres: dict[tuple, tuple[list[int], str]] = {}
    for i, keys in enumerate(g.pin_keys):
        for letter, key in zip(g.vertices[i].rep.bot_word(), keys):
            if key is not None:
                fibres.setdefault(key, ([], letter))[0].append(i)
    g._pins = [(frozenset(members), letter, len(members) >= g.cfg.coeffs.spec(letter).order)
               for members, letter in fibres.values()]
    return g._pins


def pins_report(g: BallGraph) -> Report:
    rep = Report("pins")
    pins = enumerate_pins(g)
    complete = []
    holders: dict[tuple[int, int], list[int]] = {}  # a < b -> the complete pins holding both
    for pin, letter, is_complete in pins:
        if not is_complete:
            rep.skipped += 1
            continue
        size = g.cfg.coeffs.spec(letter).order
        rep.hit()
        if len(pin) != size:
            rep.fail(("pin_size", letter, len(pin), size))
        for a, b in permutations(pin, 2):
            if a < b:
                holders.setdefault((a, b), []).append(len(complete))
                if b not in g.adj[a]:
                    rep.fail(("pin_not_clique", a, b))
        complete.append(pin)
    rep.checked += len(complete) * (len(complete) - 1) // 2  # each pair of pins
    for p, q in sorted({pq for held in holders.values() for pq in combinations(held, 2)}):
        rep.fail(("pin_intersection", sorted(complete[p] & complete[q])))
    margin = g.radius - 1
    for (a, b, c) in g.triangles(margin):
        rep.hit()
        if not any(c in complete[p] for p in holders.get((a, b), ())):
            rep.fail(("triangle_outside_pins", a, b, c))
    # every linear edge lies in a pin
    for (i, j), (kind, witness) in g.edges.items():
        if kind != "linear":
            continue
        rep.hit()
        if (i, j) not in holders:
            if g.depth(i) <= margin and g.depth(j) <= margin:
                rep.fail(("linear_edge_outside_pins", i, j))
            else:
                rep.skipped += 1
    rep.details["pin_count"] = len(complete)
    rep.details["max_pin_size"] = max((len(p) for p in complete), default=0)
    return rep


# -- hyperplanes ----------------------------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def induced_squares(g: BallGraph):
    """(a, b, c, d) with edges ab, bc, cd, da and non-edges ac, bd."""
    out = []
    for (a, c), shared in g.commons.items():
        if c in g.adj[a]:
            continue
        for b, d in combinations(shared, 2):
            if d not in g.adj[b]:
                out.append((a, b, c, d))
    return out


@dataclass
class Hyperplane:
    hid: int
    kind: str
    member_edges: list[tuple[int, int]]
    carrier_cliques: list[frozenset[int]]
    interior: bool


def hyperplanes(g: BallGraph) -> list[Hyperplane]:
    """Edge classes under same-clique / opposite-in-square closure, with
    their carrier cliques (pins for linear, the edges themselves for
    transistor hyperplanes).  Computed once per ball and shared."""
    if g._hyperplanes is not None:
        return g._hyperplanes
    uf = _UnionFind(list(g.edges))

    def norm(i, j):
        return (i, j) if i < j else (j, i)

    pin_edge = []  # (pin, its first edge) per complete pin with edges, all of one class
    for ids in (pin for pin, _, complete in enumerate_pins(g) if complete):
        clique_edges = [e for e in combinations(sorted(ids), 2) if e in g.edges]
        pin_edge += [(ids, e) for e in clique_edges[:1]]
        for e in clique_edges[1:]:
            uf.union(clique_edges[0], e)
    for (a, b, c, d) in induced_squares(g):
        uf.union(norm(a, b), norm(c, d))
        uf.union(norm(b, c), norm(d, a))
    groups: dict[tuple[int, int], tuple[list, list]] = {}  # root -> (edges, pins in pin order)
    for e in g.edges:
        groups.setdefault(uf.find(e), ([], []))[0].append(e)
    for ids, e in pin_edge:
        groups[uf.find(e)][1].append(ids)
    margin = g.radius - 2
    out = []
    for hid, (_, (members, pins)) in enumerate(sorted(groups.items())):
        kinds = {g.edge_kind(*e) for e in members}
        kind = kinds.pop() if len(kinds) == 1 else "mixed"
        carriers = pins if kind == "linear" else [frozenset(e) for e in members]
        interior = any(g.depth(i) <= margin and g.depth(j) <= margin
                       for (i, j) in members)
        out.append(Hyperplane(hid, kind, sorted(members), carriers, interior))
    g._hyperplanes = out
    return out


def _descent_path(g: BallGraph, x: int, y: int) -> list[int] | None:
    """Vertex ids of the geodesic x..y that steps each time to the
    lowest-index neighbour one closer to y, or None when some vertex on the
    way has no such neighbour in the ball."""
    to_y = g.row(y)
    path = [x]
    left = to_y[x]
    while left:
        left -= 1
        nxt = min((z for z in g.adj[path[-1]] if to_y[z] == left), default=None)
        if nxt is None:
            return None
        path.append(nxt)
    return path


def _certified_geodesic_edges(g: BallGraph, rep: Report):
    """Edge lists of one geodesic per vertex pair whose whole interval is
    certified to lie in the ball: every point p of a geodesic x..y has
    d(base,p) <= (d(base,x)+d(base,y)+d(x,y))/2.  Each geodesic is taken
    by descent through the exact distances (see the module docstring)."""
    out = []
    n = len(g.vertices)
    depth = [v.depth for v in g.vertices]
    for x in range(n):
        to_x = g.row(x)
        for y in range(x + 1, n):
            if depth[x] + depth[y] + to_x[y] > 2 * g.radius:
                continue
            path = _descent_path(g, x, y)
            if path is None:
                rep.inconclusive.append(("geodesic_left_ball", x, y))
                continue
            out.append((x, y, [((a, b) if a < b else (b, a))
                               for a, b in zip(path, path[1:])]))
    return out


def hyperplanes_report(g: BallGraph) -> Report:
    rep = Report("hyperplanes")
    margin = g.radius - 2
    hyps = hyperplanes(g)
    rep.details["count"] = len(hyps)
    rep.details["interior"] = sum(1 for J in hyps if J.interior)
    hid_of = {e: J.hid for J in hyps for e in J.member_edges}
    geodesics = _certified_geodesic_edges(g, rep)
    doubles: dict[int, list[tuple[int, int, int]]] = {}  # hid -> (x, y, crossings > 1)
    for x, y, path_edges in geodesics:
        for hid, crossings in Counter(hid_of[e] for e in path_edges).items():
            if crossings > 1:
                doubles.setdefault(hid, []).append((x, y, crossings))
    inner = g.within(margin)
    for J in hyps:
        if J.kind == "mixed":
            rep.fail(("mixed_kind_hyperplane", J.hid))
        if not J.interior:
            rep.skipped += 1
            continue
        # (1) sectors vs projection fibers over a carrier clique
        if not J.carrier_cliques:
            rep.fail(("no_carrier_clique", J.hid))
        else:
            carrier = _base_carrier(g, J)
            comp = _UnionFind(range(len(g.vertices)))
            for e in g.edges:
                if hid_of[e] != J.hid:
                    comp.union(*e)
            gates: dict[int, int] = {}
            gate_ok = True
            to_carrier = [(g.row(c), c) for c in carrier]
            for x in range(len(g.vertices)):
                dists = sorted((to_c[x], c) for to_c, c in to_carrier)
                if len(dists) > 1 and dists[0][0] == dists[1][0]:
                    rep.fail(("gate_not_unique", J.hid, x, sorted(carrier)))
                    gate_ok = False
                    continue
                gates[x] = dists[0][1]
            rep.hit()
            if gate_ok:
                for x, y in combinations(inner, 2):
                    same_comp = comp.find(x) == comp.find(y)
                    same_fiber = gates[x] == gates[y]
                    if same_comp and not same_fiber:
                        rep.fail(("sector_mismatch", J.hid, x, y))
                    elif same_fiber and not same_comp:
                        rep.inconclusive.append(("sector_truncated", J.hid, x, y))
        # (2) geodesics cross the hyperplane at most once
        rep.checked += len(geodesics)
        for x, y, crossings in doubles.get(J.hid, ()):
            rep.fail(("double_crossing", J.hid, x, y, crossings))
        # (3) linear-hyperplane witness form for every member linear edge
        if J.kind == "linear":
            for (i, j) in J.member_edges:
                rep.hit()
                if not _linear_edge_witness_ok(g, i, j):
                    rep.fail(("linear_edge_form", J.hid, i, j))
    return rep


def _base_carrier(g: BallGraph, J: Hyperplane) -> frozenset[int]:
    """J's carrier clique of least greatest depth, then least members."""
    return min(J.carrier_cliques, key=lambda c: (max(g.depth(i) for i in c), sorted(c)))


def _linear_edge_witness_ok(g: BallGraph, i: int, j: int) -> bool:
    """Endpoints must differ by one bottom coefficient: [D.(U+eps(l,g))] vs
    [D.(U+eps(l,h))], that is share a pin key."""
    keys = g.pin_keys[j]
    return any(key is not None and key in keys for key in g.pin_keys[i])


# -- condition (+) --------------------------------------------------------------------


def _reachable_multisets(pres, w, size_cap: int, step_cap: int) -> set[tuple[str, ...]]:
    start = tuple(sorted(w))
    seen = {start}
    frontier = [start]
    for _ in range(step_cap):
        nxt = []
        for m in frontier:
            for lhs, rhs in pres.relations:
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    have, need = Counter(m), Counter(a)
                    if not need <= have:
                        continue
                    new = tuple(sorted((have - need + Counter(b)).elements()))
                    if len(new) <= size_cap and new not in seen:
                        seen.add(new)
                        nxt.append(new)
        frontier = nxt
        if not frontier:
            break
    return seen


def condition_plus_check(pres, coeffs, w, m_max: int, budget: int) -> Report:
    """For every relevant word m (some (w, m.l)-diagram exists with G_l
    nontrivial), try to exclude every nontrivial permutation (m,m)-diagram P
    by exhibiting U with U^-1 P U not a permutation diagram."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rep = Report("condition_plus")
    triv = trivial_system(pres.alphabet)
    nontriv_letters = [a for a in pres.alphabet if coeffs.spec(a).order != 1]
    size_cap = m_max + 1 + max(max(len(l), len(r)) for l, r in pres.relations)
    reachable = _reachable_multisets(pres, w, size_cap, step_cap=budget + 4)
    cfg = BallConfig(pres, triv, "braided", max_width=max(12, size_cap))
    # relevant m: some (w, m.l)-diagram exists, i.e. the multiset of m.l is
    # reachable from w and G_l is nontrivial
    candidates = set()
    for big in reachable:
        if not 2 <= len(big) <= m_max + 1:
            continue
        for l in nontriv_letters:
            if l in big:
                shrunk = list(big)
                shrunk.remove(l)
                candidates.add(tuple(shrunk))
    for m in sorted(candidates):
        word = m  # sorted ordering; other orderings are conjugate by permutations
        u_reps, *_ = bfs_classes(eps(pres, triv, word), budget, cfg)
        # the nontrivial label-preserving permutations, in lexicographic order
        for sigma in islice(GEOMETRY["braided"].feeds(word, word), 1, None):
            p_diag = atom_permutation(pres, triv, word, sigma)
            rep.hit()
            witness = None
            for u in u_reps:
                conj = multiply(invert(u), multiply(p_diag, u))
                if not is_permutation_diagram(conj):
                    witness = canonical_key(u)
                    break
            if witness is None:
                rep.inconclusive.append(("no_witness", "".join(word), sigma))
            else:
                rep.details.setdefault("excluded", []).append(
                    ("".join(word), sigma))
    rep.details["holds_within_bounds"] = not rep.inconclusive
    return rep


# -- rotative stabiliser ---------------------------------------------------------------


def rotative_stab_probe(g: BallGraph, J: Hyperplane, plus_verified: bool = False) -> Report:
    """Candidate rotative-stabiliser elements D.(eps(m)+eps(l,g)).D^-1 from a
    linear hyperplane's witness data, checked to stabilise every in-ball
    carrier clique and to act freely and transitively on one of them."""
    rep = Report("rotative_stabiliser")
    if J.kind != "linear" or not J.interior:
        raise ValueError("probe needs an interior linear hyperplane")
    if not plus_verified:
        raise ValueError("probe requires condition (+) verified for this configuration")
    rep.details["label"] = "candidates under (+)"
    if not J.carrier_cliques:
        rep.fail(("no_carrier_clique", J.hid))
        return rep
    carrier = _base_carrier(g, J)
    members = sorted(carrier)
    base = g.vertices[members[0]].rep
    # the carrier is a complete pin: its members share the base's key there
    position = next((pos for pos, key in enumerate(g.pin_keys[members[0]])
                     if key is not None and all(key in g.pin_keys[i] for i in carrier)),
                    None)
    if position is None:
        raise ValueError("carrier clique is not a pin of its base vertex")
    word = base.bot_word()
    spec = g.cfg.coeffs.spec(word[position])
    candidates = []  # the nontrivial ones: the identity fixes everything
    for gval in nontrivial_elements(spec):
        lin = atom_linear(base.pres, base.coeffs, word, position, gval,
                          annular=base.annular)
        candidates.append((gval, multiply(multiply(base, lin), invert(base))))
    base_images = []  # the key of each candidate's image of the base vertex
    for gval, cand in candidates:
        for clique in J.carrier_cliques:
            keys = {g.vertices[i].key for i in clique}
            image = {i: geometry_class_key(multiply(cand, g.vertices[i].rep), g.geometry)
                     for i in clique}
            rep.hit()
            if set(image.values()) != keys:
                rep.fail(("clique_not_stabilised", J.hid, coeff_serialize(gval), sorted(clique)))
            if clique is carrier:
                base_images.append(image[members[0]])
    # free and transitive on the base carrier clique
    base_key = g.vertices[members[0]].key
    orbit = {base_key}
    for (gval, _), moved in zip(candidates, base_images):
        rep.hit()
        if moved == base_key:
            rep.fail(("not_free", J.hid, coeff_serialize(gval)))
        orbit.add(moved)
    if orbit != {g.vertices[i].key for i in carrier}:
        rep.fail(("not_transitive", J.hid))
    rep.details["candidates"] = len(candidates) + 1  # the identity included
    return rep


# -- export ----------------------------------------------------------------------------


def to_dot(g: BallGraph) -> str:
    lines = ["graph ball {"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  n{i} [label="{v.key[-12:]}\\nlen {v.length}"];')
    for (i, j), (kind, witness) in sorted(g.edges.items()):
        if kind == "linear":
            letter, delta = witness
            lines.append(
                f'  n{i} -- n{j} [style=dashed, label="{letter},{coeff_serialize(delta)}"];')
        else:
            lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines)


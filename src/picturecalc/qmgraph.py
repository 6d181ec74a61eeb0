"""Finite-ball explorer and verifier for the quasi-median graphs X.

Vertices are classes of reduced (w,*)-diagrams (bottom permutations
quotiented per geometry), edges are unitary moves.  Distances are exact
and global: d([A],[B]) = length(A^-1 . B), so only containment questions
need boundary margins.

`pair_distance` evaluates that formula without building the product, by
matching the reduced A and B from the frame top.  Since A and B are each
reduced, every dipole cancelled while reducing A^-1 . B pairs one
transistor of A^-1 with one transistor of B (a dipole inside either half
would already be a dipole of A or of B), and every merged wire runs from
the A^-1 part down into the B part, so merges never chain.  Hence
length(A^-1 . B) = |A| + |B| - 2m + (wires of the reduced product with a
nontrivial coefficient), where m is the number of cancelled pairs; the
reduced product is unique by confluence, so the order of cancellation does
not matter.  Frame-top port i of A is mated with port i of B; a transistor
of A cancels with one of B when their top wires are mated slot by slot
with equal coefficients and their bottom label words agree, which mates
their bottom wires in turn.  A mated pair left over is one wire of the
product with coefficient c_a^-1 c_b, nontrivial iff c_a != c_b.

The verifiers check the weak-modularity axioms, the forbidden induced
subgraphs, the pin lemmas, hyperplane sector/gate structure, the technical
condition (+) and the rotative-stabiliser description of linear
hyperplanes, reporting any violating tuple.

A hyperplane is called interior when at least one member edge has both
endpoints within radius r-2; assertions quantify over margin-limited
vertices so that promised witnesses cannot be lost to the boundary, and
boundary-truncated observations are reported as inconclusive rather than
as counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coeff import coeff_serialize, identity as coeff_identity, nontrivial_elements
from .errors import CompositionError
from .moves import (
    BallConfig,
    apply_linear_move,
    bfs_classes,
    geometry_class_key,
    geometry_class_rep,
    neighbor_diagrams,
)
from .picture import (
    Diagram,
    atom_linear,
    atom_permutation,
    canonical_key,
    concat,
    eps,
    factorize,
    invert,
    is_permutation_diagram,
    length,
    multiply,
    reduce,
)


@dataclass(frozen=True)
class VertexClass:
    key: str
    rep: Diagram
    depth: int = 0

    @property
    def length(self) -> int:
        return length(self.rep)

    def __repr__(self):
        return f"<VertexClass len={self.length} {self.key[:24]}...>"


class BallGraph:
    """Radius-r piece of X with its edge kinds and witnesses."""

    def __init__(self, cfg: BallConfig, radius: int, vertices, edges):
        self.cfg = cfg
        self.radius = radius
        self.vertices: list[VertexClass] = vertices
        self.index = {v.key: i for i, v in enumerate(vertices)}
        self.edges = edges  # (i, j) -> (kind, witness), i < j
        self.adj: list[set[int]] = [set() for _ in vertices]
        for (i, j) in edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self._dist: dict[tuple[int, int], int] = {}
        self._hyperplanes: list[Hyperplane] | None = None

    @property
    def geometry(self) -> str:
        return self.cfg.geometry

    def depth(self, i: int) -> int:
        return self.vertices[i].depth

    def within(self, margin: int):
        return [i for i in range(len(self.vertices)) if self.depth(i) <= margin]

    def edge_kind(self, i: int, j: int) -> str:
        return self.edges[(i, j) if i < j else (j, i)][0]

    def distance(self, i: int, j: int) -> int:
        """Global distance via the length formula (valid beyond the ball)."""
        if i == j:
            return 0
        key = (i, j) if i < j else (j, i)
        out = self._dist.get(key)
        if out is None:
            out = pair_distance(self.vertices[key[0]], self.vertices[key[1]])
            self._dist[key] = out
        return out

    def bfs_distances(self, start: int) -> list[int | None]:
        out: list[int | None] = [None] * len(self.vertices)
        out[start] = 0
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for i in frontier:
                for j in self.adj[i]:
                    if out[j] is None:
                        out[j] = d
                        nxt.append(j)
            frontier = nxt
        return out

    def triangles(self, margin: int | None = None):
        lim = self.radius if margin is None else margin
        out = []
        for (i, j) in self.edges:
            if self.depth(i) > lim or self.depth(j) > lim:
                continue
            for k in self.adj[i] & self.adj[j]:
                if k > j and self.depth(k) <= lim:
                    out.append((i, j, k))
        return out


def neighbors(v: VertexClass, cfg: BallConfig) -> set[tuple[VertexClass, str]]:
    """All adjacent classes with the kind of a realizing unitary move."""
    out: dict[str, tuple[VertexClass, str]] = {}
    for d, kind, _ in neighbor_diagrams(v.rep, cfg):
        key = geometry_class_key(d, cfg.geometry)
        if key != v.key and key not in out:
            out[key] = (VertexClass(key, geometry_class_rep(d, cfg.geometry)), kind)
    return set(out.values())


def ball(base: Diagram, radius: int, cfg: BallConfig) -> BallGraph:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    reps, depths, edges = bfs_classes(base, radius, cfg)
    vertices = [VertexClass(geometry_class_key(rep, cfg.geometry), rep, depth)
                for rep, depth in zip(reps, depths)]
    return BallGraph(cfg, radius, vertices, edges)


def pair_distance(a: VertexClass, b: VertexClass) -> int:
    """length(A^-1 . B) by matching the reduced A and B from the frame top,
    without building the product (see the module docstring)."""
    da = a.rep if a.rep._reduced else reduce(a.rep)
    db = b.rep if b.rep._reduced else reduce(b.rep)
    if da.top_word() != db.top_word():
        raise CompositionError("vertices live over different basewords")
    if da.pres != db.pres or da.coeffs != db.coeffs:
        raise CompositionError("presentation or coefficient system mismatch")
    a_wires, b_wires = da.wires, db.wires
    a_bot, b_bot = da.wire_bot, db.wire_bot
    a_top, b_top = da.t_top, db.t_top
    # mate: A-wire -> B-wire merged with it in the product
    mate = dict(zip(da.top_ports, db.top_ports))
    unmated_tops = {}          # A-transistor -> top wires not yet mated
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
        # every top wire of ta is mated: test the dipole against its partner
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
    # the connecting wires of cancelled pairs are mated with equal
    # coefficients, so counting every mated pair counts them as trivial
    nontrivial = 0
    for w, (_, c) in a_wires.items():
        m = mate.get(w)
        if m is None:
            nontrivial += not c.is_identity()
        else:
            nontrivial += c != b_wires[m][1]
    mated_b = set(mate.values())
    for w, (_, c) in b_wires.items():
        if w not in mated_b:
            nontrivial += not c.is_identity()
    return len(da.transistors) + len(db.transistors) - 2 * cancelled + nontrivial


def geodesic(a: VertexClass, b: VertexClass, cfg: BallConfig) -> list[VertexClass]:
    """Vertex path of length pair_distance(a,b) built from factor prefixes."""
    g = multiply(invert(a.rep), b.rep)
    lead, factors = factorize(g)
    path = [a]
    cur = concat(a.rep, lead)
    for u, p in factors:
        cur = multiply(cur, u)
        key = geometry_class_key(cur, cfg.geometry)
        path.append(VertexClass(key, geometry_class_rep(cur, cfg.geometry)))
        cur = concat(cur, p)
    assert path[-1].key == b.key
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
    inner = [i for i in g.within(margin)]
    inner_set = set(inner)
    n = len(g.vertices)
    # triangle condition
    for (v, w) in g.edges:
        if v not in inner_set or w not in inner_set:
            rep.skipped += 1
            continue
        commons = g.adj[v] & g.adj[w]
        for u in range(n):
            k = g.distance(u, v)
            if k != g.distance(u, w) or u in (v, w):
                continue
            rep.hit()
            if not any(g.distance(u, x) == k - 1 for x in commons):
                rep.fail(("triangle", u, v, w))
    # quadrangle condition
    for z in range(n):
        nbrs = sorted(g.adj[z])
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                v, w = nbrs[ai], nbrs[bi]
                if v not in inner_set or w not in inner_set:
                    rep.skipped += 1
                    continue
                if w in g.adj[v]:
                    continue
                commons = (g.adj[v] & g.adj[w]) - {z}
                for u in range(n):
                    k = g.distance(u, z)
                    if g.distance(u, v) != k - 1 or g.distance(u, w) != k - 1:
                        continue
                    rep.hit()
                    if not any(g.distance(u, x) == k - 2 for x in commons):
                        rep.fail(("quadrangle", u, z, v, w))
    # induced K4- : an edge with two nonadjacent common neighbors
    for (a, b) in g.edges:
        if a not in inner_set or b not in inner_set:
            continue
        commons = sorted((g.adj[a] & g.adj[b]) & inner_set)
        rep.hit()
        for ci in range(len(commons)):
            for di in range(ci + 1, len(commons)):
                c, d = commons[ci], commons[di]
                if d not in g.adj[c]:
                    rep.fail(("K4-", a, b, c, d))
    # induced K3,2: two nonadjacent vertices with 3 pairwise nonadjacent commons
    for a in inner:
        for b in inner:
            if b <= a or b in g.adj[a]:
                continue
            commons = sorted((g.adj[a] & g.adj[b]) & inner_set)
            if len(commons) < 3:
                continue
            rep.hit()
            for ci in range(len(commons)):
                for di in range(ci + 1, len(commons)):
                    c, d = commons[ci], commons[di]
                    if d in g.adj[c]:
                        continue
                    for ei in range(di + 1, len(commons)):
                        e = commons[ei]
                        if e not in g.adj[c] and e not in g.adj[d]:
                            rep.fail(("K3,2", a, b, c, d, e))
    rep.details["triangle_free"] = not g.triangles()
    return rep


# -- pins ---------------------------------------------------------------------------


def _pin_members(g: BallGraph, i: int, position: int):
    """Keys of the pin through vertex i at the given bottom position."""
    repd = g.vertices[i].rep
    wid = repd.bottom_ports[position]
    letter, _ = repd.wires[wid]
    spec = g.cfg.coeffs.spec(letter)
    keys = []
    for value in [coeff_identity(spec)] + list(nontrivial_elements(spec)):
        wires = dict(repd.wires)
        wires[wid] = (letter, value)
        d = Diagram(repd.pres, repd.coeffs, wires, repd.transistors, repd.t_top,
                    repd.t_bot, repd.top_ports, repd.bottom_ports, repd.annular,
                    _reduced=True)
        keys.append(geometry_class_key(d, g.geometry))
    return frozenset(keys), letter


def enumerate_pins(g: BallGraph):
    """All pins meeting the ball, as (frozenset of keys, letter, complete)."""
    seen: dict[frozenset, tuple[str, bool]] = {}
    for i, v in enumerate(g.vertices):
        repd = v.rep
        for position, wid in enumerate(repd.bottom_ports):
            letter = repd.wires[wid][0]
            spec = g.cfg.coeffs.spec(letter)
            if not nontrivial_elements(spec):
                continue
            pin, letter = _pin_members(g, i, position)
            complete = all(k in g.index for k in pin)
            seen.setdefault(pin, (letter, complete))
    return [(pin, letter, complete) for pin, (letter, complete) in seen.items()]


def pins_report(g: BallGraph) -> Report:
    rep = Report("pins")
    pins = enumerate_pins(g)
    complete = []
    for pin, letter, is_complete in pins:
        if not is_complete:
            rep.skipped += 1
            continue
        spec = g.cfg.coeffs.spec(letter)
        size = 1 + len(nontrivial_elements(spec))
        rep.hit()
        if len(pin) != size:
            rep.fail(("pin_size", letter, len(pin), size))
        ids = frozenset(g.index[k] for k in pin)
        complete.append(ids)
        for a in ids:
            for b in ids:
                if a < b and b not in g.adj[a]:
                    rep.fail(("pin_not_clique", a, b))
    for x in range(len(complete)):
        for y in range(x + 1, len(complete)):
            rep.hit()
            if len(complete[x] & complete[y]) > 1:
                rep.fail(("pin_intersection", sorted(complete[x] & complete[y])))
    margin = g.radius - 1
    for (a, b, c) in g.triangles(margin):
        rep.hit()
        if not any({a, b, c} <= pin for pin in complete):
            rep.fail(("triangle_outside_pins", a, b, c))
    # every linear edge lies in a pin
    for (i, j), (kind, witness) in g.edges.items():
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
    n = len(g.vertices)
    for a in range(n):
        for c in range(a + 1, n):
            if c in g.adj[a]:
                continue
            commons = sorted(g.adj[a] & g.adj[c])
            for x in range(len(commons)):
                for y in range(x + 1, len(commons)):
                    b, d = commons[x], commons[y]
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
    if g._hyperplanes is None:
        g._hyperplanes = _hyperplanes(g)
    return g._hyperplanes


def _hyperplanes(g: BallGraph) -> list[Hyperplane]:
    uf = _UnionFind(list(g.edges))

    def norm(i, j):
        return (i, j) if i < j else (j, i)

    pins = [pin for pin, _, complete in enumerate_pins(g) if complete]
    pin_ids = [frozenset(g.index[k] for k in pin) for pin in pins]
    for ids in pin_ids:
        members = sorted(ids)
        first = None
        for a in members:
            for b in members:
                if a < b and (a, b) in g.edges:
                    if first is None:
                        first = (a, b)
                    else:
                        uf.union(first, (a, b))
    for (a, b, c, d) in induced_squares(g):
        uf.union(norm(a, b), norm(c, d))
        uf.union(norm(b, c), norm(d, a))
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in g.edges:
        groups.setdefault(uf.find(e), []).append(e)
    margin = g.radius - 2
    out = []
    for hid, (root, members) in enumerate(sorted(groups.items())):
        kinds = {g.edge_kind(*e) for e in members}
        kind = kinds.pop() if len(kinds) == 1 else "mixed"
        carriers: list[frozenset[int]] = []
        if kind == "linear":
            for ids in pin_ids:
                vs = sorted(ids)
                if any((min(a, b), max(a, b)) in set(members)
                       for i, a in enumerate(vs) for b in vs[i + 1:]):
                    carriers.append(ids)
        else:
            carriers = [frozenset(e) for e in members]
        interior = any(g.depth(i) <= margin and g.depth(j) <= margin
                       for (i, j) in members)
        out.append(Hyperplane(hid, kind, sorted(members), carriers, interior))
    return out


def _certified_geodesic_edges(g: BallGraph, rep: Report):
    """Edge lists of one geodesic per vertex pair whose whole interval is
    certified to lie in the ball: every point p of a geodesic x..y has
    d(base,p) <= (d(base,x)+d(base,y)+d(x,y))/2."""
    out = []
    n = len(g.vertices)
    for x in range(n):
        for y in range(x + 1, n):
            dxy = g.distance(x, y)
            if g.depth(x) + g.depth(y) + dxy > 2 * g.radius:
                continue
            path = geodesic(g.vertices[x], g.vertices[y], g.cfg)
            ids = [g.index.get(p.key) for p in path]
            if any(i is None for i in ids):
                rep.inconclusive.append(("geodesic_left_ball", x, y))
                continue
            out.append((x, y, [((a, b) if a < b else (b, a))
                               for a, b in zip(ids, ids[1:])]))
    return out


def hyperplanes_report(g: BallGraph) -> Report:
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
        # (1) sectors vs projection fibers over a carrier clique
        carrier = min(J.carrier_cliques, key=lambda c: (max(g.depth(i) for i in c), sorted(c)))
        comp = _UnionFind(range(len(g.vertices)))
        for (i, j) in g.edges:
            if (i, j) not in member_set:
                comp.union(i, j)
        gates: dict[int, int] = {}
        gate_ok = True
        for x in range(len(g.vertices)):
            dists = sorted((g.distance(x, c), c) for c in carrier)
            if len(dists) > 1 and dists[0][0] == dists[1][0]:
                rep.fail(("gate_not_unique", J.hid, x, sorted(carrier)))
                gate_ok = False
                continue
            gates[x] = dists[0][1]
        rep.hit()
        if gate_ok:
            for xi in range(len(inner)):
                for yi in range(xi + 1, len(inner)):
                    x, y = inner[xi], inner[yi]
                    same_comp = comp.find(x) == comp.find(y)
                    same_fiber = gates[x] == gates[y]
                    if same_comp and not same_fiber:
                        rep.fail(("sector_mismatch", J.hid, x, y))
                    elif same_fiber and not same_comp:
                        rep.inconclusive.append(("sector_truncated", J.hid, x, y))
        # (2) geodesics cross the hyperplane at most once
        for x, y, path_edges in geodesics:
            crossings = sum(1 for e in path_edges if e in member_set)
            rep.hit()
            if crossings > 1:
                rep.fail(("double_crossing", J.hid, x, y, crossings))
        # (3) linear-hyperplane witness form for every member linear edge
        if J.kind == "linear":
            for (i, j) in J.member_edges:
                rep.hit()
                if not _linear_edge_witness_ok(g, i, j):
                    rep.fail(("linear_edge_form", J.hid, i, j))
    return rep


def _linear_edge_witness_ok(g: BallGraph, i: int, j: int) -> bool:
    """Endpoints must differ by one bottom coefficient: [D.(U+eps(l,g))] vs
    [D.(U+eps(l,h))]."""
    u, v = g.vertices[i].rep, g.vertices[j].rep
    for position, wid in enumerate(u.bottom_ports):
        letter = u.wires[wid][0]
        spec = g.cfg.coeffs.spec(letter)
        for gval in nontrivial_elements(spec):
            cand = apply_linear_move(u, position, gval)
            if geometry_class_key(cand, g.geometry) == g.vertices[j].key:
                return True
    return False


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
                    counts = list(m)
                    ok = True
                    for letter in a:
                        if letter in counts:
                            counts.remove(letter)
                        else:
                            ok = False
                            break
                    if not ok:
                        continue
                    new = tuple(sorted(counts + list(b)))
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
    from itertools import permutations

    from .coeff import TrivialSpec, trivial_system

    rep = Report("condition_plus")
    triv = trivial_system(pres.alphabet)
    nontriv_letters = [a for a in pres.alphabet
                       if not isinstance(coeffs.spec(a), TrivialSpec)]
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
        u_reps, _, _ = bfs_classes(eps(pres, triv, word), budget, cfg)
        perms = sorted(set(permutations(range(len(word)))))
        for sigma in perms:
            if sigma == tuple(range(len(word))):
                continue
            if any(word[i] != word[sigma[i]] for i in range(len(word))):
                continue
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
    carrier = min(J.carrier_cliques, key=lambda c: (max(g.depth(i) for i in c), sorted(c)))
    members = sorted(carrier)
    base = g.vertices[members[0]].rep
    position = None
    letter = None
    for pos, wid in enumerate(base.bottom_ports):
        lab = base.wires[wid][0]
        spec = g.cfg.coeffs.spec(lab)
        if not nontrivial_elements(spec):
            continue
        pin, _ = _pin_members(g, members[0], pos)
        if pin == frozenset(g.vertices[i].key for i in carrier):
            position = pos
            letter = lab
            break
    if position is None:
        raise ValueError("carrier clique is not a pin of its base vertex")
    spec = g.cfg.coeffs.spec(letter)
    word = base.bot_word()
    candidates = [(None, None)]
    for gval in nontrivial_elements(spec):
        lin = atom_linear(base.pres, base.coeffs, word, position, gval,
                          annular=base.annular)
        cand = multiply(multiply(base, lin), invert(base))
        candidates.append((gval, cand))
    # identity candidate fixes everything
    for gval, cand in candidates:
        if cand is None:
            continue
        for clique in J.carrier_cliques:
            keys = {g.vertices[i].key for i in clique}
            image = set()
            for i in clique:
                moved = multiply(cand, g.vertices[i].rep)
                image.add(geometry_class_key(moved, g.geometry))
            rep.hit()
            if image != keys:
                rep.fail(("clique_not_stabilised", J.hid, coeff_serialize(gval), sorted(clique)))
    # free and transitive on the base carrier clique
    base_key = g.vertices[members[0]].key
    orbit = {base_key}
    for gval, cand in candidates:
        if cand is None:
            continue
        moved = geometry_class_key(multiply(cand, base), g.geometry)
        rep.hit()
        if moved == base_key:
            rep.fail(("not_free", J.hid, coeff_serialize(gval)))
        orbit.add(moved)
    if orbit != {g.vertices[i].key for i in carrier}:
        rep.fail(("not_transitive", J.hid))
    rep.details["candidates"] = len(candidates)
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


def to_json_dict(g: BallGraph) -> dict:
    return {
        "geometry": g.geometry,
        "radius": g.radius,
        "vertices": [
            {"key": v.key, "depth": v.depth, "length": v.length}
            for v in g.vertices
        ],
        "edges": [
            {"a": i, "b": j, "kind": kind,
             "witness": _witness_json(kind, witness)}
            for (i, j), (kind, witness) in sorted(g.edges.items())
        ],
    }


def _witness_json(kind, witness):
    if kind == "linear":
        letter, delta = witness
        return {"letter": letter, "delta": coeff_serialize(delta)}
    rel_index, direction, positions = witness
    return {"relation": rel_index, "direction": direction,
            "positions": list(positions)}

import pytest

from picturecalc.coeff import CyclicSpec, free_element, make_system, spec_parse, trivial_system
from picturecalc.embed import gamma
from picturecalc.errors import CompositionError
from picturecalc.moves import BallConfig, apply_linear_move, apply_transistor_move, geometry_class_key
from picturecalc.picture import Diagram, canonical_key, eps, length, multiply, reduce
from picturecalc.presentation import builtin_presentation, parse_presentation
from picturecalc.qmgraph import (
    BallGraph,
    VertexClass,
    ball,
    condition_plus_check,
    geodesic,
    hyperplanes,
    hyperplanes_report,
    neighbors,
    pair_distance,
    pins_report,
    rotative_stab_probe,
    to_dot,
    to_json_dict,
    verify_qm_axioms,
)
from picturecalc.sampling import random_element, random_unreduced

from oracles import pair_distance_oracle

Q, _ = builtin_presentation("thompson")
TRIV = trivial_system(Q.alphabet)
CYC2 = make_system(Q.alphabet, {"x": CyclicSpec(2)})
CYC3 = make_system(Q.alphabet, {"x": CyclicSpec(3)})


def mkvertex(d, cfg):
    from picturecalc.moves import geometry_class_rep, normalize_base
    rep = normalize_base(d, cfg)
    return VertexClass(geometry_class_key(rep, cfg.geometry), rep)


def test_neighbors_public_op():
    cfg = BallConfig(Q, TRIV)
    v = mkvertex(eps(Q, TRIV, "x"), cfg)
    out = neighbors(v, cfg)
    assert len(out) == 1
    (w, kind), = out
    assert kind == "transistor" and length(w.rep) == 1
    cfg2 = BallConfig(Q, CYC2)
    v2 = mkvertex(eps(Q, CYC2, "x"), cfg2)
    assert len(neighbors(v2, cfg2)) == 2


def test_ball_radius_zero_and_one():
    cfg = BallConfig(Q, TRIV)
    g0 = ball(eps(Q, TRIV, "x"), 0, cfg)
    assert len(g0.vertices) == 1 and not g0.edges
    g1 = ball(eps(Q, TRIV, "x"), 1, cfg)
    assert len(g1.vertices) == 2 and len(g1.edges) == 1


def test_pair_distance_basics():
    cfg = BallConfig(Q, TRIV)
    v = mkvertex(eps(Q, TRIV, "x"), cfg)
    assert pair_distance(v, v) == 0
    g3 = mkvertex(gamma(3), cfg)
    assert pair_distance(v, g3) == 3


def test_pair_distance_equals_bfs():
    for coeffs, r in [(TRIV, 3), (CYC2, 3)]:
        cfg = BallConfig(Q, coeffs)
        g = ball(eps(Q, coeffs, "x"), r, cfg)
        for i in range(len(g.vertices)):
            bfs = g.bfs_distances(i)
            for j in range(i + 1, len(g.vertices)):
                formula = g.distance(i, j)
                assert bfs[j] is not None
                assert bfs[j] >= formula
                if (g.depth(i) + g.depth(j) + formula) / 2 <= r:
                    assert bfs[j] == formula


def test_pair_distance_matches_product_formula_on_balls():
    abc, abc_word = builtin_presentation("commuting_abc")
    abc_cyc2 = make_system(abc.alphabet, {"a": CyclicSpec(2)})
    # two relations share the side a: equal top wires alone make no dipole
    forked = parse_presentation("<a,b,c | a=b, a=c>")
    forked_triv = trivial_system(forked.alphabet)
    for base, cfg, radius in [
        (eps(Q, CYC2, "x"), BallConfig(Q, CYC2, "braided"), 3),
        (eps(Q, CYC2, "x", annular=True), BallConfig(Q, CYC2, "annular"), 3),
        (eps(Q, CYC3, "x"), BallConfig(Q, CYC3, "planar"), 3),
        (eps(abc, abc_cyc2, abc_word), BallConfig(abc, abc_cyc2), 2),
        (eps(forked, forked_triv, "a"), BallConfig(forked, forked_triv), 2),
    ]:
        g = ball(base, radius, cfg)
        for a in g.vertices:
            for b in g.vertices:
                assert pair_distance(a, b) == pair_distance_oracle(a, b)


def _free_labelled(d, coeffs, rng):
    """d with a short random element of the free group on every wire."""
    spec = coeffs.spec("x")
    wires = {w: (label, free_element(spec, [(rng.choice(spec.generators),
                                             rng.choice((1, -1)))
                                            for _ in range(rng.randrange(2))]))
             for w, (label, _) in d.wires.items()}
    out = Diagram(d.pres, coeffs, wires, d.transistors, d.t_top, d.t_bot,
                  d.top_ports, d.bottom_ports, d.annular)
    out.validate()
    return reduce(out)


def test_pair_distance_matches_product_formula_free_coefficients(rng):
    free2 = make_system(Q.alphabet, {"x": spec_parse("free:2")})
    for _ in range(40):
        a = _free_labelled(random_element(Q, TRIV, "x", rng, steps=3), free2, rng)
        u = _free_labelled(random_element(Q, TRIV, "x", rng, steps=3), free2, rng)
        # b shares a's prefix half the time, so that transistors cancel
        b = multiply(a, u) if rng.randrange(2) else u
        va, vb = (VertexClass(canonical_key(d), d) for d in (a, b))
        assert pair_distance(va, vb) == pair_distance_oracle(va, vb)
        assert pair_distance(vb, va) == pair_distance_oracle(vb, va)


def test_pair_distance_unreduced_rep_and_basewords(rng):
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 2, cfg)
    for _ in range(20):
        d = random_unreduced(Q, CYC2, "x", 4, rng)
        assert not d._reduced
        v = VertexClass(canonical_key(d), d)
        for w in g.vertices:
            assert pair_distance(v, w) == pair_distance_oracle(v, w)
            assert pair_distance(w, v) == pair_distance_oracle(w, v)
    other = mkvertex(eps(Q, CYC2, "xx"), cfg)
    with pytest.raises(CompositionError):
        pair_distance(g.vertices[0], other)


def test_depth_is_formula_distance_to_base():
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg)
    for j in range(len(g.vertices)):
        assert g.distance(0, j) == g.depth(j)


def test_geodesic_properties():
    cfg = BallConfig(Q, TRIV)
    v = mkvertex(eps(Q, TRIV, "x"), cfg)
    assert [p.key for p in geodesic(v, v, cfg)] == [v.key]
    g2 = mkvertex(gamma(2), cfg)
    path = geodesic(v, g2, cfg)
    assert len(path) == 3
    lengths = [length(p.rep) for p in path]
    assert lengths == [0, 1, 2]
    for a, b in zip(path, path[1:]):
        assert pair_distance(a, b) == 1
    for k, p in enumerate(path):
        assert pair_distance(p, g2) == 2 - k


def test_geodesic_random_vertices(rng):
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg)
    idx = [rng.randrange(len(g.vertices)) for _ in range(12)]
    for i in idx:
        j = rng.randrange(len(g.vertices))
        a, b = g.vertices[i], g.vertices[j]
        path = geodesic(a, b, cfg)
        assert len(path) == g.distance(i, j) + 1
        for u, v in zip(path, path[1:]):
            assert pair_distance(u, v) == 1


def test_qm_axioms_pass_small():
    for coeffs in (TRIV, CYC2, CYC3):
        cfg = BallConfig(Q, coeffs)
        g = ball(eps(Q, coeffs, "x"), 3, cfg)
        rep = verify_qm_axioms(g)
        assert rep.passed, rep.violations[:3]
        if coeffs is TRIV:
            assert rep.details["triangle_free"]
        if coeffs is CYC3:
            assert not rep.details["triangle_free"]


def test_qm_axioms_catch_broken_graph():
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg)
    # delete a vertex that some quadrangle/triangle witness needs
    candidates = [i for i in range(1, len(g.vertices)) if g.depth(i) <= 2]
    broken = None
    for kill in candidates:
        keep = [i for i in range(len(g.vertices)) if i != kill]
        remap = {old: new for new, old in enumerate(keep)}
        verts = [g.vertices[i] for i in keep]
        edges = {(remap[i], remap[j]): v for (i, j), v in g.edges.items()
                 if i != kill and j != kill}
        broken = BallGraph(g.cfg, g.radius, verts, edges)
        rep = verify_qm_axioms(broken)
        if not rep.passed:
            break
    assert broken is not None and not rep.passed


def test_pins_trivial_and_cyclic():
    cfg = BallConfig(Q, TRIV)
    g = ball(eps(Q, TRIV, "x"), 3, cfg)
    rep = pins_report(g)
    assert rep.passed
    assert rep.details["pin_count"] == 0
    assert not g.triangles()

    cfg2 = BallConfig(Q, CYC2)
    g2 = ball(eps(Q, CYC2, "x"), 3, cfg2)
    rep2 = pins_report(g2)
    assert rep2.passed
    assert rep2.details["max_pin_size"] == 2

    cfg3 = BallConfig(Q, CYC3)
    g3 = ball(eps(Q, CYC3, "x"), 2, cfg3)
    rep3 = pins_report(g3)
    assert rep3.passed
    assert rep3.details["max_pin_size"] == 3
    assert g3.triangles()


def test_edge_length_law():
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg)
    for (i, j), (kind, _) in g.edges.items():
        di, dj = length(g.vertices[i].rep), length(g.vertices[j].rep)
        if kind == "transistor":
            assert abs(di - dj) == 1
        else:
            assert abs(di - dj) in (0, 1)


def test_at_most_two_geodesics_distance_two():
    for coeffs in (TRIV, CYC2):
        cfg = BallConfig(Q, coeffs)
        g = ball(eps(Q, coeffs, "x"), 3, cfg)
        inner = g.within(g.radius - 1)
        for x in inner:
            for y in inner:
                if y <= x or g.distance(x, y) != 2:
                    continue
                mids = [m for m in g.adj[x] & g.adj[y]]
                assert len(mids) <= 2


def _moves_with_ids(g, i):
    """(kind, wire ids, params, resulting key) for each move from vertex i."""
    from picturecalc.coeff import TrivialSpec, nontrivial_elements
    from picturecalc.picture import rel_sides

    rep = g.vertices[i].rep
    labels = rep.bot_word()
    cfg = g.cfg
    out = []
    from picturecalc.moves import _feed_tuples
    for rel_index in range(len(cfg.pres.relations)):
        for direction in (1, -1):
            consumed, _ = rel_sides(cfg.pres, rel_index, direction)
            for positions in _feed_tuples(labels, consumed, cfg.geometry):
                res = reduce(apply_transistor_move(rep, rel_index, direction,
                                                   positions, cfg.geometry))
                key = geometry_class_key(res, cfg.geometry)
                ids = frozenset(rep.bottom_ports[p] for p in positions)
                out.append(("transistor", ids, (rel_index, direction, positions), key))
    for position, letter in enumerate(labels):
        spec = cfg.coeffs.spec(letter)
        if isinstance(spec, TrivialSpec):
            continue
        for val in nontrivial_elements(spec):
            res = apply_linear_move(rep, position, val)
            key = geometry_class_key(res, cfg.geometry)
            ids = frozenset([rep.bottom_ports[position]])
            out.append(("linear", ids, (position, val), key))
    return out


def test_square_structure_sum_form():
    from picturecalc.qmgraph import induced_squares
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg)
    squares = induced_squares(g)
    assert squares
    checked = 0
    for (a, b, c, d) in squares:
        corners = [(length(g.vertices[v].rep), v) for v in (a, b, c, d)]
        base = min(corners)[1]
        cycle = {a: (b, d), c: (b, d), b: (a, c), d: (a, c)}
        nb1, nb2 = cycle[base]
        far = ({a, b, c, d} - {base, nb1, nb2}).pop()
        if g.depth(base) > g.radius - 2:
            continue
        moves = _moves_with_ids(g, base)
        found = False
        for k1, ids1, par1, key1 in moves:
            if key1 != g.vertices[nb1].key:
                continue
            for k2, ids2, par2, key2 in moves:
                if key2 != g.vertices[nb2].key or (ids1 & ids2):
                    continue
                rep = g.vertices[base].rep
                if k1 == "transistor":
                    mid = reduce(apply_transistor_move(rep, *par1, cfg.geometry))
                else:
                    mid = apply_linear_move(rep, *par1)
                # re-apply move 2 on the same wires inside mid
                ports = list(mid.bottom_ports)
                if k2 == "transistor":
                    rel_index, direction, positions = par2
                    ids_in_order = [rep.bottom_ports[p] for p in positions]
                    if not all(w in ports for w in ids_in_order):
                        continue
                    newpos = tuple(ports.index(w) for w in ids_in_order)
                    both = reduce(apply_transistor_move(mid, rel_index, direction,
                                                        newpos, cfg.geometry))
                else:
                    position, val = par2
                    wid = rep.bottom_ports[position]
                    if wid not in ports:
                        continue
                    both = apply_linear_move(mid, ports.index(wid), val)
                if geometry_class_key(both, cfg.geometry) == g.vertices[far].key:
                    found = True
                    break
            if found:
                break
        assert found, f"square {(a, b, c, d)} has no disjoint sum decomposition"
        checked += 1
    assert checked


def test_hyperplanes_report_small():
    for coeffs in (TRIV, CYC2):
        cfg = BallConfig(Q, coeffs)
        g = ball(eps(Q, coeffs, "x"), 3, cfg)
        rep = hyperplanes_report(g)
        assert rep.passed, rep.violations[:3]
        assert rep.details["interior"] >= 1


def test_single_hyperplane_two_sectors():
    cfg = BallConfig(Q, TRIV)
    g = ball(eps(Q, TRIV, "x"), 2, cfg)
    hyps = hyperplanes(g)
    root_edge_hyp = [J for J in hyps if (0, 1) in J.member_edges]
    assert len(root_edge_hyp) == 1
    J = root_edge_hyp[0]
    assert J.kind == "transistor"
    # removing it separates [eps] from everything else in the ball
    from picturecalc.qmgraph import _UnionFind
    comp = _UnionFind(range(len(g.vertices)))
    for e in g.edges:
        if e not in set(J.member_edges):
            comp.union(*e)
    comps = {comp.find(i) for i in range(len(g.vertices))}
    assert len(comps) == 2


def test_condition_plus_thompson():
    rep = condition_plus_check(Q, CYC2, ("x",), 2, 2)
    assert rep.passed and not rep.inconclusive
    assert rep.details["holds_within_bounds"]
    assert rep.checked >= 1  # the swap on x^2 at least


def test_condition_plus_counterexample():
    pres = parse_presentation("<a,p | a=a.p>")
    coeffs = make_system(pres.alphabet, {"a": CyclicSpec(2)})
    rep = condition_plus_check(pres, coeffs, ("p", "p", "a"), 2, 2)
    assert not rep.details["holds_within_bounds"]
    assert any(v[0] == "no_witness" and v[1] == "pp" for v in rep.inconclusive)


def test_rotative_stab_probe_cyclic():
    for coeffs, size in ((CYC2, 2), (CYC3, 3)):
        cfg = BallConfig(Q, coeffs)
        g = ball(eps(Q, coeffs, "x"), 3, cfg)
        hyps = [J for J in hyperplanes(g) if J.kind == "linear" and J.interior]
        assert hyps
        J = hyps[0]
        rep = rotative_stab_probe(g, J, plus_verified=True)
        assert rep.passed, rep.violations[:3]
        assert rep.details["candidates"] == size
        assert rep.details["label"] == "candidates under (+)"
        with pytest.raises(ValueError):
            rotative_stab_probe(g, J, plus_verified=False)


def test_exports():
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 2, cfg)
    dot = to_dot(g)
    assert dot.startswith("graph ball {") and "--" in dot and "dashed" in dot
    js = to_json_dict(g)
    assert js["radius"] == 2 and len(js["vertices"]) == len(g.vertices)
    kinds = {e["kind"] for e in js["edges"]}
    assert kinds == {"transistor", "linear"}


def test_qm_axioms_annular_planar_balls():
    # the annular and planar picture-product graphs are convex subgraphs of
    # the braided one, hence quasi-median in their own right
    for geometry in ("annular", "planar"):
        cfg = BallConfig(Q, CYC2, geometry)
        g = ball(eps(Q, CYC2, "x", annular=(geometry == "annular")), 3, cfg)
        assert verify_qm_axioms(g).passed
        assert pins_report(g).passed
        assert hyperplanes_report(g).passed

import ast
import hashlib
import json
import re
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from picturecalc import moves, picture, qmgraph
from picturecalc.coeff import CyclicSpec, free_element, make_system, spec_parse, trivial_system
from picturecalc.embed import gamma
from picturecalc.errors import CompositionError
from picturecalc.io import ball_text
from picturecalc.moves import BallConfig, apply_linear_move, geometry_class_key
from picturecalc.picture import (
    Diagram,
    apply_transistor_move,
    atom_transistor,
    canonical_key,
    concat,
    eps,
    length,
    multiply,
    reduce,
)
from picturecalc.presentation import builtin_presentation, parse_presentation
from picturecalc.qmgraph import (
    BallGraph,
    Hyperplane,
    VertexClass,
    _descent_path,
    _linear_edge_witness_ok,
    ball,
    condition_plus_check,
    enumerate_pins,
    geodesic,
    hyperplanes,
    hyperplanes_report,
    induced_squares,
    neighbors,
    pair_distance,
    pins_report,
    rotative_stab_probe,
    to_dot,
    verify_qm_axioms,
)
from picturecalc.sampling import random_element, random_unreduced, random_walk_diagram

from oracles import (
    bfs_distances_oracle,
    hyperplanes_report_oracle,
    induced_squares_oracle,
    linear_carriers_oracle,
    linear_edge_witness_oracle,
    pair_distance_matching_oracle,
    pair_distance_oracle,
    pins_oracle,
    pins_report_oracle,
    qm_axioms_oracle,
    triangles_oracle,
)

Q, _ = builtin_presentation("thompson")
TRIV = trivial_system(Q.alphabet)
CYC2 = make_system(Q.alphabet, {"x": CyclicSpec(2)})
CYC3 = make_system(Q.alphabet, {"x": CyclicSpec(3)})
ABC, ABC_WORD = builtin_presentation("commuting_abc")
ABC_CYC2 = make_system(ABC.alphabet, {"a": CyclicSpec(2)})


def mkvertex(d, cfg):
    from picturecalc.moves import normalize_base
    rep = normalize_base(d, cfg)
    return VertexClass(geometry_class_key(rep, cfg.geometry), rep, length(rep))


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
            bfs = bfs_distances_oracle(g, i)
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
        va, vb = (VertexClass(canonical_key(d), d, length(d)) for d in (a, b))
        assert pair_distance(va, vb) == pair_distance_oracle(va, vb)
        assert pair_distance(vb, va) == pair_distance_oracle(vb, va)


def test_pair_distance_unreduced_rep_and_basewords(rng):
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 2, cfg)
    for _ in range(20):
        d = random_unreduced(Q, CYC2, "x", 4, rng)
        assert not d._reduced
        v = VertexClass(canonical_key(d), d, length(d))
        for w in g.vertices:
            assert pair_distance(v, w) == pair_distance_oracle(v, w)
            assert pair_distance(w, v) == pair_distance_oracle(w, v)
    other = mkvertex(eps(Q, CYC2, "xx"), cfg)
    with pytest.raises(CompositionError, match="different basewords"):
        pair_distance(g.vertices[0], other)
    plain = mkvertex(eps(Q, TRIV, "x"), BallConfig(Q, TRIV))
    with pytest.raises(CompositionError, match="coefficient system mismatch"):
        pair_distance(g.vertices[0], plain)
    with pytest.raises(CompositionError, match="coefficient system mismatch"):
        BallGraph(cfg, 2, g.vertices + [plain], g.edges).row(0)


def test_rows_match_matching_oracle_on_every_pair():
    abc, abc_word = builtin_presentation("commuting_abc")
    abc_cyc2 = make_system(abc.alphabet, {"a": CyclicSpec(2)})
    cases = [
        (eps(Q, CYC2, "x"), BallConfig(Q, CYC2, "braided"), 3),
        (eps(Q, CYC2, "x", annular=True), BallConfig(Q, CYC2, "annular"), 3),
        (eps(Q, CYC2, "x"), BallConfig(Q, CYC2, "planar"), 3),
        (eps(abc, abc_cyc2, abc_word), BallConfig(abc, abc_cyc2), 2),
    ]
    for name, params in (("higman", (3, 1)), ("houghton", (2, 0))):
        pres, word = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        cases.append((eps(pres, triv, word), BallConfig(pres, triv), 2))
    for base, cfg, radius in cases:
        g = ball(base, radius, cfg)
        assert len(g.vertices) > 3
        for i, a in enumerate(g.vertices):
            assert list(g.row(i)) == [pair_distance_matching_oracle(a, b) for b in g.vertices]


def test_rows_match_product_formula_around_random_bases(rng):
    abc, abc_word = builtin_presentation("commuting_abc")
    abc_cyc2 = make_system(abc.alphabet, {"a": CyclicSpec(2)})
    for pres, coeffs, word, geometry in [(Q, CYC2, "x", "braided"), (Q, CYC2, "x", "annular"),
                                         (Q, CYC3, "x", "planar"),
                                         (abc, abc_cyc2, abc_word, "braided")]:
        cfg = BallConfig(pres, coeffs, geometry)
        for walk in (False, True):
            base = (random_walk_diagram(pres, coeffs, word, 3, rng, geometry) if walk
                    else random_element(pres, coeffs, word, rng, geometry, steps=3))
            g = ball(base, 2, cfg)
            n = len(g.vertices)
            for _ in range(25):
                i, j = rng.randrange(n), rng.randrange(n)
                assert g.distance(i, j) == pair_distance_oracle(g.vertices[i], g.vertices[j])


def test_edges_move_one_coordinate_and_hyperplanes_are_the_ids():
    for radius in (3, 4):
        cfg = BallConfig(Q, CYC2)
        g = ball(eps(Q, CYC2, "x"), radius, cfg)
        coords = g.coordinates
        toggled = {}
        for (i, j), (kind, _) in g.edges.items():
            (_, ki, wi, ci), (_, kj, wj, cj) = coords[i], coords[j]
            if kind == "transistor":
                # one transistor more or less: one cone id, no coefficient
                assert (ki ^ kj).bit_count() == 1 and (wi, ci) == (wj, cj)
                toggled[(i, j)] = ki ^ kj
            else:
                # one wire's coefficient: trivial <-> nontrivial moves its id
                # and its pair, nontrivial <-> nontrivial swaps its pair
                assert ki == kj and ci != cj
                assert (wi ^ wj).bit_count() + (ci ^ cj).bit_count() == 2
        cones = wires = 0
        for _, k, w, _ in coords:
            cones, wires = cones | k, wires | w
        hyps = hyperplanes(g)
        assert len(hyps) == cones.bit_count() + wires.bit_count()
        # each transistor hyperplane is the edge class of one cone id
        cone_of = []
        for J in hyps:
            if J.kind == "transistor":
                assert len({toggled[e] for e in J.member_edges}) == 1
                cone_of.append(toggled[J.member_edges[0]])
        assert len(set(cone_of)) == len(cone_of) == cones.bit_count()


def test_rows_are_bytes_up_to_length_127():
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 2, cfg)
    assert g.row(0).typecode == "B"
    d = eps(Q, CYC2, "x")
    for k in range(128):  # a caret on the first wire, 128 times: length 128
        d = concat(d, atom_transistor(Q, CYC2, (), 0, 1, ("x",) * k))
    far = VertexClass(canonical_key(d), d, length(d))
    wide = BallGraph(cfg, 2, g.vertices + [far], {})
    assert wide.row(0).typecode != "B"
    assert wide.distance(0, len(g.vertices)) == 128 == pair_distance_oracle(g.vertices[0], far)


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


GEODESIC_CASES = [
    (Q, CYC2, "x", "braided"),
    (Q, CYC2, "x", "annular"),
    (Q, CYC2, "x", "planar"),
    (ABC, ABC_CYC2, ABC_WORD, "braided"),
]


def _geodesic_pairs(pres, coeffs, word, geometry, rng):
    """Random pairs of a radius-3 ball, and of seeded random elements with
    at least one pair farther apart than any two vertices of that ball."""
    cfg = BallConfig(pres, coeffs, geometry)
    g = ball(eps(pres, coeffs, word, annular=picture.GEOMETRY[geometry].annular), 3, cfg)
    pairs = [(rng.choice(g.vertices), rng.choice(g.vertices)) for _ in range(12)]
    far = [mkvertex(random_element(pres, coeffs, word, rng, geometry, steps=8), cfg)
           for _ in range(4)]
    pairs += [(g.vertices[0], far[0]), *zip(far, far[1:])]
    assert max(pair_distance(a, b) for a, b in pairs) > 6
    return cfg, pairs


def test_geodesic_random_vertices(rng):
    for case in GEODESIC_CASES:
        cfg, pairs = _geodesic_pairs(*case, rng)
        for a, b in pairs:
            path = geodesic(a, b, cfg)
            assert (path[0].key, path[-1].key) == (a.key, b.key)
            assert len(path) == pair_distance(a, b) + 1
            for u, v in zip(path, path[1:]):
                assert pair_distance(u, v) == 1


def test_geodesic_steps_to_first_closer_neighbour(rng):
    for case in GEODESIC_CASES:
        cfg, pairs = _geodesic_pairs(*case, rng)
        for a, b in pairs:
            path = geodesic(a, b, cfg)
            for k, (u, v) in enumerate(zip(path, path[1:])):
                left = len(path) - k - 2
                first = next(w for w, _ in neighbors(u, cfg) if pair_distance(w, b) == left)
                assert v.key == first.key


def test_geodesic_respects_max_width():
    cfg = BallConfig(Q, TRIV, max_width=2)
    v = mkvertex(eps(Q, TRIV, "x"), cfg)
    far = mkvertex(gamma(2), cfg)  # bottom word x^3
    assert pair_distance(v, far) == 2
    with pytest.raises(ValueError, match="max_width 2"):
        geodesic(v, far, cfg)


def _certified_pairs(g):
    n = len(g.vertices)
    return [(x, y) for x in range(n) for y in range(x + 1, n)
            if g.depth(x) + g.depth(y) + g.distance(x, y) <= 2 * g.radius]


def test_descent_paths_are_geodesics_crossing_each_hyperplane_once():
    abc, abc_word = builtin_presentation("commuting_abc")
    abc_cyc2 = make_system(abc.alphabet, {"a": CyclicSpec(2)})
    for base, cfg, radius in [
        (eps(Q, CYC2, "x"), BallConfig(Q, CYC2, "braided"), 3),
        (eps(Q, CYC2, "x", annular=True), BallConfig(Q, CYC2, "annular"), 3),
        (eps(Q, CYC2, "x"), BallConfig(Q, CYC2, "planar"), 3),
        (eps(abc, abc_cyc2, abc_word), BallConfig(abc, abc_cyc2), 2),
        # pins of three vertices: a neighbour can be as far from y as cur
        (eps(Q, CYC3, "x"), BallConfig(Q, CYC3, "planar"), 3),
    ]:
        g = ball(base, radius, cfg)
        hyperplane_of = {e: J.hid for J in hyperplanes(g) for e in J.member_edges}
        pairs = _certified_pairs(g)
        assert pairs
        for x, y in pairs:
            dxy = g.distance(x, y)
            path = _descent_path(g, x, y)
            assert len(path) == dxy + 1 and path[0] == x and path[-1] == y
            for k, (a, b) in enumerate(zip(path, path[1:])):
                assert b in g.adj[a]
                assert (g.distance(a, y), g.distance(b, y)) == (dxy - k, dxy - k - 1)
            crossed = [hyperplane_of[(min(a, b), max(a, b))] for a, b in zip(path, path[1:])]
            assert len(set(crossed)) == len(crossed)
            assert len(geodesic(g.vertices[x], g.vertices[y], cfg)) == dxy + 1


def test_hyperplanes_report_flags_pair_without_descent():
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg)
    # drop every edge from x towards y: the certified pair has no descent
    x, y = next((x, y) for x, y in _certified_pairs(g) if g.distance(x, y) >= 2)
    drop = {(min(x, z), max(x, z)) for z in g.adj[x]
            if g.distance(z, y) == g.distance(x, y) - 1}
    edges = {e: v for e, v in g.edges.items() if e not in drop}
    broken = BallGraph(g.cfg, g.radius, g.vertices, edges)
    assert _descent_path(broken, x, y) is None
    rep = hyperplanes_report(broken)
    assert ("geodesic_left_ball", x, y) in rep.inconclusive
    assert not any(item[0] == "geodesic_left_ball" for item in hyperplanes_report(g).inconclusive)


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


def _assert_common_neighbour_checks_match_oracle(g):
    rep = verify_qm_axioms(g)
    checked, skipped, violations, triangle_free = qm_axioms_oracle(g)
    assert (rep.checked, rep.skipped, rep.violations) == (checked, skipped, violations)
    assert rep.details["triangle_free"] == triangle_free and rep.passed == (not violations)
    assert induced_squares(g) == induced_squares_oracle(g)
    for margin in (None, g.radius - 1):
        assert g.triangles(margin) == triangles_oracle(g, margin)
    return rep


ORACLE_BALLS = [(Q, CYC2, ("x",), geometry, radius)
                for geometry in ("braided", "annular", "planar") for radius in (3, 4)
                ] + [(ABC, ABC_CYC2, ABC_WORD, "braided", 3)]


def _oracle_ball_id(case):
    return f"{'abc' if case[0] is ABC else 'thompson'}-{case[3]}-r{case[4]}"


@pytest.mark.parametrize("case", ORACLE_BALLS, ids=_oracle_ball_id)
def test_common_neighbour_table_matches_set_intersections(case):
    """The verifiers read common neighbours from `BallGraph.commons`: the
    triangle, quadrangle, K4- and K3,2 checks, the triangles and the induced
    squares must equal the intersections of adjacency sets, order included."""
    pres, coeffs, w, geometry, radius = case
    g = ball(eps(pres, coeffs, w, annular=geometry == "annular"), radius,
             BallConfig(pres, coeffs, geometry))
    assert _assert_common_neighbour_checks_match_oracle(g).passed
    assert induced_squares(g)


def test_common_neighbour_table_matches_set_intersections_on_doctored_balls():
    # one linear edge from depth 1 to depth 2 removed: K4-, triangle and
    # quadrangle violations
    cfg = BallConfig(Q, make_system(Q.alphabet, {"x": CyclicSpec(4)}))
    g = ball(eps(Q, cfg.coeffs, "x"), 3, cfg)
    cut = next(e for e, (kind, _) in g.edges.items()
               if kind == "linear" and (g.depth(e[0]), g.depth(e[1])) == (1, 2))
    doctored = BallGraph(cfg, g.radius, g.vertices, {e: kw for e, kw in g.edges.items() if e != cut})
    rep = _assert_common_neighbour_checks_match_oracle(doctored)
    assert {v[0] for v in rep.violations} == {"K4-", "triangle", "quadrangle"}
    # five inner vertices rewired into a K3,2: a, b joined to each of c, d, e
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 4, cfg)
    five = a, b, c, d, e = g.within(g.radius - 1)[1:6]
    edges = {f: kw for f, kw in g.edges.items() if not set(f) <= set(five)}
    edges.update({(x, y): ("transistor", None) for x in (a, b) for y in (c, d, e)})
    rep = _assert_common_neighbour_checks_match_oracle(BallGraph(cfg, g.radius, g.vertices, edges))
    assert ("K3,2", a, b, c, d, e) in rep.violations


def _assert_reports_match_scan_oracles(g):
    """Whole pin and hyperplane reports, lists in order, equal the scans."""
    pins, hyps = asdict(pins_report(g)), asdict(hyperplanes_report(g))
    assert pins == asdict(pins_report_oracle(g))
    assert hyps == asdict(hyperplanes_report_oracle(g))
    for J in hyperplanes(g):
        if J.kind == "linear":
            assert J.carrier_cliques == linear_carriers_oracle(g, J)
    return pins, hyps


@pytest.mark.parametrize("case", ORACLE_BALLS, ids=_oracle_ball_id)
def test_reports_read_pair_and_edge_maps_as_the_scans_do(case):
    """`pins_report` reads one pair -> pins map and `hyperplanes_report` one
    edge -> hyperplane-id map; `hyperplanes` files each pin under its class."""
    pres, coeffs, w, geometry, radius = case
    g = ball(eps(pres, coeffs, w, annular=geometry == "annular"), radius,
             BallConfig(pres, coeffs, geometry))
    pins, hyps = _assert_reports_match_scan_oracles(g)
    assert pins["passed"] and hyps["passed"] and pins["checked"] and hyps["checked"]


def test_reports_match_scan_oracles_on_doctored_balls():
    cfg3 = BallConfig(Q, CYC3)
    g = ball(eps(Q, CYC3, "x"), 3, cfg3)
    pins = enumerate_pins(g)
    # a dropped pin edge: the pin is no clique
    a, b = sorted(next(pin for pin, _, complete in pins if complete))[:2]
    doctored = BallGraph(cfg3, g.radius, g.vertices,
                         {e: kw for e, kw in g.edges.items() if e != (a, b)})
    report, _ = _assert_reports_match_scan_oracles(doctored)
    assert ("pin_not_clique", a, b) in report["violations"]
    # a dropped inner pin: its triangle and its linear edges lie in no pin (not
    # the base vertex's, the only carrier clique of its hyperplane in the ball)
    drop = next(k for k, (pin, _, complete) in enumerate(pins)
                if complete and 0 not in pin and all(g.depth(i) <= g.radius - 1 for i in pin))
    doctored = BallGraph(cfg3, g.radius, g.vertices, g.edges)
    doctored._pins = pins[:drop] + pins[drop + 1:]
    report, _ = _assert_reports_match_scan_oracles(doctored)
    assert {"triangle_outside_pins", "linear_edge_outside_pins"} <= {
        item[0] for item in report["violations"]}
    # two complete pins sharing two vertices
    cfg2 = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg2)
    pins = enumerate_pins(g)
    twice = next(k for k, (_, _, complete) in enumerate(pins) if complete)
    doctored = BallGraph(cfg2, g.radius, g.vertices, g.edges)
    doctored._pins = pins + [pins[twice]]
    report, _ = _assert_reports_match_scan_oracles(doctored)
    assert ("pin_intersection", sorted(pins[twice][0])) in report["violations"]
    # an interior transistor hyperplane merged with another transistor
    # hyperplane that one certified geodesic also crosses
    hyps = hyperplanes(g)
    hid_of = {e: J.hid for J in hyps for e in J.member_edges}
    for x, y in _certified_pairs(g):
        path = _descent_path(g, x, y)
        crossed = [hyps[hid_of[min(p, q), max(p, q)]] for p, q in zip(path, path[1:])]
        crossed = [J for J in crossed if J.kind == "transistor"]
        if len(crossed) > 1 and crossed[0].interior:
            keep, fold = crossed[:2]
            break
    doctored = BallGraph(cfg2, g.radius, g.vertices, g.edges)
    doctored._hyperplanes = [
        Hyperplane(J.hid, J.kind, sorted(J.member_edges + fold.member_edges),
                   J.carrier_cliques + fold.carrier_cliques, J.interior) if J is keep else J
        for J in hyps if J is not fold]
    _, report = _assert_reports_match_scan_oracles(doctored)
    assert ("double_crossing", keep.hid, x, y, 2) in report["violations"]


def test_common_neighbours_come_from_one_table():
    # qmgraph intersects adjacency sets nowhere but in `BallGraph.commons`,
    # so the table stays the one place common neighbours come from
    text = Path(qmgraph.__file__).read_text()
    ball_graph = next(node for node in ast.parse(text).body
                      if isinstance(node, ast.ClassDef) and node.name == "BallGraph")
    commons = next(node for node in ball_graph.body
                   if isinstance(node, ast.FunctionDef) and node.name == "commons")
    pattern = re.compile(r"adj\[[^\]]*\]\s*&|&\s*[\w.]*adj\[")
    for i, line in enumerate(text.splitlines(), 1):
        if not commons.lineno <= i <= commons.end_lineno:
            assert not pattern.search(line), f"qmgraph.py:{i}: {line.strip()}"


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


@pytest.mark.parametrize("name, params, coeff, geometry, radius", [
    ("thompson", (), "x=cyclic:2", "braided", 4),
    ("thompson", (), "x=cyclic:2", "annular", 4),
    ("thompson", (), "x=cyclic:2", "planar", 4),
    ("thompson", (), "x=cyclic:3", "planar", 4),
    ("commuting_abc", (), "a=cyclic:2", "braided", 3),
    ("higman", (3, 1), "x=cyclic:2", "braided", 2),
    ("houghton", (2, 0), "a=cyclic:2", "braided", 2),
    ("quasi_auto", (2, 1, 1), "a=cyclic:3", "annular", 2),
])
def test_pins_and_witnesses_match_key_built_oracle(name, params, coeff, geometry, radius):
    pres, word = builtin_presentation(name, params)
    lab, _, spec = coeff.partition("=")
    coeffs = make_system(pres.alphabet, {lab: spec_parse(spec)})
    g = ball(eps(pres, coeffs, word, annular=(geometry == "annular")), radius,
             BallConfig(pres, coeffs, geometry))
    index = {v.key: i for i, v in enumerate(g.vertices)}
    # same order, letters and completeness; incomplete pins keep their in-ball members
    assert enumerate_pins(g) == [
        (frozenset(index[k] for k in pin if k in index), letter, complete)
        for pin, letter, complete in pins_oracle(g)]
    # every ordered pair with equal cone ids, not only the edges: a pin key
    # that forgot a coefficient would pair vertices two coefficients apart
    by_cones: dict[int, list[int]] = {}
    for i, (_, cones, _, _) in enumerate(g.coordinates):
        by_cones.setdefault(cones, []).append(i)
    for members in by_cones.values():
        for i in members:
            for j in members:
                if i != j:
                    assert (_linear_edge_witness_ok(g, i, j)
                            == linear_edge_witness_oracle(g, i, j)), (i, j)


def test_pin_and_hyperplane_reports_build_no_class_key(monkeypatch):
    g = ball(eps(Q, CYC2, "x"), 3, BallConfig(Q, CYC2))
    calls = []
    for module in (moves, qmgraph):
        real = module.geometry_class_key
        monkeypatch.setattr(module, "geometry_class_key",
                            lambda *args, real=real: calls.append(args) or real(*args))
    assert pins_report(g).passed and hyperplanes_report(g).passed
    assert not calls


@pytest.mark.parametrize("geometry", moves.GEOMETRIES)
def test_ball_makes_one_key_frame_per_built_neighbour(geometry, monkeypatch):
    # each neighbour is named by its representative's exact key, the root once
    calls = Counter()
    for module, name in ((picture, "_key_frame"), (moves, "apply_move")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    ball(eps(Q, CYC2, "x", annular=geometry == "annular"), 3, BallConfig(Q, CYC2, geometry))
    assert calls["apply_move"] > 0
    assert calls["_key_frame"] == calls["apply_move"] + 1


def test_pins_report_flags_a_dropped_pin_edge():
    # pins come from the vertices' diagrams, not from the edges
    cfg = BallConfig(Q, CYC3)
    g = ball(eps(Q, CYC3, "x"), 3, cfg)
    pin = next(pin for pin, _, complete in enumerate_pins(g) if complete)
    a, b = sorted(pin)[:2]
    assert g.edges[(a, b)][0] == "linear"
    doctored = BallGraph(cfg, g.radius, g.vertices,
                         {e: kw for e, kw in g.edges.items() if e != (a, b)})
    rep = pins_report(doctored)
    assert not rep.passed and ("pin_not_clique", a, b) in rep.violations


def test_pins_report_flags_an_oversized_pin():
    # a vertex listed again under a fresh key puts a third member into each
    # of its two-member Z/2 pins
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 3, cfg)
    pin = next(pin for pin, _, complete in enumerate_pins(g) if complete)
    v = g.vertices[min(pin)]
    twin = VertexClass(v.key + "'", v.rep, v.length, v.depth)
    doctored = BallGraph(cfg, g.radius, g.vertices + [twin], g.edges)
    rep = pins_report(doctored)
    assert not rep.passed and ("pin_size", "x", 3, 2) in rep.violations


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
    from picturecalc.picture import GEOMETRY
    for rel_index in range(len(cfg.pres.relations)):
        for direction in (1, -1):
            consumed, _ = rel_sides(cfg.pres, rel_index, direction)
            for positions in GEOMETRY[cfg.geometry].feeds(labels, consumed):
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


def test_rotative_stab_probe_moves_each_carrier_vertex_once(monkeypatch):
    # the free and transitive check reads the base vertex's images from the
    # stabiliser loop: per candidate, two products build it and one moves
    # each member of each carrier clique
    cfg = BallConfig(Q, CYC3)
    g = ball(eps(Q, CYC3, "x"), 3, cfg)
    J = next(J for J in hyperplanes(g) if J.kind == "linear" and J.interior)
    products, real = [], qmgraph.multiply
    monkeypatch.setattr(qmgraph, "multiply", lambda a, b: products.append(1) or real(a, b))
    rep = rotative_stab_probe(g, J, plus_verified=True)
    nontrivial = rep.details["candidates"] - 1
    assert len(products) == nontrivial * (2 + sum(len(c) for c in J.carrier_cliques))
    assert rep.checked == nontrivial * (len(J.carrier_cliques) + 1) and rep.passed


def test_hyperplane_without_carrier_clique_is_a_violation():
    # with every pin holding the base vertex dropped, the base's linear
    # hyperplane is interior but has no carrier clique in the ball: a
    # counterexample, which both reports record instead of raising
    cfg = BallConfig(Q, CYC3)
    g = ball(eps(Q, CYC3, "x"), 3, cfg)
    doctored = BallGraph(cfg, g.radius, g.vertices, g.edges)
    doctored._pins = [pin for pin in enumerate_pins(g) if 0 not in pin[0]]
    J = next(J for J in hyperplanes(doctored)
             if J.kind == "linear" and J.interior and not J.carrier_cliques)
    rep = hyperplanes_report(doctored)
    assert not rep.passed and ("no_carrier_clique", J.hid) in rep.violations
    probe = rotative_stab_probe(doctored, J, plus_verified=True)
    assert not probe.passed and probe.violations == [("no_carrier_clique", J.hid)]


def test_exports():
    cfg = BallConfig(Q, CYC2)
    g = ball(eps(Q, CYC2, "x"), 2, cfg)
    dot = to_dot(g)
    assert dot.startswith("graph ball {") and "--" in dot and "dashed" in dot
    js = json.loads(ball_text(g))
    assert js["radius"] == 2 and len(js["vertices"]) == len(g.vertices)
    kinds = {e["kind"] for e in js["edges"]}
    assert kinds == {"transistor", "linear"}


def test_ball_digest_is_pinned():
    """sha256 of the file text of fixed balls: any change to their vertices,
    their order, their edges or the witnesses shows here."""
    pres_abc, w_abc = builtin_presentation("commuting_abc")
    pres_hou, w_hou = builtin_presentation("houghton", (2, 0))
    cases = [(Q, CYC2, ("x",), geometry, 4) for geometry in ("braided", "annular", "planar")] + [
        (pres_abc, make_system(pres_abc.alphabet, {"a": CyclicSpec(2)}), w_abc, "braided", 3),
        (pres_hou, make_system(pres_hou.alphabet, {"a": CyclicSpec(2)}), w_hou, "braided", 3),
    ]
    digests = []
    for pres, coeffs, w, geometry, radius in cases:
        g = ball(eps(pres, coeffs, w), radius, BallConfig(pres, coeffs, geometry))
        digests.append(hashlib.sha256(ball_text(g).encode()).hexdigest()[:16])
    assert digests == ["2cd3e0c8fa602dde", "c63586f13d617819", "3db695da194064b1",
                       "52e8798344ed5e9a", "c7184bd727ed4863"]


def test_qm_axioms_annular_planar_balls():
    # the annular and planar picture-product graphs are convex subgraphs of
    # the braided one, hence quasi-median in their own right
    for geometry in ("annular", "planar"):
        cfg = BallConfig(Q, CYC2, geometry)
        g = ball(eps(Q, CYC2, "x", annular=(geometry == "annular")), 3, cfg)
        assert verify_qm_axioms(g).passed
        assert pins_report(g).passed
        assert hyperplanes_report(g).passed

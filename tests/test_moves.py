import hashlib
import itertools
import random

import pytest

from picturecalc.coeff import CyclicSpec, FreeSpec, make_system, trivial_system
from picturecalc import moves
from picturecalc.errors import EnumerationError
from picturecalc.moves import (
    GEOMETRIES,
    BallConfig,
    apply_linear_move,
    apply_move,
    bfs_classes,
    enumerate_reduced,
    geometry_class_key,
    normalize_base,
    unitary_moves,
    word_moves,
)
from picturecalc.picture import (
    GEOMETRY,
    Diagram,
    _traversal,
    apply_transistor_move,
    atom_transistor,
    canonical_key,
    class_representative,
    classify_geometry,
    concat,
    eps,
    length,
    reduce,
    rotate_bottom,
    with_bottom_ports,
)
from picturecalc.presentation import builtin_presentation
from picturecalc.qmgraph import ball, hyperplane_coordinates, neighbors
from picturecalc import sampling
from picturecalc.sampling import random_element, random_unreduced, random_walk_diagram

from oracles import (
    bfs_oracle,
    boundary_symmetry_oracle,
    class_key_oracle,
    key_text_oracle,
    length_oracle,
    moves_oracle,
    neighbor_keys_oracle,
    random_element_oracle,
    random_unreduced_oracle,
    reduce_oracle,
    walk_oracle,
)

Q, _ = builtin_presentation("thompson")
TRIV = trivial_system(Q.alphabet)
CYC2 = make_system(Q.alphabet, {"x": CyclicSpec(2)})
CYC3 = make_system(Q.alphabet, {"x": CyclicSpec(3)})
ABC, ABC_WORD = builtin_presentation("commuting_abc")
ABC2 = make_system(ABC.alphabet, {"a": CyclicSpec(2)})
HOU, HOU_WORD = builtin_presentation("houghton", (2, 0))
HOU2 = make_system(HOU.alphabet, {"a": CyclicSpec(2)})
HIG, HIG_WORD = builtin_presentation("higman", (3, 1))

# (presentation, coefficients, baseword, geometry, radius): the Thompson
# radius-3 balls in every geometry, cyclic:3 ones (where a linear move can
# take one nontrivial coefficient to another), and commuting_abc, Houghton
# and Higman balls
MOVE_BALLS = [(Q, CYC2, ("x",), geometry, 3) for geometry in GEOMETRIES] + [
    (Q, CYC3, ("x",), "planar", 3),
    (ABC, ABC2, ABC_WORD, "braided", 2),
    (Q, CYC3, ("x",), "braided", 3),
    (Q, CYC3, ("x",), "annular", 3),
    (HOU, HOU2, HOU_WORD, "braided", 3),
    (HIG, trivial_system(HIG.alphabet), HIG_WORD, "planar", 2),
]
BALL_NAMES = {Q: "thompson", ABC: "abc", HOU: "houghton", HIG: "higman"}


def neighbor_diagrams(rep, cfg):
    """Every unitary move of rep, built: (reduced result, kind, witness) in
    `unitary_moves` order, a linear witness as (letter, delta)."""
    labels = rep.bot_word()
    for kind, witness, _, _ in unitary_moves(rep, cfg, length(rep)):
        out = apply_move(rep, kind, witness, cfg.geometry)
        if kind == "linear":
            witness = (labels[witness[0]], witness[1])
        yield out, kind, witness


def neighbor_keys(rep, cfg):
    me = geometry_class_key(rep, cfg.geometry)
    return {geometry_class_key(out, cfg.geometry)
            for out, _, _ in neighbor_diagrams(rep, cfg)} - {me}


def test_eps_has_one_neighbor_trivial():
    cfg = BallConfig(Q, TRIV)
    rep = normalize_base(eps(Q, TRIV, "x"), cfg)
    keys = neighbor_keys(rep, cfg)
    assert len(keys) == 1
    assert keys == neighbor_keys_oracle(rep, cfg)


def test_tplus_neighbors_match_oracle():
    # the crossed contraction gives a fourth neighbor beyond [eps] and the
    # two expansions (the spec's worked example undercounts)
    cfg = BallConfig(Q, TRIV)
    rep = normalize_base(atom_transistor(Q, TRIV, (), 0, 1, ()), cfg)
    keys = neighbor_keys(rep, cfg)
    oracle = neighbor_keys_oracle(rep, cfg)
    assert keys == oracle
    assert len(keys) == 4


def test_eps_with_cyclic2_gains_linear_neighbor():
    cfg = BallConfig(Q, CYC2)
    rep = normalize_base(eps(Q, CYC2, "x"), cfg)
    keys = neighbor_keys(rep, cfg)
    assert len(keys) == 2
    kinds = {kind for _, kind, _ in neighbor_diagrams(rep, cfg)}
    assert kinds == {"transistor", "linear"}


@pytest.mark.parametrize("geometry", ["braided", "annular", "planar"])
def test_neighbors_match_oracle_random(geometry, rng):
    for pres_name, params, coeffs_over in [
        ("thompson", (), {"x": CyclicSpec(2)}),
        ("commuting_abc", (), {}),
    ]:
        pres, w = builtin_presentation(pres_name, params)
        coeffs = make_system(pres.alphabet, coeffs_over)
        cfg = BallConfig(pres, coeffs, geometry, max_width=6)
        for _ in range(6):
            d = random_walk_diagram(pres, coeffs, w, rng.randrange(3), rng, geometry, 6)
            rep = GEOMETRY[geometry].class_rep(d)
            assert neighbor_keys(rep, cfg) == neighbor_keys_oracle(rep, cfg)


def test_free_coeffs_rejected():
    freesys = make_system(Q.alphabet, {"x": FreeSpec(("R1",))})
    cfg = BallConfig(Q, freesys)
    with pytest.raises(EnumerationError):
        bfs_classes(eps(Q, freesys, "x"), 1, cfg)
    with pytest.raises(EnumerationError):
        enumerate_reduced(Q, freesys, ("x",), 1)


def test_ball_radius_one():
    cfg = BallConfig(Q, TRIV)
    reps, depths, edges, _ = bfs_classes(eps(Q, TRIV, "x"), 1, cfg)
    assert len(reps) == 2
    assert depths == [0, 1]
    assert list(edges) == [(0, 1)]
    assert edges[(0, 1)][0] == "transistor"


def test_ball_regression_counts():
    # frozen from the verbatim-oracle-backed BFS (double-run determinism)
    cfg = BallConfig(Q, TRIV)
    sizes = {}
    for r in (2, 3):
        reps, depths, edges, _ = bfs_classes(eps(Q, TRIV, "x"), r, cfg)
        reps2, depths2, edges2, _ = bfs_classes(eps(Q, TRIV, "x"), r, cfg)
        assert [canonical_key(a) for a in reps] == [canonical_key(a) for a in reps2]
        assert edges == edges2
        sizes[r] = (len(reps), len(edges))
    assert sizes[2] == (5, 4)
    assert sizes[3] == (20, 20)


def test_ball_depth_equals_length():
    cfg = BallConfig(Q, CYC2)
    reps, depths, edges, _ = bfs_classes(eps(Q, CYC2, "x"), 3, cfg)
    for rep, depth in zip(reps, depths):
        assert length(rep) == depth


def test_edge_endpoints_differ_by_one_move():
    cfg = BallConfig(Q, CYC2)
    reps, depths, edges, _ = bfs_classes(eps(Q, CYC2, "x"), 2, cfg)
    for (i, j), (kind, witness) in edges.items():
        di, dj = length(reps[i]), length(reps[j])
        if kind == "transistor":
            assert abs(di - dj) == 1
        else:
            assert abs(di - dj) <= 1


def test_enumerate_budget_zero_and_two_planar():
    out0 = enumerate_reduced(Q, TRIV, ("x",), 0, "planar")
    assert [canonical_key(d) for d in out0] == [canonical_key(eps(Q, TRIV, "x"))]
    out2 = enumerate_reduced(Q, TRIV, ("x",), 2, "planar")
    assert [canonical_key(d) for d in out2] == [canonical_key(eps(Q, TRIV, "x"))]


def test_enumerate_budget_four_planar_f_generators():
    out4 = enumerate_reduced(Q, TRIV, ("x",), 4, "planar")
    # eps plus the two 4-transistor elements (the F generator and its inverse)
    assert len(out4) == 3
    nontrivial = [d for d in out4 if length(d) > 0]
    assert all(length(d) == 4 for d in nontrivial)
    assert all(classify_geometry(d) == "planar" for d in out4)
    from picturecalc.picture import invert, multiply
    a, b = nontrivial
    assert multiply(a, b) == eps(Q, TRIV, "x")
    assert canonical_key(invert(a)) == canonical_key(b)


def test_enumerate_braided_small():
    out = enumerate_reduced(Q, TRIV, ("x",), 2, "braided")
    # eps, and the two-strand swap element at length 2; a transposition of
    # two strands winds around the annulus, so it is annular (order 2 in T)
    lengths = sorted(length(d) for d in out)
    assert lengths == [0, 2]
    sw = [d for d in out if length(d) == 2][0]
    assert classify_geometry(sw) == "annular_not_planar"


def test_enumerate_annular_rotations():
    outs = enumerate_reduced(Q, TRIV, ("x", "x", "x"), 0, "annular")
    # rotations of eps(x^3) are the length-0 annular elements
    assert len(outs) == 3
    assert {classify_geometry(d) for d in outs} == {"planar", "annular_not_planar"}


def test_enumerate_exact_keys_unique(rng):
    out = enumerate_reduced(Q, CYC2, ("x",), 2, "braided")
    keys = [canonical_key(d) for d in out]
    assert len(keys) == len(set(keys))
    for d in out:
        assert d.top_word() == ("x",) and d.bot_word() == ("x",)
        assert length(d) <= 2


def test_length_one_classes_are_atom_classes():
    # the eps/atom constructors exhaust the reduced classes of length 0 and 1
    from picturecalc.picture import atom_linear
    from picturecalc.coeff import nontrivial_elements

    for coeffs in (TRIV, CYC2):
        cfg = BallConfig(Q, coeffs)
        reps, depths, *_ = bfs_classes(eps(Q, coeffs, "x"), 1, cfg)
        atom_keys = set()
        base = eps(Q, coeffs, "x")
        labels = base.bot_word()
        for rel_index in range(len(Q.relations)):
            for direction in (1, -1):
                from picturecalc.picture import rel_sides
                consumed, _ = rel_sides(Q, rel_index, direction)
                if len(consumed) > len(labels):
                    continue
                for a_len in range(len(labels) - len(consumed) + 1):
                    if labels[a_len:a_len + len(consumed)] != consumed:
                        continue
                    atom = atom_transistor(Q, coeffs, labels[:a_len], rel_index,
                                           direction, labels[a_len + len(consumed):])
                    atom_keys.add(geometry_class_key(reduce(concat(base, atom)), "braided"))
        spec = coeffs.spec("x")
        try:
            nts = nontrivial_elements(spec)
        except ValueError:
            nts = []
        for g in nts:
            atom = atom_linear(Q, coeffs, labels, 0, g)
            atom_keys.add(geometry_class_key(concat(base, atom), "braided"))
        found = {geometry_class_key(rep, "braided") for rep, dep in zip(reps, depths) if dep == 1}
        assert found == atom_keys


# -- class keys against their definitions ------------------------------------------

@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_class_keys_and_reps_match_oracle(geometry):
    # every vertex and every neighbour diagram of the radius-3 ball; the
    # representative's exact key (inherited from the class key) is checked
    # against the key text recomputed from scratch
    cfg = BallConfig(Q, CYC2, geometry)
    reps, *_ = bfs_classes(eps(Q, CYC2, "x", annular=geometry == "annular"), 3, cfg)
    for vertex in reps:
        for d in [vertex] + [out for out, _, _ in neighbor_diagrams(vertex, cfg)]:
            assert canonical_key(d) == key_text_oracle(d)
            want = class_key_oracle(d, geometry)
            assert geometry_class_key(d, geometry) == want
            rep = GEOMETRY[geometry].class_rep(d)
            assert canonical_key(rep) == want == key_text_oracle(rep)


def test_annular_class_key_compares_bottom_text_as_text():
    # wires 0 and 1 feed transistors, so the bottom numbers run 2..13: the
    # least rotation as text starts "10,11,…", as int tuples it starts "2,…"
    d = eps(Q, TRIV, ("x",) * 10, annular=True)
    d = apply_transistor_move(d, 0, 1, (0,), "annular")
    d = apply_transistor_move(d, 0, 1, (2,), "annular")
    want = class_key_oracle(d, "annular")
    assert "|B10,11,12,13,2," in want
    assert geometry_class_key(d, "annular") == want
    rep = GEOMETRY["annular"].class_rep(d)
    assert canonical_key(rep) == want == key_text_oracle(rep)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_canonical_key_matches_key_text_oracle(geometry, rng):
    abc, abc_word = builtin_presentation("commuting_abc")
    abc_coeffs = make_system(abc.alphabet, {"a": CyclicSpec(2)})
    for i in range(50):
        pres, coeffs, w = (Q, CYC2, ("x",)) if i % 2 else (abc, abc_coeffs, abc_word)
        d = random_element(pres, coeffs, w, rng, geometry)
        assert canonical_key(d) == key_text_oracle(d)
        assert canonical_key(class_representative(d)) == key_text_oracle(d, "class")


def _check_enumerate_against_variants(pres, coeffs, w, budget, geometry):
    # every bottom-port variant of every class, built and keyed one by one
    cfg = BallConfig(pres, coeffs, geometry)
    reps, *_ = bfs_classes(eps(pres, coeffs, w, annular=geometry == "annular"), budget, cfg)
    want = set()
    for rep in reps:
        if geometry == "braided":
            variants = [with_bottom_ports(rep, ports)
                        for ports in itertools.permutations(rep.bottom_ports)]
        else:
            turns = len(rep.bottom_ports) if geometry == "annular" else 1
            variants = [rotate_bottom(rep, k) for k in range(turns)]
        want |= {key_text_oracle(v) for v in variants if v.bot_word() == w}
    got = enumerate_reduced(pres, coeffs, w, budget, geometry)
    assert [canonical_key(d) for d in got] == sorted(want)
    assert all(key_text_oracle(d) == canonical_key(d) for d in got)
    return reps


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_enumerate_keys_match_per_variant_definition(geometry):
    _check_enumerate_against_variants(Q, CYC2, ("x", "x"), 2, geometry)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_enumerate_commuting_abc_keys_match_per_variant_definition(geometry):
    # a.b.c: braided and annular classes reach it from reordered bottom words
    _check_enumerate_against_variants(ABC, ABC2, ABC_WORD, 2, geometry)


def test_enumerate_houghton_keys_match_per_variant_definition():
    # from r.a the ball reaches x1.x2, a word of the baseword's length over
    # another multiset of letters: it has no placement onto r.a
    pres, w = builtin_presentation("houghton", (2, 1))
    reps = _check_enumerate_against_variants(pres, trivial_system(pres.alphabet), w, 2,
                                             "braided")
    assert ("x1", "x2") in {rep.bot_word() for rep in reps}


# -- move lengths and the pruned ball -------------------------------------------------

def _ball_id(case):
    pres, coeffs, _, geometry, radius = case
    return f"{BALL_NAMES[pres]}-{coeffs.spec(pres.alphabet[0])}-{geometry}-r{radius}"


@pytest.mark.parametrize("case", MOVE_BALLS, ids=_ball_id)
def test_unitary_moves_predict_length(case):
    pres, coeffs, w, geometry, radius = case
    cfg = BallConfig(pres, coeffs, geometry)
    reps, *_ = bfs_classes(eps(pres, coeffs, w, annular=geometry == "annular"), radius, cfg)
    kinds_seen = set()
    for rep in reps:
        moves = list(unitary_moves(rep, cfg, length(rep)))
        witnesses = [(kind, wit) for _, kind, wit in neighbor_diagrams(rep, cfg)]
        assert witnesses == [(kind, wit) for _, kind, wit in moves_oracle(rep, cfg)]
        table = word_moves(rep.bot_word(), cfg)
        assert [move[:2] for move in moves] == [move[:2] for move in table]
        before = length(rep)
        for (kind, witness, length_after, effect), (_, _, next_labels) in zip(moves, table):
            if kind == "transistor":
                raw = apply_transistor_move(rep, *witness, geometry)
                # the effect is the transistor above the feed that cancels, if any
                fed = tuple(rep.bottom_ports[p] for p in witness[2])
                assert (effect is not None) == (length_after < before)
                assert effect is None or rep.t_bot[effect] == fed
            else:
                raw = apply_linear_move(rep, *witness)
                assert raw.wires[rep.bottom_ports[witness[0]]][1] == effect
            out = apply_move(rep, kind, witness, geometry)
            assert raw.bot_word() == out.bot_word() == next_labels
            assert length_after == length(out)
            assert length_after == length_oracle(raw)
            kinds_seen.add((kind, length_after - before))
    # every way a move can change the length occurs among these balls
    assert {("transistor", 1), ("transistor", -1)} <= kinds_seen
    if not coeffs.is_all_trivial():
        assert {("linear", 1), ("linear", -1)} <= kinds_seen
    if coeffs is CYC3:
        assert ("linear", 0) in kinds_seen


@pytest.mark.parametrize("case", MOVE_BALLS, ids=_ball_id)
def test_neighbors_match_oracle_on_every_ball_vertex(case):
    """`qmgraph.neighbors` of every vertex: the definition-level neighbour
    classes, listed in order of first move (`moves_oracle` order), each with
    the kind of that first move."""
    pres, coeffs, w, geometry, radius = case
    cfg = BallConfig(pres, coeffs, geometry)
    g = ball(eps(pres, coeffs, w, annular=geometry == "annular"), radius, cfg)
    for v in g.vertices:
        first = {}
        for raw, kind, _ in moves_oracle(v.rep, cfg):
            first.setdefault(class_key_oracle(reduce_oracle(raw), geometry), kind)
        first.pop(v.key, None)
        got = neighbors(v, cfg)
        assert [(u.key, kind) for u, kind in got] == list(first.items())
        assert set(first) == neighbor_keys_oracle(v.rep, cfg)
        assert all(u.key == canonical_key(u.rep) for u, _ in got)


def _fresh(d: Diagram) -> Diagram:
    """d rebuilt by the public constructor: endpoint maps from scratch, no
    flag, no cached traversal."""
    return Diagram(d.pres, d.coeffs, d.wires, d.transistors, d.t_top, d.t_bot,
                   d.top_ports, d.bottom_ports, d.annular)


def _assert_fresh_maps(d: Diagram):
    fresh = _fresh(d)
    assert d.wire_top == fresh.wire_top and d.wire_bot == fresh.wire_bot


@pytest.mark.parametrize("case", [c for c in MOVE_BALLS if c[1] is not CYC3], ids=_ball_id)
def test_derived_diagrams_match_fresh_ones(case):
    """Moves derive a child's endpoint maps from its parent's, `apply_move`
    flags a result reduced without `reduce` when no dipole is predicted,
    and bottom-port rebuilds carry the parent's traversal: each must agree
    with a fresh construction, `reduce_oracle` and a fresh `_traversal`."""
    pres, coeffs, w, geometry, radius = case
    cfg = BallConfig(pres, coeffs, geometry)
    reps, *_ = bfs_classes(eps(pres, coeffs, w, annular=geometry == "annular"), radius, cfg)
    for rep in reps:
        for kind, witness, _, _ in unitary_moves(rep, cfg, length(rep)):
            if kind == "transistor":
                raw = apply_transistor_move(rep, *witness, geometry)
                assert raw._reduced is None
                _assert_fresh_maps(raw)
        for out, _, _ in neighbor_diagrams(rep, cfg):
            _assert_fresh_maps(out)
            assert out._reduced and reduce_oracle(out) is out
            geometry_class_key(out, geometry)  # computes out's traversal, as the ball does
            for variant in (GEOMETRY[geometry].class_rep(out), rotate_bottom(out, 1),
                            with_bottom_ports(out, out.bottom_ports[::-1])):
                _assert_fresh_maps(variant)
                assert variant._trav is not None
                assert variant._trav == _traversal(_fresh(variant))


@pytest.mark.parametrize("case", MOVE_BALLS, ids=_ball_id)
def test_cancelling_moves_match_reduce_oracle(case):
    """A transistor move that cancels against the transistor above its feed
    is reduced in the move's own dicts; the result must equal
    `reduce_oracle` of the unreduced move, dict items in order included."""
    pres, coeffs, w, geometry, radius = case
    cfg = BallConfig(pres, coeffs, geometry)
    reps, *_ = bfs_classes(eps(pres, coeffs, w, annular=geometry == "annular"), radius, cfg)
    cancelled = 0
    for rep in reps:
        for kind, witness, after, _ in unitary_moves(rep, cfg, length(rep)):
            if kind == "transistor" and after < length(rep):
                got = apply_move(rep, kind, witness, geometry)
                want = reduce_oracle(apply_transistor_move(rep, *witness, geometry))
                for field in ("wires", "transistors", "t_top", "t_bot"):
                    assert list(getattr(got, field).items()) == list(getattr(want, field).items())
                assert got.bottom_ports == want.bottom_ports and got._reduced
                _assert_fresh_maps(got)
                cancelled += 1
    assert cancelled


def _assert_same_ball(got, want):
    reps, depths, edges, lengths = got
    o_reps, o_depths, o_edges = want
    assert [canonical_key(r) for r in reps] == [key_text_oracle(r) for r in o_reps]
    assert depths == o_depths
    assert list(edges.items()) == list(o_edges.items())
    # the oracle's reps are reduced: a length is a count
    assert lengths == [len(r.transistors) + sum(not c.is_identity() for _, c in r.wires.values())
                       for r in o_reps]


@pytest.mark.parametrize("case", MOVE_BALLS, ids=_ball_id)
def test_bfs_classes_matches_unpruned_oracle(case):
    pres, coeffs, w, geometry, radius = case
    cfg = BallConfig(pres, coeffs, geometry)
    base = eps(pres, coeffs, w, annular=geometry == "annular")
    _assert_same_ball(bfs_classes(base, radius, cfg), bfs_oracle(base, radius, cfg))


@pytest.mark.parametrize("case", MOVE_BALLS, ids=_ball_id)
def test_neighbour_signatures_agree_with_class_keys(case):
    """`bfs_classes` tells vertices apart by their cone ids and coefficient
    pairs (K, C) over one intern table: on every built neighbour of every
    vertex of the ball, equal (K, C) must mean equal class keys and back."""
    pres, coeffs, w, geometry, radius = case
    cfg = BallConfig(pres, coeffs, geometry)
    reps, *_ = bfs_classes(eps(pres, coeffs, w, annular=geometry == "annular"), radius, cfg)
    built = [out for rep in reps for out, _, _ in neighbor_diagrams(rep, cfg)]
    coords, _ = hyperplane_coordinates(built)
    keys_of, sigs_of = {}, {}
    for out, (_, cones, _, coefficients) in zip(built, coords):
        key = geometry_class_key(out, geometry)
        keys_of.setdefault((cones, coefficients), set()).add(key)
        sigs_of.setdefault(key, set()).add((cones, coefficients))
    assert all(len(keys) == 1 for keys in keys_of.values())
    assert all(len(sigs) == 1 for sigs in sigs_of.values())
    assert len(keys_of) < len(built)  # some neighbours were found twice


def test_ball_builds_each_vertex_once(monkeypatch):
    """`bfs_classes` builds a neighbour only when its signature is new: one
    `apply_move` per vertex but the root."""
    built = []
    real_apply = moves.apply_move
    monkeypatch.setattr(moves, "apply_move", lambda *args: built.append(args) or real_apply(*args))
    for geometry in GEOMETRIES:
        built.clear()
        g = ball(eps(Q, CYC2, "x"), 4, BallConfig(Q, CYC2, geometry))
        assert len(built) == len(g.vertices) - 1


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_bfs_classes_matches_oracle_around_random_bases(geometry):
    # a base of nonzero length: the bound is radius + length(base)
    cfg = BallConfig(Q, CYC2, geometry)
    for seed in range(3):
        base = random_walk_diagram(Q, CYC2, "x", 3, random.Random(seed), geometry)
        assert length(base) > 0
        _assert_same_ball(bfs_classes(base, 2, cfg), bfs_oracle(base, 2, cfg))


# the four group-law configurations of acceptance criterion 2, as
# (presentation, coefficients, baseword)
SAMPLER_CONFIGS = [
    (pres, make_system(pres.alphabet, {x: CyclicSpec(k) for x, k in cyclic.items()}), w)
    for (pres, w), cyclic in [(builtin_presentation("thompson"), {"x": 2}),
                              (builtin_presentation("higman", (3, 1)), {}),
                              (builtin_presentation("houghton", (2, 0)), {"a": 2}),
                              (builtin_presentation("commuting_abc"), {})]
]


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_sampling_matches_walks_that_build_every_neighbour(geometry):
    """Each sampler against an oracle that builds and reduces every
    neighbour of every walk, the rejected ones included: the same
    canonical key and the same RNG state after each call.  attempts=0
    forces `random_element`'s fallbacks."""
    annular, fallbacks = geometry == "annular", set()
    for i, (pres, coeffs, w) in enumerate(SAMPLER_CONFIGS):
        for steps, max_width in itertools.product((3, 4), (8, 12)):
            cfg = BallConfig(pres, coeffs, geometry, max_width)
            got_rng, want_rng = random.Random(i), random.Random(i)
            calls = [
                (lambda r: random_walk_diagram(pres, coeffs, w, steps + 1, r, geometry,
                                               max_width),
                 lambda r: walk_oracle(eps(pres, coeffs, w, annular=annular), steps + 1, r, cfg)),
                (lambda r: random_unreduced(pres, coeffs, w, steps, r, max_width, geometry),
                 lambda r: random_unreduced_oracle(eps(pres, coeffs, w, annular=annular),
                                                   steps, r, cfg)),
            ] + [
                (lambda r, n=n: random_element(pres, coeffs, w, r, geometry, steps, n,
                                               max_width),
                 lambda r, n=n: random_element_oracle(pres, coeffs, w, r, geometry, steps, n,
                                                      max_width))
                for n in (60, 60, 0)
            ]
            for sample, oracle in calls:
                state = want_rng.getstate()
                assert canonical_key(sample(got_rng)) == key_text_oracle(oracle(want_rng))
                assert got_rng.getstate() == want_rng.getstate()
            # the last call fell back on the bottom word of its first walk
            probe = random.Random()
            probe.setstate(state)
            u = walk_oracle(eps(pres, coeffs, w, annular=annular), steps, probe, cfg).bot_word()
            symmetric = boundary_symmetry_oracle(u, geometry) is not None
            fallbacks.add("symmetry" if symmetric else "multiply")
    assert fallbacks >= ({"multiply"} if geometry == "planar" else {"symmetry"})


def test_sampler_digest_is_pinned():
    """sha256 of the canonical keys of a fixed seeded batch of every
    sampler, per configuration and geometry, and of one draw after each
    batch: any change to the samplers' RNG stream or results shows here."""
    def batch():
        for i, (pres, coeffs, w) in enumerate(SAMPLER_CONFIGS):
            for j, geometry in enumerate(GEOMETRIES):
                rng = random.Random(100 * i + j)
                for _ in range(6):
                    yield canonical_key(random_element(pres, coeffs, w, rng, geometry, steps=3,
                                                       max_width=8))
                for _ in range(2):
                    yield canonical_key(random_element(pres, coeffs, w, rng, geometry))
                for steps in (4, 6):
                    yield canonical_key(random_walk_diagram(pres, coeffs, w, steps, rng,
                                                            geometry))
                    yield canonical_key(random_unreduced(pres, coeffs, w, steps, rng,
                                                         geometry=geometry))
                yield repr(rng.random())

    digest = hashlib.sha256("\n".join(batch()).encode()).hexdigest()
    assert digest == "dfbfa4e676be6c06d7808378494ba460bc3940193c9bad83d5d72914e22f1b4d"


def test_rejected_walks_build_nothing(monkeypatch):
    """`random_element` builds only the walks it keeps: the first, and the
    redrawn one whose bottom word matches it."""
    walks, built = [], []
    real_walk, real_apply = sampling._walk, sampling.apply_move
    monkeypatch.setattr(sampling, "_walk",
                        lambda *args: walks.append(real_walk(*args)) or walks[-1])
    monkeypatch.setattr(sampling, "apply_move",
                        lambda *args: built.append(args) or real_apply(*args))
    rng, drawn, kept = random.Random(7), 0, 0
    for pres, coeffs, w in SAMPLER_CONFIGS:
        for geometry in GEOMETRIES:
            for _ in range(6):
                walks.clear()
                random_element(pres, coeffs, w, rng, geometry, steps=3, max_width=8)
                (path, u), (last, v) = walks[0], walks[-1]
                matched = len(walks) > 1 and GEOMETRY[geometry].match(u, v) is not None
                kept += len(path) + (len(last) if matched else 0)
                drawn += sum(len(p) for p, _ in walks)
    assert len(built) == kept
    assert drawn > 2 * kept  # most drawn steps are in rejected walks, which cost no diagram


def test_word_moves_errors_are_not_cached_and_tables_are_immutable():
    freesys = make_system(Q.alphabet, {"x": FreeSpec(("R1",))})
    cfg = BallConfig(Q, freesys)
    for _ in range(3):
        with pytest.raises(EnumerationError):
            list(unitary_moves(eps(Q, freesys, "x"), cfg, 0))
        with pytest.raises(EnumerationError):
            random_walk_diagram(Q, freesys, "x", 2, random.Random(0))
    table = word_moves(("x", "x"), BallConfig(Q, CYC2))
    assert isinstance(table, tuple) and table
    for move in table:
        assert isinstance(move, tuple) and all(isinstance(part, (str, tuple)) for part in move)


def test_equal_configs_hash_alike_and_share_one_table():
    cs = make_system(Q.alphabet, {"x": CyclicSpec(2)})
    a, b = BallConfig(Q, cs, "annular", 7), BallConfig(Q, CYC2, "annular", 7)
    assert a == b and a is not b and hash(a) == hash(b)
    assert BallConfig(Q, CYC2, "annular", 8) != a
    labels = ("x", "x", "x")
    first = word_moves(labels, a)
    hits = word_moves.cache_info().hits
    assert word_moves(labels, b) is first
    assert word_moves.cache_info().hits == hits + 1

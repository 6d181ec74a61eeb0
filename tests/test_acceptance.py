"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything asserts exact equality (canonical keys, integer distances,
verbatim report verdicts); tolerances are not applicable to this domain.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

from picturecalc.coeff import (
    CyclicSpec,
    FreeSpec,
    GraphProductWord,
    coeff_serialize,
    cyclic_element,
    free_element,
    gp_equal,
    gp_reduce,
    make_system,
    product_graph,
    trivial_system,
)
from picturecalc.embed import check_length_bounds, pi, psi
from picturecalc.moves import BallConfig, enumerate_reduced
from picturecalc.picture import (
    canonical_key,
    eps,
    invert,
    length,
    multiply,
    reduce,
)
from picturecalc.presentation import builtin_presentation, parse_presentation
from picturecalc.qmgraph import (
    ball,
    condition_plus_check,
    hyperplanes_report,
    pins_report,
    verify_qm_axioms,
)
from picturecalc.sampling import random_element, random_tree_pair, random_unreduced
from picturecalc.thompson import (
    diagram_to_tree_pair,
    evaluate_map,
    nadic,
    tp_multiply,
    tree_pair_to_diagram,
)

from oracles import (bfs_distances_oracle, count_dipoles, evaluate_oracle, gp_equal_oracle,
                     gp_reduced_forms, reduce_all_orders, reduce_oracle)

Q, _ = builtin_presentation("thompson")
TRIVQ = trivial_system(Q.alphabet)
CYC2Q = make_system(Q.alphabet, {"x": CyclicSpec(2)})
CYC3Q = make_system(Q.alphabet, {"x": CyclicSpec(3)})
ABC, WABC = builtin_presentation("commuting_abc")
TRIVABC = trivial_system(ABC.alphabet)
AP = parse_presentation("<a,p | a=a.p>")
CYC2AP = make_system(AP.alphabet, {"a": CyclicSpec(2)})

QM_CONFIGS = [
    ("thompson/trivial", Q, TRIVQ, ("x",)),
    ("thompson/cyclic2", Q, CYC2Q, ("x",)),
    ("thompson/cyclic3", Q, CYC3Q, ("x",)),
    ("commuting_abc/trivial", ABC, TRIVABC, WABC),
    ("a=ap/cyclic2(a)", AP, CYC2AP, ("p", "a")),
]

GROUP_CONFIGS = [
    ("thompson", Q, CYC2Q, ("x",)),
    ("higman(3,1)",) + builtin_presentation("higman", (3, 1))[:1] + (None, ("x",)),
]
# build the four group-law configurations explicitly
_hig, _whig = builtin_presentation("higman", (3, 1))
_hou, _whou = builtin_presentation("houghton", (2, 0))
GROUP_CONFIGS = [
    ("thompson+cyc2", Q, CYC2Q, ("x",)),
    ("higman(3,1)", _hig, trivial_system(_hig.alphabet), _whig),
    ("houghton(2,0)+cyc2a", _hou, make_system(_hou.alphabet, {"a": CyclicSpec(2)}), _whou),
    ("commuting_abc", ABC, TRIVABC, WABC),
]


def report(num, name, detail=""):
    print(f"[criterion {num:2d}] {name}: PASS {detail}")


def test_criterion_01_confluence():
    t0 = time.time()
    rng = random.Random(101)
    small = 0
    tried = 0
    while small < 200 and tried < 2000:
        tried += 1
        name, pres, coeffs, w = GROUP_CONFIGS[tried % len(GROUP_CONFIGS)]
        d = random_unreduced(pres, coeffs, w, rng.randrange(2, 5), rng, max_width=8)
        if count_dipoles(d) > 3:
            continue
        keys = reduce_all_orders(d)
        assert keys == {canonical_key(reduce(d))}, "reduction orders disagree"
        small += 1
    assert small == 200
    for _ in range(500):
        name, pres, coeffs, w = GROUP_CONFIGS[rng.randrange(len(GROUP_CONFIGS))]
        d = random_unreduced(pres, coeffs, w, rng.randrange(3, 7), rng, max_width=8)
        k1 = canonical_key(reduce_oracle(d, random.Random(rng.randrange(10 ** 9))))
        k2 = canonical_key(reduce_oracle(d, random.Random(rng.randrange(10 ** 9))))
        assert k1 == k2 == canonical_key(reduce(d))
    report(1, "confluence", f"(200 exhaustive + 500 randomized, {time.time()-t0:.1f}s)")


def test_criterion_02_group_axioms():
    t0 = time.time()
    rng = random.Random(202)
    per_geometry = 200
    for geometry in ("braided", "annular", "planar"):
        done = 0
        while done < per_geometry:
            name, pres, coeffs, w = GROUP_CONFIGS[done % len(GROUP_CONFIGS)]
            a = random_element(pres, coeffs, w, rng, geometry, steps=3, max_width=8)
            b = random_element(pres, coeffs, w, rng, geometry, steps=3, max_width=8)
            c = random_element(pres, coeffs, w, rng, geometry, steps=3, max_width=8)
            e = eps(pres, coeffs, w, annular=(geometry == "annular"))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, e) == reduce(a) and multiply(e, a) == reduce(a)
            assert multiply(a, invert(a)) == e and multiply(invert(a), a) == e
            done += 1
    report(2, "group axioms (braided/annular/planar)",
           f"(200 triples per geometry over 4 presentations, {time.time()-t0:.1f}s)")


def test_criterion_03_distance_formula():
    t0 = time.time()
    for name, coeffs in [("trivial", TRIVQ), ("cyclic2", CYC2Q)]:
        cfg = BallConfig(Q, coeffs)
        g = ball(eps(Q, coeffs, "x"), 4, cfg)
        n = len(g.vertices)
        pairs = 0
        for i in range(n):
            bfs = bfs_distances_oracle(g, i)
            for j in range(i + 1, n):
                assert bfs[j] == g.distance(i, j), (i, j)
                pairs += 1
        assert pairs == n * (n - 1) // 2
    report(3, "distance formula = BFS on radius-4 balls",
           f"(108- and 263-vertex balls, all pairs, {time.time()-t0:.1f}s)")


def test_criterion_04_quasi_median_axioms():
    t0 = time.time()
    for name, pres, coeffs, w in QM_CONFIGS:
        cfg = BallConfig(pres, coeffs)
        g = ball(eps(pres, coeffs, w), 3, cfg)
        rep = verify_qm_axioms(g)
        assert rep.passed, (name, rep.violations[:3])
        assert not rep.violations
        if coeffs.is_all_trivial():
            assert rep.details["triangle_free"]
    report(4, "quasi-median axioms on 5 radius-3 balls", f"({time.time()-t0:.1f}s)")


def test_criterion_05_median_corollary():
    t0 = time.time()
    total = 0
    for name, pres, coeffs, w in [("thompson", Q, TRIVQ, ("x",)),
                                  ("commuting_abc", ABC, TRIVABC, WABC)]:
        cfg = BallConfig(pres, coeffs)
        g = ball(eps(pres, coeffs, w), 3, cfg)
        assert not g.triangles(), f"{name}: trivial-coefficient ball must be triangle-free"
        inner = g.within(g.radius - 1)
        dist = g.distance
        for x, y, z in itertools.combinations(inner, 3):
            dxy, dyz, dxz = dist(x, y), dist(y, z), dist(x, z)
            if (g.depth(x) + g.depth(y) + dxy > 2 * g.radius or
                    g.depth(y) + g.depth(z) + dyz > 2 * g.radius or
                    g.depth(x) + g.depth(z) + dxz > 2 * g.radius):
                continue
            medians = [m for m in range(len(g.vertices))
                       if dist(x, m) + dist(m, y) == dxy
                       and dist(y, m) + dist(m, z) == dyz
                       and dist(x, m) + dist(m, z) == dxz]
            assert len(medians) == 1, (name, x, y, z, medians)
            total += 1
    assert total > 100
    report(5, "median corollary (triangle-free + unique medians)",
           f"({total} certified triples, {time.time()-t0:.1f}s)")


def test_criterion_06_pin_lemmas():
    t0 = time.time()
    for name, coeffs, size in [("cyclic2", CYC2Q, 2), ("cyclic3", CYC3Q, 3)]:
        cfg = BallConfig(Q, coeffs)
        g = ball(eps(Q, coeffs, "x"), 3, cfg)
        rep = pins_report(g)
        assert rep.passed, (name, rep.violations[:3])
        assert rep.details["max_pin_size"] == size
        if size == 3:
            assert g.triangles()
    report(6, "pin lemmas on cyclic(2)/cyclic(3) balls", f"({time.time()-t0:.1f}s)")


def test_criterion_07_hyperplane_suite():
    t0 = time.time()
    interiors = 0
    for name, pres, coeffs, w in QM_CONFIGS:
        cfg = BallConfig(pres, coeffs)
        g = ball(eps(pres, coeffs, w), 3, cfg)
        rep = hyperplanes_report(g)
        assert rep.passed, (name, rep.violations[:3])
        assert rep.details["interior"] >= 1
        interiors += rep.details["interior"]
    report(7, "hyperplane sector/gate/crossing suite",
           f"({interiors} interior hyperplanes over 5 balls, {time.time()-t0:.1f}s)")


def test_criterion_08_psi_homomorphism_and_length_bounds():
    t0 = time.time()
    rng = random.Random(808)
    kplus_verdicts = {}
    for name, params in [("thompson", ()), ("higman", (3, 1)),
                         ("houghton", (2, 0)), ("commuting_abc", ())]:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        kplus_ok = True
        for _ in range(200):
            a = random_element(pres, triv, w, rng, steps=3, max_width=8)
            b = random_element(pres, triv, w, rng, steps=3, max_width=8)
            assert canonical_key(psi(multiply(a, b))) == canonical_key(multiply(psi(a), psi(b)))
            r = check_length_bounds(a)
            assert r.lower_ok, (name, r)
            assert r.upper_ok, (name, r)
            kplus_ok = kplus_ok and r.paper_constant_ok
        kplus_verdicts[name] = "pass" if kplus_ok else "fail"
    report(8, "psi homomorphism + length bounds",
           f"(200 pairs/presentation; K+1 verdicts {kplus_verdicts}, {time.time()-t0:.1f}s)")


def test_criterion_09_injectivity_desk_checks():
    t0 = time.time()
    sizes = {}
    for name, params in [("thompson", ()), ("higman", (3, 1)), ("quasi_auto", (2, 1, 1)),
                         ("houghton", (2, 0)), ("commuting_abc", ())]:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        elems = enumerate_reduced(pres, triv, w, 3, "braided", max_width=10)
        keys = {canonical_key(psi(d)) for d in elems}
        assert len(keys) == len(elems), f"psi not injective over {name}"
        sizes[name] = len(elems)
    pres, w = builtin_presentation("higman", (3, 1))
    triv = trivial_system(pres.alphabet)
    elems = enumerate_reduced(pres, triv, w, 3, "braided", max_width=10)
    pairs = {repr(pi(d)[0]) for d in elems}
    assert len(pairs) == len(elems), "pi not injective on D_b(<x|x=x^3>, x) at length <= 3"
    report(9, "injectivity desk checks",
           f"(enumeration sizes {sizes}; pi injective on {len(elems)} Higman elements, "
           f"{time.time()-t0:.1f}s)")


def test_criterion_10_thompson_bridge():
    t0 = time.time()
    rng = random.Random(1010)
    for i in range(300):
        arity = 2 if i % 3 else 3
        tp = random_tree_pair(rng, arity, 3)
        assert diagram_to_tree_pair(tree_pair_to_diagram(tp)) == tp
    grid = [nadic(k, 8) if k else nadic(0, 0) for k in range(256)]
    for _ in range(40):
        a = random_tree_pair(rng, 2, 3)
        b = random_tree_pair(rng, 2, 3)
        ab = tp_multiply(a, b)
        assert canonical_key(tree_pair_to_diagram(ab)) == canonical_key(
            multiply(tree_pair_to_diagram(a), tree_pair_to_diagram(b)))
        for q in grid:
            lhs = evaluate_map(ab, q)
            assert lhs == evaluate_map(a, evaluate_map(b, q))
        # spot-check the digit-substitution evaluator against interval arithmetic
        for q in grid[::37]:
            got = evaluate_map(ab, q)
            assert Fraction(got.numerator, got.base ** got.exponent) == \
                evaluate_oracle(ab, Fraction(q.numerator, 2 ** q.exponent))
    report(10, "tree-pair bridge (roundtrip, multiplication, dyadic maps)",
           f"(300 roundtrips + 40 products at all k/256, {time.time()-t0:.1f}s)")


def test_criterion_11_condition_plus():
    t0 = time.time()
    rep = condition_plus_check(Q, CYC2Q, ("x",), 4, 2)
    assert rep.passed and not rep.inconclusive
    assert rep.details["holds_within_bounds"]
    excluded = rep.details.get("excluded", [])
    words = {w for w, _ in excluded}
    assert {"xx", "xxx", "xxxx"} <= words
    # every nontrivial permutation excluded: 1 + 5 + 23 for m = 2, 3, 4
    assert rep.checked == 29 and len(excluded) == 29
    rep2 = condition_plus_check(AP, CYC2AP, ("p", "p", "a"), 4, 2)
    assert any(v[0] == "no_witness" and v[1] == "pp" for v in rep2.inconclusive)
    assert not rep2.details["holds_within_bounds"]
    report(11, "condition (+): Q verified, a=ap counterexample inconclusive",
           f"(29 permutations excluded with witnesses, {time.time()-t0:.1f}s)")


def test_criterion_12_graph_product_calculus():
    t0 = time.time()
    specs = {"u": CyclicSpec(2), "v": FreeSpec(("t",)), "w": CyclicSpec(2),
             "z": FreeSpec(("t",))}
    G = product_graph("uvwz", [("u", "v"), ("v", "w"), ("w", "z"), ("z", "u")], specs)

    def elem(v, i):
        s = G.spec(v)
        if isinstance(s, CyclicSpec):
            return cyclic_element(s, 1)
        return free_element(s, [[("t", 1)], [("t", -1)], [("t", 1), ("t", 1)]][i % 3])

    words = []
    for n in range(7):
        for pattern in itertools.product("uvwz", repeat=n):
            sylls = tuple((v, elem(v, i)) for i, v in enumerate(pattern))
            words.append(GraphProductWord(G, sylls))
    assert len(words) == 5461
    for wrd in words:
        red = gp_reduce(wrd)
        forms = gp_reduced_forms(wrd)
        frozen = tuple((v, coeff_serialize(x)) for v, x in red.syllables)
        assert frozen in forms
        assert all(len(f) == len(red.syllables) for f in forms)
        assert gp_reduce(red).syllables == red.syllables
    rng = random.Random(1212)
    for _ in range(400):
        w1 = words[rng.randrange(len(words))]
        w2 = words[rng.randrange(len(words))]
        assert gp_equal(w1, w2) == gp_equal_oracle(w1, w2)
    report(12, "graph-product word calculus vs move-closure oracle",
           f"(5461 words + 400 equality pairs, {time.time()-t0:.1f}s)")

import itertools
import tracemalloc

import pytest

from picturecalc.coeff import (
    CyclicSpec,
    FreeSpec,
    GraphProductWord,
    GroupElement,
    TrivialSpec,
    coeff_invert,
    coeff_multiply,
    coeff_parse,
    coeff_serialize,
    cyclic_element,
    free_element,
    gp_equal,
    gp_head_support,
    gp_invert,
    gp_multiply,
    gp_reduce,
    identity,
    nontrivial_elements,
    product_graph,
    spec_parse,
)
from picturecalc.errors import ParseError

from oracles import (
    coeff_multiply_oracle,
    cyclic_element_oracle,
    free_element_oracle,
    gp_equal_oracle,
    gp_heads_oracle,
    gp_reduced_forms,
    identity_oracle,
    naive_free_reduce,
    nontrivial_elements_oracle,
)

F2 = FreeSpec(("R1", "R2"))
Z2 = CyclicSpec(2)
Z5 = CyclicSpec(5)


def test_free_inverse_cancels():
    g = free_element(F2, [("R1", 1)])
    assert coeff_multiply(g, coeff_invert(g)).is_identity()


def test_cyclic2_selfinverse():
    one = cyclic_element(Z2, 1)
    assert coeff_multiply(one, one).is_identity()


def test_cyclic5_inverse():
    assert coeff_invert(cyclic_element(Z5, 2)) == cyclic_element(Z5, 3)


def test_free_invert_antihomomorphism():
    g = free_element(F2, [("R1", 1), ("R2", 1)])
    assert coeff_invert(g).payload == (("R2", -1), ("R1", -1))


def test_identity_invert():
    for spec in (TrivialSpec(), Z2, F2):
        assert coeff_invert(identity(spec)).is_identity()


def test_interned_cyclic_elements_equal_fresh_ones():
    """Every product and inverse over cyclic:2 to cyclic:7, and each
    group's identity and element list, equal freshly built elements; an
    equal spec built apart multiplies with them."""
    for k in range(2, 8):
        spec = CyclicSpec(k)
        assert identity(spec) == identity_oracle(spec) == GroupElement(spec, 0)
        assert nontrivial_elements(spec) == nontrivial_elements_oracle(spec)
        elems = [cyclic_element(spec, r) for r in range(-k, 2 * k)]
        assert elems == [cyclic_element_oracle(spec, r) for r in range(-k, 2 * k)]
        twin = CyclicSpec(k)
        for a, b in itertools.product(elems, repeat=2):
            want = coeff_multiply_oracle(a, b)
            assert coeff_multiply(a, b) == want
            assert coeff_multiply(a, cyclic_element(twin, b.payload)) == want
        for a in elems:
            assert coeff_invert(a) == GroupElement(spec, -a.payload % k)


def test_free_and_trivial_elements_are_unchanged(rng):
    one = identity(TrivialSpec())
    assert one == GroupElement(TrivialSpec(), ()) == identity_oracle(TrivialSpec())
    assert coeff_multiply(one, one) == one and coeff_invert(one) == one
    assert nontrivial_elements(TrivialSpec()) == []
    assert identity(F2) == GroupElement(F2, ())
    for _ in range(200):
        u, v = ([(rng.choice(("R1", "R2")), rng.choice((1, -1))) for _ in range(rng.randrange(5))]
                for _ in range(2))
        a, b = free_element(F2, u), free_element(F2, v)
        assert a == free_element_oracle(F2, u)
        assert coeff_multiply(a, b) == coeff_multiply_oracle(a, b)
        assert coeff_invert(a) == free_element_oracle(F2, [(g, -s) for g, s in reversed(u)])


def test_identity_is_one_object_and_products_with_it_return_the_other_operand():
    for spec in (TrivialSpec(), Z5, F2):
        one = identity(spec)
        assert identity(spec) is one and coeff_invert(one) is one
    g, h = cyclic_element(Z5, 3), free_element(F2, [("R1", 1)])
    assert coeff_multiply(g, identity(Z5)) is g and coeff_multiply(identity(Z5), g) is g
    assert coeff_multiply(h, identity(F2)) is h and coeff_multiply(identity(F2), h) is h
    with pytest.raises(ValueError):  # the specs are checked before the identity is
        coeff_multiply(identity(Z2), cyclic_element(Z5, 1))


def test_huge_cyclic_order_builds_no_table():
    """An order of 10^10 interns only what is asked for."""
    tracemalloc.start()
    try:
        spec = CyclicSpec(10 ** 10)
        one = identity(spec)
        g = cyclic_element(spec, 12_345_678_901)
        h = coeff_multiply(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert one.payload == 0 and g.payload == 2_345_678_901 and h.payload == 4_691_357_802


def test_free_associativity_vs_naive(rng):
    gens = ["R1", "R2"]
    for _ in range(200):
        words = []
        for _ in range(3):
            w = [(rng.choice(gens), rng.choice([1, -1])) for _ in range(rng.randrange(6))]
            words.append(free_element(F2, w))
        a, b, c = words
        left = coeff_multiply(coeff_multiply(a, b), c)
        right = coeff_multiply(a, coeff_multiply(b, c))
        assert left == right
        naive = naive_free_reduce(tuple(a.payload) + tuple(b.payload) + tuple(c.payload))
        assert left.payload == naive


def test_spec_mismatch():
    with pytest.raises(ValueError):
        coeff_multiply(cyclic_element(Z2, 1), cyclic_element(Z5, 1))


def test_parse_serialize():
    assert coeff_parse(F2, "1").is_identity()
    assert coeff_parse(F2, "R1.R1^-1").is_identity()
    w = coeff_parse(F2, "R2.R2.R1^-1")
    assert w.payload == (("R2", 1), ("R2", 1), ("R1", -1))
    assert naive_free_reduce(w.payload) == w.payload
    assert coeff_parse(F2, coeff_serialize(w)) == w
    assert coeff_parse(Z5, "t.t") == cyclic_element(Z5, 2)
    assert coeff_parse(Z5, "t^3") == cyclic_element(Z5, 3)
    assert coeff_parse(Z5, "t^-1") == cyclic_element(Z5, 4)
    assert coeff_serialize(cyclic_element(Z5, 2)) == "t^2"
    with pytest.raises(ParseError):
        coeff_parse(F2, "Q1")
    with pytest.raises(ParseError):
        coeff_parse(F2, "R1^x")


def test_serialized_coefficients_read_back(rng):
    """Every element of cyclic:k for k <= 64, and seeded free words, reads
    back from its text; t^r is written t^r, and r copies of t still read."""
    for k in range(2, 65):
        spec = CyclicSpec(k)
        for r in range(k):
            g = cyclic_element(spec, r)
            assert coeff_parse(spec, coeff_serialize(g)) == g
            assert coeff_parse(spec, ".".join(["t"] * r) or "1") == g
        assert coeff_serialize(cyclic_element(spec, k - 1)) == ("t" if k == 2 else f"t^{k - 1}")
    for spec in (F2, FreeSpec(("R1", "R2", "R3"))):
        for _ in range(300):
            g = free_element(spec, [(rng.choice(spec.generators), rng.choice([1, -1]))
                                    for _ in range(rng.randrange(12))])
            assert coeff_parse(spec, coeff_serialize(g)) == g


def test_parse_power_is_a_signed_decimal():
    """Coefficient powers follow the word power rule plus a sign: the other
    literal forms int() reads are rejected."""
    assert coeff_parse(Z5, "t^-12") == cyclic_element(Z5, 3)
    assert coeff_parse(Z5, "t^\u0663") == cyclic_element(Z5, 3)
    assert coeff_parse(F2, "R1^-2").payload == (("R1", -1), ("R1", -1))
    for spec, text in [(Z5, "t^1_0"), (Z5, "t^+2"), (Z5, "t^-+2"), (Z5, "t^--2"), (Z5, "t^0x1"),
                       (Z5, "t^\u00b2"), (Z5, "t^-0"), (F2, "R1^1_0"), (F2, "R1^+1"), (F2, "R1^ ")]:
        with pytest.raises(ParseError):
            coeff_parse(spec, text)


def test_spec_parse():
    assert spec_parse("trivial") == TrivialSpec()
    assert spec_parse("cyclic:4") == CyclicSpec(4)
    assert spec_parse("free:2") == FreeSpec(("R1", "R2"))
    with pytest.raises(ParseError):
        spec_parse("weird:1")


def test_group_axioms_random(rng):
    for spec, sample in [
        (Z5, lambda: cyclic_element(Z5, rng.randrange(5))),
        (F2, lambda: free_element(F2, [(rng.choice(["R1", "R2"]), rng.choice([1, -1]))
                                       for _ in range(rng.randrange(5))])),
    ]:
        for _ in range(100):
            a, b, c = sample(), sample(), sample()
            assert coeff_multiply(coeff_multiply(a, b), c) == coeff_multiply(a, coeff_multiply(b, c))
            assert coeff_multiply(a, identity(spec)) == a
            assert coeff_multiply(identity(spec), a) == a
            assert coeff_multiply(a, coeff_invert(a)).is_identity()


# --- graph product word calculus -------------------------------------------------

def _square_graph():
    # 4-cycle u-v-w-z with cyclic(2) and free(1) vertex groups
    specs = {"u": CyclicSpec(2), "v": FreeSpec(("t",)), "w": CyclicSpec(2), "z": FreeSpec(("t",))}
    return product_graph("uvwz", [("u", "v"), ("v", "w"), ("w", "z"), ("z", "u")], specs)


def _elem(graph, v, code):
    spec = graph.spec(v)
    if isinstance(spec, CyclicSpec):
        return cyclic_element(spec, 1 + code % (spec.order - 1))
    table = [[("t", 1)], [("t", -1)], [("t", 1), ("t", 1)]]
    return free_element(spec, table[code % 3])


def test_gp_cancellation_and_shuffle_trivial_cases():
    g = _square_graph()
    a = _elem(g, "u", 0)
    w = GraphProductWord(g, (("u", a), ("u", a)))
    assert gp_reduce(w).syllables == ()  # cyclic(2): cancellation after amalgamation
    h = _elem(g, "v", 0)
    w2 = GraphProductWord(g, (("u", a), ("v", h), ("u", a)))
    assert gp_reduce(w2).syllables == (("v", h),)  # shuffle then cancel across edge {u,v}


def test_gp_reduce_requires_known_vertex():
    g = _square_graph()
    spec = CyclicSpec(2)
    with pytest.raises(ValueError, match="syllable vertex 'q' absent from graph"):
        GraphProductWord(g, (("q", cyclic_element(spec, 1)),))
    with pytest.raises(ValueError, match="syllable at 'v' uses the wrong group spec"):
        GraphProductWord(g, (("v", cyclic_element(spec, 1)),))
    with pytest.raises(KeyError):
        g.spec("q")
    # the vertex -> spec table the checks read is not a field
    assert g == _square_graph() and hash(g) == hash(_square_graph())
    assert repr(g) == repr(_square_graph())


def test_gp_no_edges_is_free_product(rng):
    specs = {"u": CyclicSpec(2), "v": CyclicSpec(3)}
    g = product_graph("uv", [], specs)
    for _ in range(50):
        sylls = tuple(
            (v, cyclic_element(g.spec(v), rng.randrange(1, 2 if v == "u" else 3)))
            for v in (rng.choice("uv") for _ in range(rng.randrange(6)))
        )
        w = GraphProductWord(g, sylls)
        red = gp_reduce(w)
        assert tuple((v, coeff_serialize(x)) for v, x in red.syllables) in gp_reduced_forms(w)
        # free product normal form: no two adjacent syllables share a vertex
        for i in range(len(red.syllables) - 1):
            assert red.syllables[i][0] != red.syllables[i + 1][0]


def test_gp_complete_graph_is_direct_sum(rng):
    specs = {"u": CyclicSpec(2), "v": CyclicSpec(3), "w": CyclicSpec(5)}
    g = product_graph("uvw", [("u", "v"), ("v", "w"), ("u", "w")], specs)
    for _ in range(50):
        sylls = tuple(
            (v, cyclic_element(g.spec(v), rng.randrange(1, {"u": 2, "v": 3, "w": 5}[v])))
            for v in (rng.choice("uvw") for _ in range(rng.randrange(6)))
        )
        w = GraphProductWord(g, sylls)
        red = gp_reduce(w)
        # componentwise product, vertices in declaration order
        totals = {"u": 0, "v": 0, "w": 0}
        for v, x in sylls:
            totals[v] += x.payload
        expect = tuple(
            (v, cyclic_element(g.spec(v), totals[v]))
            for v in "uvw" if totals[v] % g.spec(v).order
        )
        assert red.syllables == expect


def test_gp_reduce_matches_closure_oracle(rng):
    g = _square_graph()
    for _ in range(60):
        n = rng.randrange(7)
        sylls = tuple((rng.choice("uvwz"), _elem(g, rng.choice("uvwz"), rng.randrange(3)))
                      for _ in range(n))
        sylls = tuple((v, _elem(g, v, rng.randrange(3))) for v, _ in sylls)
        w = GraphProductWord(g, sylls)
        red = gp_reduce(w)
        forms = gp_reduced_forms(w)
        assert tuple((v, coeff_serialize(x)) for v, x in red.syllables) in forms
        assert gp_reduce(red).syllables == red.syllables  # idempotent


def test_gp_equal_shuffles_and_oracle(rng):
    g = _square_graph()
    a, b = _elem(g, "u", 0), _elem(g, "v", 0)
    w1 = GraphProductWord(g, (("u", a), ("v", b)))
    w2 = GraphProductWord(g, (("v", b), ("u", a)))
    assert gp_equal(w1, w2)  # adjacent commuting syllables
    c = _elem(g, "w", 0)
    assert not gp_equal(w1, GraphProductWord(g, (("w", c),)))
    for _ in range(40):
        s1 = tuple((v, _elem(g, v, rng.randrange(3)))
                   for v in (rng.choice("uvwz") for _ in range(rng.randrange(5))))
        s2 = tuple((v, _elem(g, v, rng.randrange(3)))
                   for v in (rng.choice("uvwz") for _ in range(rng.randrange(5))))
        w1, w2 = GraphProductWord(g, s1), GraphProductWord(g, s2)
        assert gp_equal(w1, w2) == gp_equal_oracle(w1, w2)


def test_gp_multiply_and_invert_match_the_closure_oracle(rng):
    g = _square_graph()

    def word(*parts):
        return GraphProductWord(g, sum(parts, ()))

    def random_syllables():
        return tuple((v, _elem(g, v, rng.randrange(3)))
                     for v in (rng.choice("uvwz") for _ in range(rng.randrange(5))))

    for _ in range(40):
        w1, w2 = word(random_syllables()), word(random_syllables())
        assert gp_equal_oracle(gp_multiply(w1, w2), word(w1.syllables, w2.syllables))
        inv = gp_invert(w1)
        assert gp_equal_oracle(word(w1.syllables, inv.syllables), word())
        assert gp_multiply(w1, inv).syllables == ()
        assert gp_invert(inv).syllables == gp_reduce(w1).syllables


def test_gp_head_support(rng):
    g = _square_graph()
    a, b = _elem(g, "u", 0), _elem(g, "w", 0)
    # u and w are NOT adjacent in the 4-cycle: no shuffle moves b forward
    w = GraphProductWord(g, (("u", a), ("w", b)))
    head, support = gp_head_support(w)
    assert head == {("u", a)}
    assert support == {"u", "w"}
    # u and v adjacent: both syllables can go first
    c = _elem(g, "v", 0)
    head2, support2 = gp_head_support(GraphProductWord(g, (("u", a), ("v", c))))
    assert head2 == {("u", a), ("v", c)}
    assert support2 == {"u", "v"}
    for _ in range(30):
        sylls = tuple((v, _elem(g, v, rng.randrange(3)))
                      for v in (rng.choice("uvwz") for _ in range(rng.randrange(5))))
        w = GraphProductWord(g, sylls)
        red = gp_reduce(w)
        head, _ = gp_head_support(w)
        expect = gp_heads_oracle(red)  # frozen (vertex, serialized element) pairs
        assert {(v, coeff_serialize(x)) for v, x in head} == expect


def test_gp_equal_equivalence_small_exhaustive():
    # reflexive/symmetric/transitive over a small exhaustive family
    g = _square_graph()
    verts = "uvwz"
    words = []
    for pattern in itertools.product(verts, repeat=2):
        sylls = tuple((v, _elem(g, v, i)) for i, v in enumerate(pattern))
        words.append(GraphProductWord(g, sylls))
    for w1 in words:
        assert gp_equal(w1, w1)
        for w2 in words:
            assert gp_equal(w1, w2) == gp_equal(w2, w1)
    for w1 in words[:8]:
        for w2 in words[:8]:
            for w3 in words[:8]:
                if gp_equal(w1, w2) and gp_equal(w2, w3):
                    assert gp_equal(w1, w3)

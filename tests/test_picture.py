import hashlib
import itertools
import random
import re
from pathlib import Path

import pytest

from picturecalc.coeff import (
    CyclicSpec,
    FreeSpec,
    cyclic_element,
    free_element,
    identity,
    make_system,
    trivial_system,
)
from picturecalc import picture
from picturecalc.errors import CompositionError
from picturecalc.picture import (
    GEOMETRY,
    Diagram,
    atom_linear,
    atom_permutation,
    atom_transistor,
    boundaries,
    canonical_key,
    class_representative,
    classify_geometry,
    classify_kind,
    concat,
    eps,
    invert,
    is_reduced,
    length,
    multiply,
    reduce,
    rel_sides,
    sum_diagrams,
    top_down,
)
from picturecalc.presentation import builtin_presentation, parse_presentation
from picturecalc.sampling import random_element, random_unreduced, random_walk_diagram

from oracles import (
    after_oracle,
    boundary_match_oracle,
    boundary_symmetry_oracle,
    classify_geometry_oracle,
    concat_oracle,
    count_dipoles,
    factorize,
    feed_tuples_oracle,
    key_text_oracle,
    label_permutations_oracle,
    reduce_all_orders,
    reduce_oracle,
    shuffled_transistor_ids,
)

Q, XW = builtin_presentation("thompson")
TRIV = trivial_system(Q.alphabet)


def tplus():
    return atom_transistor(Q, TRIV, (), 0, 1, ())


def tminus():
    return atom_transistor(Q, TRIV, (), 0, -1, ())


def test_eps_basics():
    d = eps(Q, TRIV, "x")
    top, bot, topw, botw = boundaries(d)
    assert topw == ("x",) and botw == ("x",)
    assert length(d) == 0
    assert classify_kind(d) == "permutation"
    d.validate()
    with pytest.raises(ValueError):
        eps(Q, TRIV, "")


def test_eps_labelled_and_mismatch():
    cs = make_system(Q.alphabet, {"x": CyclicSpec(2)})
    g = cyclic_element(CyclicSpec(2), 1)
    d = eps(Q, cs, [("x", None), ("x", g)])
    assert classify_kind(d) == "linear"
    assert d.top_word() == ("x", "x")
    with pytest.raises(ValueError):
        eps(Q, TRIV, [("x", g)])  # element from the wrong group


def test_equality_compares_configurations(monkeypatch):
    other = parse_presentation("<x | x=x.x.x>")
    a, b = eps(Q, TRIV, "x"), eps(other, trivial_system(other.alphabet), "x")
    # with one tag for every configuration the keys agree, the diagrams do not
    monkeypatch.setattr(picture, "_config_tag", lambda pres, coeffs: "00000000")
    assert canonical_key(a) == canonical_key(b)
    assert a != b
    assert a == eps(Q, TRIV, "x")


def test_keys_spell_coefficients_in_every_configuration():
    # one label over several groups, keyed in one process: each key spells
    # its own configuration's coefficient texts
    cases = [
        ({"x": CyclicSpec(2)}, lambda s: cyclic_element(s, 1), "x:t"),
        ({"x": CyclicSpec(3)}, lambda s: cyclic_element(s, 2), "x:t^2"),
        ({"x": FreeSpec(("u", "v"))}, lambda s: free_element(s, [("u", 1), ("v", -1)]),
         "x:u.v^-1"),
        ({}, identity, "x:1"),
    ]
    for overrides, element, text in cases:
        cs = make_system(Q.alphabet, overrides)
        d = eps(Q, cs, [("x", element(cs.spec("x"))), ("x", None)])
        assert f"|W{text};x:1|" in canonical_key(d)
        assert canonical_key(d) == key_text_oracle(d)


def _cycle_diagram():
    # two transistors, each fed by the other's first bottom wire
    wires = {w: ("x", identity(TRIV.spec("x"))) for w in range(4)}
    return Diagram(Q, TRIV, wires, {0: (0, 1), 1: (0, 1)}, {0: (0,), 1: (1,)},
                   {0: (1, 2), 1: (0, 3)}, (), (2, 3))


def test_validate_rejects_cycle():
    with pytest.raises(ValueError, match="transistor order has a cycle"):
        _cycle_diagram().validate()


def test_validate_rejects_a_wire_with_two_attachments_on_one_side():
    wires = {w: ("x", identity(TRIV.spec("x"))) for w in range(3)}
    # wire 0 feeds transistor 0 and is frame-bottom port 2 as well
    two_bottoms = Diagram(Q, TRIV, wires, {0: (0, 1)}, {0: (0,)}, {0: (1, 2)}, (0,), (1, 2, 0))
    # wire 1 is frame-top port 1 and rises from transistor 0 as well
    two_tops = Diagram(Q, TRIV, wires, {0: (0, 1)}, {0: (0,)}, {0: (1, 2)}, (0, 1), (1, 2))
    for d in (two_bottoms, two_tops):
        with pytest.raises(ValueError, match="exactly one top and one bottom attachment"):
            d.validate()


def test_top_down_follows_the_transistor_order(rng):
    for pres, w in [(Q, XW), builtin_presentation("commuting_abc")]:
        triv = trivial_system(pres.alphabet)
        for geometry in GEOMETRY:
            for _ in range(8):
                d = random_unreduced(pres, triv, w, rng.randrange(1, 8), rng,
                                     geometry=geometry)
                d = shuffled_transistor_ids(d, rng)
                order = list(top_down(d))
                assert sorted(order) == sorted(d.transistors)
                place = {t: i for i, t in enumerate(order)}
                for t in order:
                    for v in d.t_top[t]:
                        site = d.wire_top[v]
                        assert site[0] != "TB" or place[site[1]] < place[t]
    assert list(top_down(_cycle_diagram())) == []


def test_atom_transistor_basics():
    t = tplus()
    assert t.top_word() == ("x",) and t.bot_word() == ("x", "x")
    assert length(t) == 1
    assert classify_kind(t) == "transistor"
    t.validate()
    assert invert(t) == tminus()
    padded = atom_transistor(Q, TRIV, ("x",), 0, 1, ())
    assert padded.top_word() == ("x", "x") and padded.bot_word() == ("x", "x", "x")
    with pytest.raises(ValueError):
        atom_transistor(Q, TRIV, (), 5, 1, ())


def test_atom_permutation():
    d = atom_permutation(Q, TRIV, "xx", (0, 1))
    assert d == eps(Q, TRIV, "xx")
    swap = atom_permutation(Q, TRIV, "xx", (1, 0))
    assert swap != d
    assert classify_kind(swap) == "permutation"
    with pytest.raises(ValueError):
        atom_permutation(Q, TRIV, "xx", (0, 0))


def test_atom_digest_is_pinned():
    """sha256 of the keys of every transistor atom of the builtins, per
    relation, direction, pad of at most one letter a side, annular flag and
    coefficient system, and of every permutation atom on each such atom's
    top word, one letter labelled: atoms are hung with
    `apply_transistor_move` and bottom-port orders, and their internal ids
    may change, their keys may not."""
    def keys():
        for name, params in [("thompson", ()), ("higman", (3, 1)), ("quasi_auto", (2, 1, 1)),
                             ("houghton", (2, 0)), ("commuting_abc", ())]:
            pres, _ = builtin_presentation(name, params)
            first = pres.alphabet[0]
            cyc = make_system(pres.alphabet, {first: CyclicSpec(2)})
            pads = [()] + [(x,) for x in pres.alphabet]
            for rel_index, direction in itertools.product(range(len(pres.relations)), (1, -1)):
                top = rel_sides(pres, rel_index, direction)[0]
                for a, b, annular in itertools.product(pads, pads, (False, True)):
                    for coeffs in (trivial_system(pres.alphabet), cyc):
                        yield canonical_key(atom_transistor(pres, coeffs, a, rel_index,
                                                            direction, b, annular))
                    word = a + top + b
                    labelled = [(x, cyclic_element(CyclicSpec(2), 1) if x == first else None)
                                for x in word]
                    for perm in itertools.permutations(range(len(word))):
                        yield canonical_key(atom_permutation(pres, cyc, labelled, perm, annular))

    digest = hashlib.sha256("\n".join(keys()).encode()).hexdigest()
    assert digest == "a07a3135fbc4b85ba08ef0dc801fcb065d65fabc2d4f5b3a27fbe96f2af72522"


def test_atom_linear():
    cs = make_system(Q.alphabet, {"x": CyclicSpec(3)})
    g = cyclic_element(CyclicSpec(3), 1)
    lin = atom_linear(Q, cs, ("x",), 0, g)
    assert lin == eps(Q, cs, [("x", g)])
    assert classify_kind(lin) == "linear"
    assert length(lin) == 1
    cancel = multiply(atom_linear(Q, cs, ("x",), 0, g),
                      atom_linear(Q, cs, ("x",), 0, cyclic_element(CyclicSpec(3), 2)))
    assert cancel == eps(Q, cs, "x")
    with pytest.raises(ValueError):
        atom_linear(Q, cs, ("x",), 0, identity(CyclicSpec(3)))


def test_concat_identity_and_merge():
    t = tplus()
    assert concat(eps(Q, TRIV, "x"), t) == t
    assert concat(t, eps(Q, TRIV, "xx")) == t
    two = concat(t, invert(t))
    assert count_dipoles(two) == 1
    with pytest.raises(CompositionError):
        concat(t, t)


def test_concat_coefficient_merge_order():
    cs = make_system(Q.alphabet, {"x": FreeSpec(("u", "v"))})
    g = free_element(cs.spec("x"), [("u", 1)])
    h = free_element(cs.spec("x"), [("v", 1)])
    gh = free_element(cs.spec("x"), [("u", 1), ("v", 1)])
    assert concat(eps(Q, cs, [("x", g)]), eps(Q, cs, [("x", h)])) == eps(Q, cs, [("x", gh)])


def test_sum():
    assert sum_diagrams(eps(Q, TRIV, "x"), eps(Q, TRIV, "xx")) == eps(Q, TRIV, "xxx")
    assert sum_diagrams(tplus(), eps(Q, TRIV, "x")) == atom_transistor(Q, TRIV, (), 0, 1, ("x",))
    ann = eps(Q, TRIV, "x", annular=True)
    with pytest.raises(CompositionError):
        sum_diagrams(ann, eps(Q, TRIV, "x"))


def test_sum_length_additive(rng):
    for _ in range(20):
        a = random_walk_diagram(Q, TRIV, "x", rng.randrange(4), rng)
        b = random_walk_diagram(Q, TRIV, "xx", rng.randrange(4), rng)
        assert length(sum_diagrams(a, b)) == length(a) + length(b)


def test_invert():
    assert invert(eps(Q, TRIV, "xx")) == eps(Q, TRIV, "xx")
    t = tplus()
    assert invert(invert(t)) == t
    cs = make_system(Q.alphabet, {"x": CyclicSpec(5)})
    g = cyclic_element(CyclicSpec(5), 2)
    assert invert(eps(Q, cs, [("x", g)])) == eps(Q, cs, [("x", cyclic_element(CyclicSpec(5), 3))])


def test_multiply_inverse_law(rng):
    cs = make_system(Q.alphabet, {"x": CyclicSpec(2)})
    for _ in range(40):
        d = random_walk_diagram(Q, cs, "x", rng.randrange(5), rng)
        man = multiply(d, invert(d))
        assert man == eps(Q, cs, d.top_word())


def test_reduce_single_dipole():
    assert multiply(tplus(), invert(tplus())) == eps(Q, TRIV, "x")


def test_reduce_blocked_by_coefficient():
    cs = make_system(Q.alphabet, {"x": FreeSpec(("u",))})
    g = free_element(cs.spec("x"), [("u", 1)])
    t = atom_transistor(Q, cs, (), 0, 1, ())
    lin = atom_linear(Q, cs, ("x", "x"), 0, g)
    d = reduce(concat(t, concat(lin, invert(t))))
    assert len(d.transistors) == 2
    # the same sandwich with the identity reduces fully
    d2 = reduce(concat(t, concat(eps(Q, cs, "xx"), invert(t))))
    assert d2 == eps(Q, cs, "x")


def test_reduce_merges_coefficients_through_dipole():
    cs = make_system(Q.alphabet, {"x": FreeSpec(("u", "v"))})
    g = free_element(cs.spec("x"), [("u", 1)])
    h = free_element(cs.spec("x"), [("v", 1)])
    gh = free_element(cs.spec("x"), [("u", 1), ("v", 1)])
    top = eps(Q, cs, [("x", g)])
    bot = eps(Q, cs, [("x", h)])
    d = concat(top, concat(tplus_sys(cs), concat(invert(tplus_sys(cs)), bot)))
    assert reduce(d) == eps(Q, cs, [("x", gh)])


def tplus_sys(cs):
    return atom_transistor(Q, cs, (), 0, 1, ())


def test_confluence_small(rng):
    cs = make_system(Q.alphabet, {"x": CyclicSpec(2)})
    checked = 0
    for _ in range(60):
        d = random_unreduced(Q, cs, "x", rng.randrange(2, 5), rng)
        if count_dipoles(d) <= 3:
            keys = reduce_all_orders(d)
            assert len(keys) == 1
            assert keys == {canonical_key(reduce(d))}
            checked += 1
    assert checked >= 10


def test_reduce_random_orders_agree(rng):
    for _ in range(40):
        d = random_unreduced(Q, TRIV, "x", rng.randrange(3, 7), rng)
        k1 = canonical_key(reduce_oracle(d, random.Random(rng.randrange(10**9))))
        k2 = canonical_key(reduce_oracle(d, random.Random(rng.randrange(10**9))))
        assert k1 == k2 == canonical_key(reduce(d))


def test_multiply_identity_assoc(rng):
    for _ in range(25):
        d = random_walk_diagram(Q, TRIV, "x", rng.randrange(4), rng)
        assert multiply(eps(Q, TRIV, "x"), d) == reduce(d)
    for _ in range(25):
        a = random_element(Q, TRIV, "x", rng)
        b = random_element(Q, TRIV, "x", rng)
        c = random_element(Q, TRIV, "x", rng)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_length_subadditive(rng):
    for _ in range(30):
        a = random_element(Q, TRIV, "x", rng)
        b = random_element(Q, TRIV, "x", rng)
        assert length(multiply(a, b)) <= length(a) + length(b)


def _items(d):
    """Everything `concat`, `reduce` and `multiply` must reproduce exactly:
    every dict's items in order, the ports, the annular flag and the
    endpoint maps."""
    return (list(d.wires.items()), list(d.transistors.items()), list(d.t_top.items()),
            list(d.t_bot.items()), d.top_ports, d.bottom_ports, d.annular,
            d.wire_top, d.wire_bot)


# every builtin, with cyclic coefficients where its letters allow them
EXACTNESS_CONFIGS = [
    ("thompson", (), {"x": 2}),
    ("thompson", (), {"x": 3}),
    ("higman", (3, 1), {}),
    ("quasi_auto", (2, 1, 1), {"a": 2}),
    ("houghton", (2, 0), {"a": 2}),
    ("commuting_abc", (), {"a": 2}),
]


@pytest.mark.parametrize("geometry, seed", [("planar", 1), ("annular", 2), ("braided", 3)])
def test_glue_and_worklist_match_oracles(geometry, seed):
    """`concat` equals `concat_oracle`, and `multiply` and `reduce` equal
    `reduce_oracle` of it, item for item and in order, along seeded chains
    of products.  A fifth of the factors are the unreduced e.e^-1.e, whose
    dipoles overlap, so the general path of `multiply` runs as well as the
    seam path; no operand is changed."""
    rng = random.Random(seed)
    for name, params, cyclic in EXACTNESS_CONFIGS:
        pres, w = builtin_presentation(name, params)
        cs = make_system(pres.alphabet, {x: CyclicSpec(k) for x, k in cyclic.items()})

        def factor():
            e = random_element(pres, cs, w, rng, geometry, steps=3, max_width=8)
            if rng.random() < 0.2:
                e = concat_oracle(concat_oracle(e, invert(e)), e)
            return e

        for _ in range(3):
            p = factor()
            for _ in range(10):
                e = factor()
                before = (_items(p), _items(e))
                glued = concat_oracle(p, e)
                want = reduce_oracle(glued)
                assert _items(concat(p, e)) == _items(glued)
                assert _items(reduce(concat_oracle(p, e))) == _items(want)
                got = multiply(p, e)
                assert _items(got) == _items(want) and is_reduced(want)
                assert (_items(p), _items(e)) == before
                p = got if rng.random() < 0.8 else concat_oracle(got, e)


def test_kept_next_ids_stay_exact():
    """Along seeded chains of products, reductions, moves (half of them
    cancelling the transistor they add), inverses and sums, and products
    by the inverse of the last factor (which cancel the newest
    transistors), every id a diagram keeps is its largest id plus one."""
    from picturecalc.moves import BallConfig, apply_move, unitary_moves

    def check(d):
        want = ((max(d.wires) if d.wires else 0) + 1,
                (max(d.transistors) if d.transistors else 0) + 1)
        assert d._next_wire in (None, want[0]) and d._next_trans in (None, want[1])
        if rng.random() < 0.5:  # fill the kept ids on some diagrams only
            assert picture._next_ids(d) == want

    rng = random.Random(37)
    dropped = 0
    for geometry in ("planar", "annular", "braided"):
        for name, params, cyclic in EXACTNESS_CONFIGS:
            pres, w = builtin_presentation(name, params)
            cs = make_system(pres.alphabet, {x: CyclicSpec(k) for x, k in cyclic.items()})
            cfg = BallConfig(pres, cs, geometry, max_width=10)
            p = random_element(pres, cs, w, rng, geometry, steps=3, max_width=8)
            for _ in range(12):
                e = random_element(pres, cs, w, rng, geometry, steps=3, max_width=8)
                check(e)
                op = rng.randrange(4)
                if op == 0:
                    p = multiply(p, e)
                    check(p)
                    p = multiply(p, invert(e))
                elif op == 1:
                    p = reduce(concat(p, e))
                elif op == 2:
                    p = multiply(p, invert(p)) if rng.random() < 0.3 else invert(p)
                elif geometry == "planar":
                    check(sum_diagrams(p, e))
                dropped += p._next_wire is None or p._next_trans is None
                check(p)
                q = p  # a walk of moves leaves the (w, w)-diagrams
                for _ in range(3):
                    moves = list(unitary_moves(q, cfg, length(q)))
                    cancelling = [m for m in moves if m[3] is not None and m[0] == "transistor"]
                    kind, witness, _, _ = rng.choice(cancelling if cancelling and
                                                     rng.random() < 0.5 else moves)
                    q = apply_move(q, kind, witness, geometry)
                    check(q)
    assert dropped > 0  # some step deleted a kept largest id


def test_worklist_scales_on_deep_products():
    """A.A^-1 for a seeded A of 800 transistors (x -> x.x at random bottom
    wires, so A is reduced) cancels pair by pair from the seam: each
    cancellation re-examines only the transistors below it, so both paths
    stay far from the cost of rescanning after every cancellation."""
    from time import perf_counter

    from picturecalc.picture import apply_transistor_move

    rng = random.Random(17)
    a = eps(Q, TRIV, "x")
    while len(a.transistors) < 800:
        a = apply_transistor_move(a, 0, 1, (rng.randrange(len(a.bottom_ports)),))
    assert is_reduced(a) and len(a.transistors) == 800
    for product in (lambda: reduce(concat(a, invert(a))), lambda: multiply(a, invert(a))):
        t0 = perf_counter()
        out = product()
        elapsed = perf_counter() - t0
        assert length(out) == 0 and out == eps(Q, TRIV, "x")
        assert elapsed < 0.15, elapsed


def test_canonical_key_invariance():
    # same combinatorics, different internal ids
    t = tplus()
    shifted = Diagram(Q, TRIV,
                      {w + 7: v for w, v in t.wires.items()},
                      {tid + 3: v for tid, v in t.transistors.items()},
                      {tid + 3: tuple(w + 7 for w in tup) for tid, tup in t.t_top.items()},
                      {tid + 3: tuple(w + 7 for w in tup) for tid, tup in t.t_bot.items()},
                      tuple(w + 7 for w in t.top_ports),
                      tuple(w + 7 for w in t.bottom_ports))
    assert canonical_key(shifted) == canonical_key(t)
    assert canonical_key(t) != canonical_key(eps(Q, TRIV, "x"))


def test_class_key_quotient():
    t = tplus()
    swapped = concat(t, atom_permutation(Q, TRIV, "xx", (1, 0)))
    assert canonical_key(class_representative(t)) == canonical_key(class_representative(swapped))
    assert canonical_key(t) != canonical_key(swapped)
    # annular flag distinguishes keys
    assert canonical_key(eps(Q, TRIV, "x", annular=True)) != canonical_key(eps(Q, TRIV, "x"))


def test_length_counts_transistors_and_coefficients():
    pres = parse_presentation("<a,b,p | a=a.p, b=p.b>")
    cs = make_system(pres.alphabet, {"a": FreeSpec(("t",)), "b": FreeSpec(("t",)), "p": FreeSpec(("t",))})
    g = free_element(cs.spec("a"), [("t", 1)])
    d = eps(pres, cs, "ab")
    d = concat(d, atom_transistor(pres, cs, (), 0, 1, ("b",)))        # ab -> apb
    d = concat(d, atom_transistor(pres, cs, ("a", "p"), 1, 1, ()))    # apb -> appb
    d = concat(d, atom_linear(pres, cs, d.bot_word(), 0, g))
    d = concat(d, atom_linear(pres, cs, d.bot_word(), 1, free_element(cs.spec("p"), [("t", -1)])))
    r = reduce(d)
    assert is_reduced(r)
    assert length(d) == len(r.transistors) + sum(
        1 for _, c in r.wires.values() if not c.is_identity()) == 4


def test_classify_kind_examples():
    assert classify_kind(atom_permutation(Q, TRIV, "xxx", (2, 0, 1))) == "permutation"
    assert classify_kind(tplus()) == "transistor"
    cs = make_system(Q.alphabet, {"x": CyclicSpec(2)})
    assert classify_kind(atom_linear(Q, cs, ("x", "x"), 1, cyclic_element(CyclicSpec(2), 1))) == "linear"
    assert classify_kind(concat(tplus(), atom_transistor(Q, TRIV, (), 0, 1, ("x",)))) == "general"
    # a braided wire with one nontrivial coefficient is not a linear diagram
    braided_lin = concat(atom_permutation(Q, cs, "xx", (1, 0)),
                         atom_linear(Q, cs, ("x", "x"), 0, cyclic_element(CyclicSpec(2), 1)))
    assert classify_kind(braided_lin) == "general"


def test_classify_geometry_anchors():
    assert classify_geometry(eps(Q, TRIV, "xxx")) == "planar"
    assert classify_geometry(tplus()) == "planar"
    rot = atom_permutation(Q, TRIV, "xxx", (1, 2, 0))
    assert classify_geometry(rot) == "annular_not_planar"
    swap = atom_permutation(Q, TRIV, "xxx", (1, 0, 2))
    assert classify_geometry(swap) == "braided_only"
    assert classify_geometry_oracle(rot) == "annular_not_planar"
    assert classify_geometry_oracle(swap) == "braided_only"


ABC_WORDS = [w for n in range(7) for w in itertools.product("abc", repeat=n)]


def test_geometry_table_matches_branch_oracles():
    # every word over {a,b,c} up to length 6: feeds of the word itself and of
    # every word of length 1 or 2, the bottom order after each feed, the
    # boundary match onto its rotations, reversal, sorted form, one longer
    # word and (up to length 4) every word of its length, and the symmetry
    short = [w for w in ABC_WORDS if 1 <= len(w) <= 2]
    produced = (90, 91)
    for name, geo in GEOMETRY.items():
        assert geo.annular == (name == "annular")
        for u in ABC_WORDS:
            ports = tuple(range(10, 10 + len(u)))
            for consumed in [u] + short:
                feeds = list(geo.feeds(u, consumed))
                assert feeds == list(feed_tuples_oracle(u, consumed, name)), (name, u, consumed)
                for positions in feeds if consumed else ():
                    assert (geo.after(ports, positions, produced)
                            == after_oracle(ports, positions, produced, name))
            others = {u[k:] + u[:k] for k in range(len(u))} | {u[::-1], tuple(sorted(u)), u + ("a",)}
            if len(u) <= 4:
                others.update(itertools.product("abc", repeat=len(u)))
            for v in others:
                assert geo.match(u, v) == boundary_match_oracle(u, v, name), (name, u, v)
            assert geo.symmetry(u) == boundary_symmetry_oracle(u, name), (name, u)


def test_braided_feeds_match_the_oracle_on_seeded_repeated_letters(rng):
    # longer words than the table above, over two letters, so most letters repeat
    feeds = GEOMETRY["braided"].feeds
    for _ in range(300):
        u = tuple(rng.choice("ab") for _ in range(rng.randrange(10)))
        consumed = tuple(rng.choice("abc") for _ in range(rng.randrange(6)))
        assert (list(feeds(u, consumed))
                == list(feed_tuples_oracle(u, consumed, "braided"))), (u, consumed)


def test_braided_self_feeds_are_the_label_permutations():
    for w in ABC_WORDS:
        assert (list(itertools.islice(GEOMETRY["braided"].feeds(w, w), 1, None))
                == label_permutations_oracle(w))


def test_no_geometry_name_comparison_outside_the_table():
    pattern = re.compile(r"""geometry\s*[!=]=|[!=]=\s*["'](braided|annular|planar)["']""")
    for path in sorted(Path(picture.__file__).parent.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            assert not pattern.search(line), f"{path.name}:{i}: {line.strip()}"


def test_no_spec_class_test_outside_coeff():
    # a coefficient group's kind is read from its `order`; coeff.py alone
    # tells the spec classes apart
    pattern = re.compile(r"isinstance\(.*\b(Trivial|Cyclic|Free|Group)Spec\b")
    for path in sorted(Path(picture.__file__).parent.glob("*.py")):
        if path.name != "coeff.py":
            for i, line in enumerate(path.read_text().splitlines(), 1):
                assert not pattern.search(line), f"{path.name}:{i}: {line.strip()}"


def test_no_src_line_orders_transistors_by_id():
    # transistor ids name transistors; the one order on them is `top_down`
    pattern = re.compile(r"\b(sorted|min)\([^)]*\.transistors\b")
    for path in sorted(Path(picture.__file__).parent.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            assert not pattern.search(line), f"{path.name}:{i}: {line.strip()}"


def test_classify_geometry_matches_oracle(rng):
    pres_list = [builtin_presentation("thompson"), builtin_presentation("commuting_abc")]
    for pres, w in pres_list:
        triv = trivial_system(pres.alphabet)
        for _ in range(40):
            d = random_unreduced(pres, triv, w, rng.randrange(0, 4), rng)
            if rng.random() < 0.5:
                n = len(d.bot_word())
                sigma = list(range(n))
                rng.shuffle(sigma)
                d = concat(d, atom_permutation(pres, triv, d.bot_word(), tuple(sigma)))
            if len(d.transistors) <= 4:
                want = classify_geometry_oracle(d)
                assert classify_geometry(d) == want
                # the same diagram with ids that follow no firing order
                shuffled = shuffled_transistor_ids(d, random.Random(len(d.transistors)))
                assert classify_geometry(shuffled) == want


def test_reduce_preserves_planar_annular(rng):
    for geometry, allowed in [("planar", {"planar"}),
                              ("annular", {"planar", "annular_not_planar"})]:
        for _ in range(25):
            d = random_walk_diagram(Q, TRIV, "xx", rng.randrange(4), rng, geometry)
            assert classify_geometry(d) in allowed
        # unreduced material built from geometry-preserving moves stays inside
        # the geometry class after reduction (reduction removes material only)
        for _ in range(25):
            d = random_unreduced(Q, TRIV, "xx", rng.randrange(2, 5), rng,
                                 geometry=geometry)
            assert classify_geometry(d) in allowed
            assert classify_geometry(reduce(d)) in allowed


def test_nesting_planar_annular_braided(rng):
    for _ in range(30):
        d = random_unreduced(Q, TRIV, "x", rng.randrange(0, 4), rng)
        g = classify_geometry(d)
        if g == "planar":
            from oracles import annular_embeddable, planar_embeddable
            assert annular_embeddable(d) and planar_embeddable(d)


def test_factorize_trivial_and_atoms():
    lead, factors = factorize(eps(Q, TRIV, "xx"))
    assert factors == [] and lead == eps(Q, TRIV, "xx")
    lead, factors = factorize(tplus())
    assert len(factors) == 1
    u, p = factors[0]
    assert classify_kind(u) == "transistor"
    with pytest.raises(ValueError):
        factorize(concat(tplus(), invert(tplus())))


def _reassemble(lead, factors):
    d = lead
    for u, p in factors:
        d = concat(concat(d, u), p)
    return d


FACTORIZE_BUILTINS = [("thompson", [], {"x": CyclicSpec(2)}), ("higman", [3, 1], {}),
                      ("quasi_auto", [2, 1, 1], {"a": CyclicSpec(3)}),
                      ("houghton", [2, 0], {"a": CyclicSpec(2)}),
                      ("commuting_abc", [], {"a": CyclicSpec(2)})]


def _builtin_elements(rng, per_geometry):
    """Seeded reduced diagrams of the five builtins in every geometry, walks
    and (w,w)-elements in turn, half of them with shuffled transistor ids."""
    for name, params, overrides in FACTORIZE_BUILTINS:
        pres, w = builtin_presentation(name, params)
        cs = make_system(pres.alphabet, overrides)
        for geometry in GEOMETRY:
            for k in range(per_geometry):
                d = (random_walk_diagram(pres, cs, w, rng.randrange(3, 10), rng, geometry) if k % 2
                     else random_element(pres, cs, w, rng, geometry, steps=rng.randrange(3, 7)))
                yield shuffled_transistor_ids(d, rng) if k % 4 > 1 else d


def test_factorize_reassembles_exactly(rng):
    cs = make_system(Q.alphabet, {"x": CyclicSpec(2)})
    inputs = [random_walk_diagram(Q, sys, "x", rng.randrange(5), rng)
              for sys in (TRIV, cs) for _ in range(30)]
    for d in inputs + list(_builtin_elements(rng, 4)):
        lead, factors = factorize(d)
        assert classify_kind(lead) == "permutation"
        assert len(factors) == length(d)
        for u, p in factors:
            assert classify_kind(u) in ("transistor", "linear")
            assert classify_kind(p) == "permutation"
        assert canonical_key(_reassemble(lead, factors)) == canonical_key(d)


def test_factorize_prefixes_absolutely_reduced(rng):
    inputs = [random_walk_diagram(Q, TRIV, "x", rng.randrange(5), rng) for _ in range(20)]
    for d in inputs + list(_builtin_elements(rng, 4)):
        lead, factors = factorize(d)
        acc = lead
        seen = 0
        for u, p in factors:
            acc = concat(concat(acc, u), p)
            seen += 1
            assert is_reduced(acc)
            assert length(acc) == seen


def test_factorize_does_not_depend_on_transistor_ids(rng):
    def factor_keys(d):
        lead, factors = factorize(d)
        return [canonical_key(lead)] + [(canonical_key(u), canonical_key(p)) for u, p in factors]

    for d in _builtin_elements(rng, 8):
        assert factor_keys(shuffled_transistor_ids(d, rng)) == factor_keys(d)


def test_right_multiplication_length_law(rng):
    # transistor moves change the length by exactly +-1 (+1 iff the
    # concatenation stays reduced); linear moves follow the three cases of
    # the coefficient at the touched wire
    from picturecalc.coeff import nontrivial_elements
    from picturecalc.moves import BallConfig, apply_linear_move
    from picturecalc.picture import GEOMETRY, apply_transistor_move, rel_sides

    cs = make_system(Q.alphabet, {"x": CyclicSpec(3)})
    cfg = BallConfig(Q, cs, max_width=8)
    spec = cs.spec("x")
    for _ in range(25):
        d = random_walk_diagram(Q, cs, "x", rng.randrange(4), rng, max_width=8)
        n = length(d)
        labels = d.bot_word()
        for rel_index in range(len(Q.relations)):
            for direction in (1, -1):
                consumed, _ = rel_sides(Q, rel_index, direction)
                for positions in GEOMETRY["braided"].feeds(labels, consumed):
                    raw = apply_transistor_move(d, rel_index, direction, positions)
                    out = reduce(raw)
                    if is_reduced(raw):
                        assert length(out) == n + 1
                    else:
                        assert length(out) == n - 1
        for position, wid in enumerate(d.bottom_ports):
            h = d.wires[wid][1]
            for g in nontrivial_elements(spec):
                out = apply_linear_move(d, position, g)
                from picturecalc.coeff import coeff_invert
                if h.is_identity():
                    assert length(out) == n + 1
                elif g == coeff_invert(h):
                    assert length(out) == n - 1
                else:
                    assert length(out) == n


def test_geometry_transitions_under_reduce_reported(rng):
    # the paper leaves open whether reduction can strictly improve the
    # geometry class of a braided diagram; observed events are reported,
    # never asserted against
    order = {"planar": 0, "annular_not_planar": 1, "braided_only": 2}
    events = 0
    total = 0
    for _ in range(120):
        d = random_unreduced(Q, TRIV, "x", rng.randrange(2, 6), rng)
        g0, g1 = classify_geometry(d), classify_geometry(reduce(d))
        total += 1
        if order[g1] < order[g0]:
            events += 1
    print(f"\n[reduce geometry transitions] {events}/{total} observed")

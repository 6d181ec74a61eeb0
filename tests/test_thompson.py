import dataclasses
import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from picturecalc import embed
from picturecalc.coeff import trivial_system
from picturecalc.picture import (
    canonical_key,
    classify_geometry,
    eps,
    is_reduced,
    length,
    multiply,
    reduce,
)
from picturecalc.presentation import builtin_presentation
from picturecalc.sampling import random_element, random_tree_pair
from picturecalc.thompson import (
    NAdic,
    TreePair,
    _replace,
    diagram_to_tree_pair,
    evaluate_map,
    identity_pair,
    is_reduced_pair,
    leaf_addresses,
    membership,
    nadic,
    reduce_pair,
    thompson_presentation,
    tp_invert,
    tp_multiply,
    tree_pair_to_diagram,
)

from oracles import (
    evaluate_oracle,
    membership_oracle,
    reduce_pair_fold_oracle,
    reduce_pair_oracle,
    tp_multiply_refine_oracle,
    tree_pair_to_diagram_oracle,
)

Q, _ = builtin_presentation("thompson")
TRIV = trivial_system(Q.alphabet)

CARET = ((), ())
LEFT = (CARET, ())     # caret under the left leaf
RIGHT = ((), CARET)    # caret under the right leaf
FGEN = TreePair(2, (LEFT,), (RIGHT,), (0, 1, 2))


def as_fraction(q: NAdic) -> Fraction:
    return Fraction(q.numerator, q.base ** q.exponent)


def test_identity_pair_bridge_and_eval():
    tp = identity_pair(2)
    assert tree_pair_to_diagram(tp) == eps(Q, TRIV, "x")
    q = nadic(3, 3)
    assert evaluate_map(tp, q) == q


def test_pair_diagrams_share_one_configuration_per_arity():
    # so that concat's `is` checks hit when two pair diagrams are glued
    a, b = tree_pair_to_diagram(FGEN), tree_pair_to_diagram(identity_pair(2))
    assert a.pres is b.pres is thompson_presentation(2) is embed.QPRES
    assert a.coeffs is b.coeffs is embed.kill_coefficients(a).coeffs
    c = tree_pair_to_diagram(identity_pair(3))
    assert c.pres is thompson_presentation(3) and c.pres != a.pres


def test_nadic_normalization():
    assert nadic(4, 3) == NAdic(1, 1, 2)
    assert nadic(0, 5) == NAdic(0, 0, 2)
    with pytest.raises(ValueError):
        NAdic(2, 1, 2)
    with pytest.raises(ValueError):
        NAdic(5, 2, 2)


def test_fgen_evaluates_half_to_quarter():
    assert evaluate_map(FGEN, nadic(1, 1)) == nadic(1, 2)
    assert membership(FGEN) == "F"


def test_membership_and_geometry_agree():
    rot = TreePair(2, (LEFT,), (LEFT,), (1, 2, 0))
    assert membership(rot) == "T_not_F"
    assert classify_geometry(tree_pair_to_diagram(rot)) == "annular_not_planar"
    swap = TreePair(2, (LEFT,), (LEFT,), (1, 0, 2))
    assert membership(swap) == "V_not_T"
    assert classify_geometry(tree_pair_to_diagram(swap)) == "braided_only"
    assert classify_geometry(tree_pair_to_diagram(FGEN)) == "planar"


def test_membership_matches_rotation_loop_on_every_small_permutation():
    for m in range(1, 7):
        leaves = ((),) * m
        for perm in itertools.permutations(range(m)):
            assert membership(TreePair(2, leaves, leaves, perm)) == membership_oracle(perm)


def test_membership_matches_geometry_random(rng):
    for _ in range(60):
        tp = random_tree_pair(rng, 2, 3)
        tag = membership(tp)
        geo = classify_geometry(tree_pair_to_diagram(reduce_pair(tp)))
        assert {"F": "planar", "T_not_F": "annular_not_planar",
                "V_not_T": "braided_only"}[tag] == geo


def test_unreduced_pair_gives_dipole():
    # add a caret below leaf 0 of both trees of FGEN: one removable pair
    dom = ((CARET, ()), ())   # FGEN domain with leaf (0,0) grown
    img = (CARET, CARET)      # FGEN image with leaf (0,) grown
    unred = TreePair(2, (dom,), (img,), (0, 1, 2, 3))
    assert not is_reduced_pair(unred)
    d = tree_pair_to_diagram(unred)
    assert not is_reduced(d)
    assert reduce_pair(unred) == FGEN
    assert reduce(d) == tree_pair_to_diagram(FGEN)


def _comb_pair(n: int) -> TreePair:
    """A right comb n carets deep over a left comb, built from scratch."""
    left = right = CARET
    for _ in range(n - 1):
        left, right = (left, ()), ((), right)
    return TreePair(2, (right,), (left,), tuple(range(n + 1)))


def test_tree_pair_equality_and_hash_at_depth():
    a, b = _comb_pair(1200), _comb_pair(1200)
    assert a.domain is not b.domain
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert is_reduced_pair(a) and reduce_pair(a) is a
    assert a != _comb_pair(1199)
    assert a != TreePair(2, a.domain, a.image, (1, 0) + a.perm[2:])
    assert a != TreePair(2, a.image, a.domain, a.perm)
    assert FGEN == TreePair(2, (LEFT,), (RIGHT,), (0, 1, 2)) != identity_pair(2)
    assert TreePair(3, ((),), ((),), (0,)) != identity_pair(2)
    assert FGEN != (FGEN.arity, FGEN.domain, FGEN.image, FGEN.perm)


def _graft(tp: TreePair, i: int) -> TreePair:
    """tp with a caret grown under domain leaf i and under its image leaf:
    the same element with one more cancellable caret pair."""
    n, j = tp.arity, tp.perm[i]
    caret = ((),) * n
    domain = _replace(tp.domain, *leaf_addresses(tp.domain)[i], caret)
    image = _replace(tp.image, *leaf_addresses(tp.image)[j], caret)
    perm = []
    for k, v in enumerate(tp.perm):
        if k == i:
            perm.extend(range(j, j + n))
        else:
            perm.append(v + n - 1 if v > j else v)
    return TreePair(n, domain, image, tuple(perm))


def test_reduce_pair_matches_rescanning_oracle(rng):
    cancelled = 0
    for _ in range(150):
        arity = rng.choice((2, 3))
        tp = random_tree_pair(rng, arity, rng.randrange(1, 7), rng.choice((1, 2)), reduced=False)
        for _ in range(rng.randrange(6)):  # a graft on a grafted leaf makes a cascade
            tp = _graft(tp, rng.randrange(len(tp.perm)))
        out, want = reduce_pair(tp), reduce_pair_oracle(tp)
        assert out == want and (out is tp) == (want is tp)
        cancelled += out is not tp
    assert cancelled > 100


def test_reduce_pair_matches_fold_oracle_on_large_cascades():
    """Seeded pairs of arity 2-4 with 1-3 roots and 40-120 carets, too large
    for the rescanning oracle (it is cubic).  Each is grafted again and
    again on a leaf of the caret grafted last, so cancellations cascade;
    pairs left ungrafted mostly have no caret pair and come back as
    themselves."""
    rng = random.Random(23)
    kept = cancelled = 0
    for _ in range(30):
        arity = rng.choice((2, 3, 4))
        tp = random_tree_pair(rng, arity, rng.randrange(40, 121), rng.choice((1, 2, 3)),
                              reduced=False)
        i = rng.randrange(len(tp.perm))
        for _ in range(rng.choice((0, rng.randrange(1, 40)))):
            tp = _graft(tp, i)
            i += rng.randrange(arity)
        out, want = reduce_pair(tp), reduce_pair_fold_oracle(tp)
        assert out == want and (out is tp) == (want is tp)
        kept += out is tp
        cancelled += out is not tp
    assert kept >= 5 and cancelled >= 10


def test_reduce_pair_deep_comb_over_itself():
    right = CARET
    for _ in range(1199):
        right = ((), right)
    tp = TreePair(2, (right,), (right,), tuple(range(1201)))
    t0 = time.perf_counter()
    assert reduce_pair(tp) == identity_pair(2)
    assert time.perf_counter() - t0 < 0.5


def test_deep_comb_pair_diagram_roundtrip_is_linear():
    # each forest's carets are built in one pass, not hung one at a time
    tp = _comb_pair(2400)
    t0 = time.perf_counter()
    assert diagram_to_tree_pair(tree_pair_to_diagram(tp)) == tp
    assert time.perf_counter() - t0 < 0.5


def test_reduction_coherence_random(rng):
    for _ in range(40):
        tp = random_tree_pair(rng, 2, 3, reduced=False)
        assert is_reduced_pair(tp) == is_reduced(tree_pair_to_diagram(tp))


def test_tp_multiply_inverse_identity(rng):
    for arity in (2, 3):
        for _ in range(30):
            a = random_tree_pair(rng, arity, 3)
            assert tp_multiply(a, tp_invert(a)) == identity_pair(arity)


def test_tp_multiply_associative(rng):
    for _ in range(30):
        a, b, c = (random_tree_pair(rng, 2, 3) for _ in range(3))
        assert tp_multiply(tp_multiply(a, b), c) == tp_multiply(a, tp_multiply(b, c))


def test_tp_multiply_digest_is_pinned():
    """sha256 of the products of seeded pairs of arity 2-4 with 1-3 roots,
    reduced and not: any change to `tp_multiply`'s results shows here."""
    def products():
        rng = random.Random(38)
        for arity, roots, reduced in itertools.product((2, 3, 4), (1, 2, 3), (True, False)):
            for _ in range(25):
                a = random_tree_pair(rng, arity, 3, roots, reduced)
                b = random_tree_pair(rng, arity, 3, roots, reduced)
                p = tp_multiply(a, b)
                yield repr((p.arity, p.domain, p.image, p.perm))

    digest = hashlib.sha256("\n".join(products()).encode()).hexdigest()
    assert digest == "09eeb88493ba2c32e23d5c599c90bf6dd4474a07bda2c71d15d2181c613a1447"


def test_tp_multiply_matches_refinement_oracle():
    """Seeded pairs of arity 2-4 with 1-3 roots, reduced and not (these with
    a grafted caret pair): the product of the pairs' diagrams is the pair
    the refinement law builds without a diagram."""
    rng = random.Random(24)
    for arity, roots, reduced in itertools.product((2, 3, 4), (1, 2, 3), (True, False)):
        for _ in range(50):
            a, b = (random_tree_pair(rng, arity, rng.randrange(17), roots, reduced)
                    for _ in range(2))
            if not reduced:
                a = _graft(a, rng.randrange(len(a.perm)))
            assert tp_multiply(a, b) == tp_multiply_refine_oracle(a, b)


def test_tp_multiply_deep_comb_by_its_inverse():
    # the 2,400 caret pairs cancel through the seam in one pass of the
    # diagram product, with no forest rebuilt per leaf
    a, b = _comb_pair(2400), tp_invert(_comb_pair(2400))
    t0 = time.perf_counter()
    assert tp_multiply(a, b) == identity_pair(2)
    assert time.perf_counter() - t0 < 0.5


def _seeded_pairs():
    rng = random.Random(20)
    for arity, roots, reduced in itertools.product((2, 3, 4), (1, 2, 3), (True, False)):
        for carets in (0, 1, 2, 3, 4, 5) * 3:
            yield random_tree_pair(rng, arity, carets, roots, reduced)


def test_tree_pair_diagram_digest_is_pinned():
    """sha256 of the keys of the diagrams of seeded pairs of arity 2-4 with
    1-3 roots, reduced and not: the forests' carets are hung in place, and
    the keys must not change."""
    keys = [canonical_key(tree_pair_to_diagram(tp)) for tp in _seeded_pairs()]
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == "fa1f39c4a6c42d0553eb6766b0bdf8e6925a06119cd935451c551357ac27572a"


def test_forests_match_caret_atoms_glued_one_by_one():
    for tp in _seeded_pairs():
        assert canonical_key(tree_pair_to_diagram(tp)) == canonical_key(
            tree_pair_to_diagram_oracle(tp))


def test_bridge_is_homomorphism(rng):
    for arity in (2, 3):
        for _ in range(25):
            a = random_tree_pair(rng, arity, 3)
            b = random_tree_pair(rng, arity, 3)
            lhs = tree_pair_to_diagram(tp_multiply(a, b))
            rhs = multiply(tree_pair_to_diagram(a), tree_pair_to_diagram(b))
            assert canonical_key(lhs) == canonical_key(rhs)


def test_roundtrip_pair_diagram_pair(rng):
    for arity in (2, 3):
        for _ in range(40):
            tp = random_tree_pair(rng, arity, 3)
            assert diagram_to_tree_pair(tree_pair_to_diagram(tp)) == tp


def test_roundtrip_diagram_pair_diagram(rng):
    for _ in range(40):
        d = random_element(Q, TRIV, "x", rng)
        tp = diagram_to_tree_pair(d)
        assert canonical_key(tree_pair_to_diagram(tp)) == canonical_key(d)


def test_diagram_to_tree_pair_multiplicative(rng):
    P3, w3 = builtin_presentation("higman", (3, 1))
    triv3 = trivial_system(P3.alphabet)
    for pres, w in [(Q, "x"), (P3, "x")]:
        triv = trivial_system(pres.alphabet)
        for _ in range(20):
            d1 = random_element(pres, triv, w, rng)
            d2 = random_element(pres, triv, w, rng)
            lhs = diagram_to_tree_pair(multiply(d1, d2))
            rhs = tp_multiply(diagram_to_tree_pair(d1), diagram_to_tree_pair(d2))
            assert lhs == rhs


def test_diagram_to_tree_pair_errors():
    abc, _ = builtin_presentation("commuting_abc")
    with pytest.raises(ValueError):
        diagram_to_tree_pair(eps(abc, trivial_system(abc.alphabet), "abc"))


def test_evaluate_matches_interval_oracle(rng):
    for _ in range(25):
        tp = random_tree_pair(rng, 2, 4)
        for k in range(0, 256, 17):
            q = nadic(k, 8) if k else nadic(0, 0)
            got = as_fraction(evaluate_map(tp, q))
            assert got == evaluate_oracle(tp, Fraction(k, 256))


def test_evaluation_table_matches_interval_oracle_on_every_grid_point():
    """Each pair object builds its evaluation table once and reads it at
    every k/2^8 (k/3^5 for arity 3): seeded reduced pairs and unreduced
    ones with cascading grafts, each evaluated in three rounds, with
    `membership` and `reduce_pair` called between the rounds."""
    rng = random.Random(29)
    for arity, reduced in [(2, True), (2, False), (3, True), (3, False)] * 2:
        tp = random_tree_pair(rng, arity, rng.randrange(1, 6), reduced=reduced)
        for _ in range(0 if reduced else rng.randrange(1, 5)):
            tp = _graft(tp, rng.randrange(len(tp.perm)))
        assert is_reduced_pair(tp) == reduced
        digits = 8 if arity == 2 else 5
        grid = arity ** digits
        points = [nadic(k, digits, arity) if k else nadic(0, 0, arity) for k in range(grid)]
        want = [evaluate_oracle(tp, Fraction(k, grid)) for k in range(grid)]
        for _ in range(3):
            assert [as_fraction(evaluate_map(tp, q)) for q in points] == want
            assert membership(tp) == membership_oracle(reduce_pair_oracle(tp).perm)
            assert reduce_pair(tp) == reduce_pair_oracle(tp)


def test_evaluation_table_leaves_equality_hash_and_repr():
    """The kept table is no dataclass field: a pair compares, hashes and
    prints as it did before its first evaluation, and as a fresh equal pair."""
    rng = random.Random(31)
    for _ in range(20):
        tp = _graft(random_tree_pair(rng, 2, 3), 0)
        twin = TreePair(tp.arity, tp.domain, tp.image, tp.perm)
        before = (repr(tp), hash(tp), dataclasses.fields(tp))
        evaluate_map(tp, nadic(1, 2))
        assert (repr(tp), hash(tp), dataclasses.fields(tp)) == before
        assert tp == twin and hash(tp) == hash(twin) and repr(tp) == repr(twin)
        assert [f.name for f in dataclasses.fields(tp)] == ["arity", "domain", "image", "perm"]


def test_evaluate_rejects_multi_root_pairs():
    # a caret over two roots, either way up, is a groupoid element, not a
    # map of [0,1)
    for tp in (TreePair(2, (CARET,), ((), ()), (0, 1)), TreePair(2, ((), ()), (CARET,), (0, 1))):
        with pytest.raises(ValueError, match="single-rooted"):
            evaluate_map(tp, nadic(1, 1))


def test_evaluate_composition_law(rng):
    for _ in range(15):
        a = random_tree_pair(rng, 2, 3)
        b = random_tree_pair(rng, 2, 3)
        ab = tp_multiply(a, b)
        for k in range(0, 256, 13):
            q = nadic(k, 8) if k else nadic(0, 0)
            assert evaluate_map(ab, q) == evaluate_map(a, evaluate_map(b, q))


def test_evaluate_bijection_on_grid(rng):
    grid = [nadic(k, 10) if k else nadic(0, 0) for k in range(0, 1024, 7)]
    for _ in range(10):
        tp = random_tree_pair(rng, 2, 3)
        out = {evaluate_map(tp, q) for q in grid}
        assert len(out) == len(grid)  # injective on the sampled grid


def test_higman_forest_pairs(rng):
    P3, w = builtin_presentation("higman", (3, 2))
    triv = trivial_system(P3.alphabet)
    for _ in range(15):
        d = random_element(P3, triv, w, rng, steps=3)
        tp = diagram_to_tree_pair(d)
        assert tp.roots == 2 and tp.arity == 3
        assert canonical_key(tree_pair_to_diagram(tp)) == canonical_key(d)


def test_thompson_presentation_matches_builtin():
    assert thompson_presentation(2) == Q

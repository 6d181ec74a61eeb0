import random
from collections import Counter

import pytest

from picturecalc.coeff import CyclicSpec, cyclic_element, free_element, make_system
from picturecalc.coeff import trivial_system
from picturecalc.embed import (
    QPRES,
    block_constant,
    check_length_bounds,
    free_system,
    gamma,
    kill_coefficients,
    make_block,
    pi,
    project_to_thompson,
    psi,
    psi_unreduced,
    side_constant,
)
from picturecalc.moves import enumerate_reduced
from picturecalc.picture import (
    atom_permutation,
    atom_transistor,
    canonical_key,
    classify_geometry,
    concat,
    eps,
    invert,
    is_reduced,
    length,
    multiply,
    reduce,
)
from picturecalc.presentation import builtin_presentation, parse_presentation
from picturecalc.sampling import random_element
from picturecalc.thompson import identity_pair, tp_multiply

from oracles import block_oracle, factorize, gamma_oracle, psi_unreduced_factor_oracle
from oracles import pi_oracle, shuffled_transistor_ids

TRIVQ = trivial_system(QPRES.alphabet)

BUILTINS = [
    ("thompson", ()),
    ("higman", (3, 1)),
    ("houghton", (2, 0)),
    ("commuting_abc", ()),
]


def test_gamma_basics():
    assert gamma(0) == eps(QPRES, TRIVQ, "x")
    g3 = gamma(3)
    assert g3.top_word() == ("x",) and g3.bot_word() == ("x",) * 4
    assert len(g3.transistors) == 3
    assert classify_geometry(g3) == "planar"
    for n in range(11):
        assert length(gamma(n)) == n


def test_block_for_thompson_relation():
    fs = free_system(1)
    b = make_block(0, 1, 0, 1, 2, 0, fs)
    assert b.top_word() == ("x",) and b.bot_word() == ("x", "x")
    assert length(b) == 2
    assert is_reduced(b)
    # block . inverse block collapses to a single wire (coefficient cancels)
    assert multiply(b, invert(b)) == eps(QPRES, fs, "x")


def test_block_lengths_and_blocked_dipole():
    fs = free_system(2)
    for t, m in [(1, 2), (2, 1), (2, 3), (3, 3)]:
        b = make_block(1, t, 1, -1, m, 2, fs)
        assert length(b) == (t - 1) + (m - 1) + 1
        assert is_reduced(b)
        assert b.top_word() == ("x",) * (1 + t + 2)
        assert b.bot_word() == ("x",) * (1 + m + 2)


def test_gamma_and_block_match_concatenated_atoms():
    fs = free_system(3)
    for n in range(6):
        assert canonical_key(gamma(n)) == canonical_key(gamma_oracle(n, TRIVQ))
        assert canonical_key(gamma(n, fs)) == canonical_key(gamma_oracle(n, fs))
    for args in [(0, 1, 0, 1, 1, 0), (0, 1, 2, -1, 3, 0), (2, 3, 1, 1, 1, 0),
                 (1, 2, 0, -1, 4, 3), (0, 4, 2, 1, 2, 1)]:
        assert canonical_key(make_block(*args, fs)) == canonical_key(block_oracle(*args, fs))


def _assert_psi_matches_factor_oracle(d):
    raw = psi_unreduced_factor_oracle(d)
    out = psi_unreduced(d)
    assert canonical_key(out) == canonical_key(raw)
    assert out.annular == raw.annular == d.annular
    img = psi(d)
    assert canonical_key(img) == canonical_key(reduce(raw)) and img.annular == d.annular
    assert pi(d) == project_to_thompson(reduce(raw))
    assert pi(d) == pi_oracle(d)


def test_psi_matches_factor_oracle_on_builtins(rng):
    shuffle = random.Random(5)  # apart from rng, which draws the elements
    for name, params in BUILTINS + [("higman", (2, 2)), ("quasi_auto", (2, 1, 1))]:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        for geometry in ("planar", "annular", "braided"):
            for _ in range(6):
                a = random_element(pres, triv, w, rng, geometry, steps=3, max_width=8)
                b = random_element(pres, triv, w, rng, geometry, steps=3, max_width=8)
                for d in (a, multiply(a, b)):
                    _assert_psi_matches_factor_oracle(d)
                    _assert_psi_matches_factor_oracle(shuffled_transistor_ids(d, shuffle))


def test_psi_matches_factor_oracle_with_one_letter_sides(rng):
    # a one-letter side puts the block's labelled wire on the source wire
    # itself, and a one-letter = one-letter transistor chains the labels of
    # the blocks above and below onto one wire
    seen = set()
    for text, w in [("<a,b | a=b, b=a.a>", "a"), ("<a,b,c | a=b, b=c, c=a.a>", "a.b"),
                    ("<a,b | a=b>", "a.b.a")]:
        pres = parse_presentation(text)
        triv = trivial_system(pres.alphabet)
        w = tuple(w.split("."))
        for geometry in ("planar", "annular", "braided"):
            for _ in range(12):
                d = random_element(pres, triv, w, rng, geometry, steps=4, max_width=8)
                _assert_psi_matches_factor_oracle(d)
                seen.update(s for r, s in reduce(d).transistors.values()
                            if len(pres.relations[r][0]) == len(pres.relations[r][1]) == 1)
    assert seen == {1, -1}


def test_psi_of_permutation_is_relabelled_permutation():
    abc, w = builtin_presentation("commuting_abc")
    triv = trivial_system(abc.alphabet)
    p = atom_permutation(abc, triv, w, (2, 0, 1))
    img = psi(p)
    assert len(img.transistors) == 0
    assert img.top_word() == ("x",) * 3
    assert [img.wire_bot[w_][1] for w_ in img.top_ports] == [2, 0, 1]


def test_psi_of_tplus_is_block():
    t = atom_transistor(QPRES, TRIVQ, (), 0, 1, ())
    img = psi(t)
    fs = free_system(1)
    assert canonical_key(img) == canonical_key(make_block(0, 1, 0, 1, 2, 0, fs))
    assert length(img) == 2


def test_psi_rejects_nontrivial_coefficients():
    fs = free_system(1)
    g = free_element(fs.spec("x"), [("R1", 1)])
    with pytest.raises(ValueError):
        psi(eps(QPRES, fs, [("x", g)]))


def test_pi_rejects_nontrivial_coefficients_as_its_oracle_does():
    pres, w = builtin_presentation("higman", (3, 1))
    coeffs = make_system(pres.alphabet, {"x": CyclicSpec(2)})
    d = eps(pres, coeffs, [("x", cyclic_element(coeffs.spec("x"), 1))] + [("x", None)] * 2)
    messages = []
    for f in (pi, pi_oracle):
        with pytest.raises(ValueError) as err:
            f(d)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == \
        "the embedding applies to diagrams with trivial coefficients"


def test_psi_blocks_survive_reduction(rng):
    # The raw block substitution can contain ladder dipoles when one source
    # transistor's outputs partially feed another in order (see the stored
    # counterexample below).  What always holds for reduced sources is that
    # the reduced image keeps exactly one labelled wire per source
    # transistor, each still a single signed generator: the blocks survive,
    # only their ladders shrink.
    for name, params in BUILTINS + [("quasi_auto", (2, 1, 1))]:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        for _ in range(12):
            d = random_element(pres, triv, w, rng, steps=4, max_width=9)
            img = psi(d)
            labelled = [c for _, c in img.wires.values() if not c.is_identity()]
            assert len(labelled) == len(reduce(d).transistors)
            assert all(len(c.payload) == 1 for c in labelled)


def test_psi_raw_image_can_need_reduction():
    import json
    from pathlib import Path

    from picturecalc.io import diagram_from_json

    obj = json.loads((Path(__file__).parent / "data" / "psi_ladder_dipole.json").read_text())
    d = diagram_from_json(obj)
    assert is_reduced(d)
    raw = psi_unreduced(d)
    assert not is_reduced(raw)  # two ladder steps of adjacent blocks unzip
    img = psi(d)
    assert is_reduced(img)
    labelled = [c for _, c in img.wires.values() if not c.is_identity()]
    assert len(labelled) == len(d.transistors) == 6


def test_psi_homomorphism(rng):
    for name, params in BUILTINS:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        for _ in range(10):
            a = random_element(pres, triv, w, rng, steps=3)
            b = random_element(pres, triv, w, rng, steps=3)
            assert canonical_key(psi(multiply(a, b))) == canonical_key(multiply(psi(a), psi(b)))


def test_psi_respects_inverse_and_geometry(rng):
    pres, w = builtin_presentation("thompson")
    triv = trivial_system(pres.alphabet)
    for geometry in ("planar", "annular", "braided"):
        for _ in range(8):
            d = random_element(pres, triv, w, rng, geometry=geometry)
            img = psi(d)
            assert canonical_key(psi(invert(d))) == canonical_key(invert(img))
            gsrc, gimg = classify_geometry(d), classify_geometry(img)
            order = {"planar": 0, "annular_not_planar": 1, "braided_only": 2}
            assert order[gimg] <= order[gsrc]


def test_psi_injective_on_small_enumerations():
    for name, params in BUILTINS:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        elems = enumerate_reduced(pres, triv, w, 2, "braided", max_width=8)
        keys = {canonical_key(psi(d)) for d in elems}
        assert len(keys) == len(elems)


def test_project_psi_eps_is_identity_pair():
    pres, w = builtin_presentation("higman", (3, 1))
    triv = trivial_system(pres.alphabet)
    tp, tag = pi(eps(pres, triv, w))
    assert tp == identity_pair(2, 1)
    assert tag == "F"


def test_kill_coefficients_unblocks():
    fs = free_system(1)
    b = make_block(0, 1, 0, 1, 2, 0, fs)
    # b . b^-1 is reduced (blocked by R1 R1^-1 = ... no: it cancels) but the
    # two-ladder sandwich with distinct labels stays; after killing, it collapses
    g = free_element(fs.spec("x"), [("R1", 1)])
    sandwich = concat(b, concat(eps(QPRES, fs, [("x", g), ("x", None)]), invert(b)))
    red = reduce(sandwich)
    assert len(red.transistors) > 0
    plain = reduce(kill_coefficients(red))
    assert plain == eps(QPRES, trivial_system(QPRES.alphabet), "x")


def test_pi_homomorphism(rng):
    pres, w = builtin_presentation("higman", (3, 1))
    triv = trivial_system(pres.alphabet)
    for _ in range(12):
        a = random_element(pres, triv, w, rng, steps=3)
        b = random_element(pres, triv, w, rng, steps=3)
        tp_ab, _ = pi(multiply(a, b))
        assert tp_ab == tp_multiply(pi(a)[0], pi(b)[0])


def test_pi_homomorphism_on_every_builtin_and_geometry(rng):
    for name, params in BUILTINS + [("higman", (2, 2)), ("quasi_auto", (2, 1, 1)),
                                    ("houghton", (3, 1))]:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        for geometry in ("planar", "annular", "braided"):
            for _ in range(4):
                a = random_element(pres, triv, w, rng, geometry, steps=3, max_width=8)
                b = random_element(pres, triv, w, rng, geometry, steps=3, max_width=8)
                tp_ab, _ = pi(multiply(a, b))
                assert tp_ab == tp_multiply(pi(a)[0], pi(b)[0])


def test_pi_injective_on_higman3_enumeration():
    pres, w = builtin_presentation("higman", (3, 1))
    triv = trivial_system(pres.alphabet)
    elems = enumerate_reduced(pres, triv, w, 2, "braided", max_width=8)
    pairs = [pi(d)[0] for d in elems]
    assert len({repr(p) for p in pairs}) == len(elems)


@pytest.mark.parametrize("name, params, count", [
    ("quasi_auto", (2, 1, 1), 140),
    ("houghton", (3, 1), 16),
])
def test_pi_injective_at_budget_4(name, params, count):
    pres, w = builtin_presentation(name, params)
    elems = enumerate_reduced(pres, trivial_system(pres.alphabet), w, 4, "braided",
                              max_width=10)
    assert len(elems) == count
    assert len({pi(d)[0] for d in elems}) == count


def _fibres(elems):
    """pi's fibres over `elems` by image pair, and the membership tag counts."""
    fibres, tags = {}, Counter()
    for d in elems:
        tp, tag = pi(d)
        fibres.setdefault(tp, []).append(d)
        tags[tag] += 1
    return fibres, tags


def test_pi_fibres_on_commuting_abc_braided():
    # R, the kernel of D -> S, meets commuting_abc: 277 of its 937 braided
    # elements of length at most 4 map to the identity
    pres, w = builtin_presentation("commuting_abc")
    elems = enumerate_reduced(pres, trivial_system(pres.alphabet), w, 4, "braided",
                              max_width=10)
    fibres, tags = _fibres(elems)
    assert len(elems) == 937
    assert sorted(map(len, fibres.values()), reverse=True) == [277, 252, 252, 52, 52, 52]
    assert tags == {"F": 277, "T_not_F": 504, "V_not_T": 156}
    kernel = fibres[identity_pair(2, len(w))]
    assert Counter(length(d) for d in kernel) == {0: 1, 2: 6, 4: 270}


def test_pi_fibres_on_commuting_abc_annular():
    pres, w = builtin_presentation("commuting_abc")
    elems = enumerate_reduced(pres, trivial_system(pres.alphabet), w, 4, "annular",
                              max_width=10)
    fibres, tags = _fibres(elems)
    assert len(elems) == 31 and len(fibres) == 3
    assert len(fibres[identity_pair(2, len(w))]) == 13
    assert set(tags) <= {"F", "T_not_F"}


def test_pi_lands_in_f_and_t(rng):
    pres, w = builtin_presentation("thompson")
    triv = trivial_system(pres.alphabet)
    for _ in range(8):
        d = random_element(pres, triv, w, rng, geometry="planar")
        assert pi(d)[1] == "F"
    seen = set()
    for _ in range(12):
        d = random_element(pres, triv, w, rng, geometry="annular")
        tag = pi(d)[1]
        assert tag in ("F", "T_not_F")
        seen.add(tag)


def test_length_bounds_eps_and_tplus():
    pres, w = builtin_presentation("thompson")
    triv = trivial_system(pres.alphabet)
    r = check_length_bounds(eps(pres, triv, w))
    assert (r.source_length, r.image_length, r.lower_ok, r.upper_ok) == (0, 0, True, True)
    r = check_length_bounds(atom_transistor(pres, triv, (), 0, 1, ()))
    assert (r.source_length, r.image_length) == (1, 2)
    assert r.lower_ok and r.upper_ok and r.upper_constant_used == 2
    assert r.paper_constant == 3 and r.paper_constant_ok


def test_constants():
    pres, _ = builtin_presentation("houghton", (3, 0))
    assert block_constant(pres) == 3   # r = x1x2x3
    assert side_constant(pres) == 3
    pres2, _ = builtin_presentation("commuting_abc")
    assert block_constant(pres2) == 3  # 2+2-1
    assert side_constant(pres2) == 2


def test_length_bounds_random(rng):
    for name, params in BUILTINS:
        pres, w = builtin_presentation(name, params)
        triv = trivial_system(pres.alphabet)
        for _ in range(10):
            d = random_element(pres, triv, w, rng, steps=3)
            r = check_length_bounds(d)
            assert r.lower_ok and r.upper_ok


def test_gamma3_factorizes_into_three_transistor_atoms():
    from picturecalc.picture import classify_kind

    lead, factors = factorize(gamma(3))
    assert len(factors) == 3
    assert all(classify_kind(u) == "transistor" for u, _ in factors)
    assert length(lead) == 0

"""Independent brute-force oracles backing the derived test values.

Everything here recomputes results by definition-level search (all
reduction orders, all firing orders, full move closures, interval
arithmetic over Fractions), deliberately avoiding the package's optimized
code paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from picturecalc.coeff import GraphProductWord, coeff_multiply, coeff_serialize
from picturecalc.picture import (
    Diagram, canonical_key, invert, length, multiply, reduce as reduce_diagram,
)


# -- all reduction orders -------------------------------------------------------

def _dipoles_of(d: Diagram):
    out = []
    for t1 in d.transistors:
        conn = d.t_top[t1]
        site = d.wire_top[conn[0]]
        if site[0] != "TB" or site[2] != 0:
            continue
        t2 = site[1]
        if d.t_bot[t2] != conn:
            continue
        if any(not d.wires[w][1].is_identity() for w in conn):
            continue
        if tuple(d.wires[w][0] for w in d.t_top[t2]) != tuple(d.wires[w][0] for w in d.t_bot[t1]):
            continue
        out.append((t1, t2))
    return out


def _reduce_one(d: Diagram, pair) -> Diagram:
    """Reduce exactly the dipole `pair` of d (by id), definition-level."""
    t1, t2 = pair
    wires = dict(d.wires)
    transistors = dict(d.transistors)
    t_top = dict(d.t_top)
    t_bot = dict(d.t_bot)
    bottom = list(d.bottom_ports)
    wire_bot = dict(d.wire_bot)
    for w in t_top[t1]:
        del wires[w]
    for a, b in zip(t_top[t2], t_bot[t1]):
        la, ca = wires[a]
        _, cb = wires[b]
        wires[a] = (la, coeff_multiply(ca, cb))
        site = wire_bot[b]
        if site[0] == "FB":
            bottom[site[1]] = a
        else:
            _, tid, idx = site
            tup = list(t_top[tid])
            tup[idx] = a
            t_top[tid] = tuple(tup)
        del wires[b]
    for t in (t1, t2):
        del transistors[t], t_top[t], t_bot[t]
    return Diagram(d.pres, d.coeffs, wires, transistors, t_top, t_bot,
                   d.top_ports, tuple(bottom), d.annular)


def reduce_all_orders(d: Diagram) -> set[str]:
    """Exact keys of the results of every maximal reduction sequence."""
    dips = _dipoles_of(d)
    if not dips:
        return {canonical_key(d)}
    out = set()
    for pair in dips:
        out |= reduce_all_orders(_reduce_one(d, pair))
    return out


def count_dipoles(d: Diagram) -> int:
    return len(_dipoles_of(d))


# -- distance by the product formula ---------------------------------------------

def pair_distance_oracle(a, b) -> int:
    """d([A],[B]) = length(A^-1 . B), with the product built and reduced."""
    return length(multiply(invert(a.rep), b.rep))


# -- backtracking embeddability (planar / annular) ------------------------------

def planar_embeddable(d: Diagram) -> bool:
    """Try every firing order (not just the greedy one)."""

    def go(cut: tuple, unfired: frozenset) -> bool:
        if not unfired:
            return cut == d.bottom_ports
        pos = {w: i for i, w in enumerate(cut)}
        for tid in unfired:
            tt = d.t_top[tid]
            i0 = pos.get(tt[0])
            if i0 is None:
                continue
            if all(pos.get(w) == i0 + j for j, w in enumerate(tt)):
                new = cut[:i0] + d.t_bot[tid] + cut[i0 + len(tt):]
                if go(new, unfired - {tid}):
                    return True
        return False

    return go(d.top_ports, frozenset(d.transistors))


def annular_embeddable(d: Diagram) -> bool:
    def go(cut: tuple, unfired: frozenset) -> bool:
        n = len(cut)
        if not unfired:
            target = d.bottom_ports
            return any(cut[k:] + cut[:k] == target for k in range(n))
        pos = {w: i for i, w in enumerate(cut)}
        for tid in unfired:
            tt = d.t_top[tid]
            if len(tt) > n:
                continue
            i0 = pos.get(tt[0])
            if i0 is None:
                continue
            if all(pos.get(w) == (i0 + j) % n for j, w in enumerate(tt)):
                rotated = cut[i0:] + cut[:i0]
                new = d.t_bot[tid] + rotated[len(tt):]
                if go(new, unfired - {tid}):
                    return True
        return False

    return go(d.top_ports, frozenset(d.transistors))


def classify_geometry_oracle(d: Diagram) -> str:
    if planar_embeddable(d):
        return "planar"
    if annular_embeddable(d):
        return "annular_not_planar"
    return "braided_only"


# -- free group naive reduction --------------------------------------------------

def naive_free_reduce(word):
    """Concatenate-then-scan until no adjacent cancelling pair remains."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            g, s = word[i]
            h, t = word[i + 1]
            if g == h and s == -t:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


# -- graph product move closure ---------------------------------------------------

def gp_move_closure(w: GraphProductWord) -> set[tuple]:
    """Closure of the syllable sequence under cancellation, amalgamation and
    shuffling; words as tuples of (vertex, serialized element)."""
    graph = w.graph

    def freeze(sylls):
        return tuple((v, coeff_serialize(g)) for v, g in sylls)

    seen = {}
    start = tuple(w.syllables)
    frontier = [start]
    seen[freeze(start)] = start
    while frontier:
        cur = frontier.pop()
        n = len(cur)
        nexts = []
        for i in range(n):
            if cur[i][1].is_identity():
                nexts.append(cur[:i] + cur[i + 1:])
        for i in range(n - 1):
            (u, g), (v, h) = cur[i], cur[i + 1]
            if u == v:
                nexts.append(cur[:i] + ((u, coeff_multiply(g, h)),) + cur[i + 2:])
            elif graph.adjacent(u, v):
                nexts.append(cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:])
        for nxt in nexts:
            k = freeze(nxt)
            if k not in seen:
                seen[k] = nxt
                frontier.append(nxt)
    return set(seen)


def gp_reduced_forms(w: GraphProductWord) -> set[tuple]:
    closure = gp_move_closure(w)
    m = min(len(x) for x in closure)
    return {x for x in closure if len(x) == m}


def gp_equal_oracle(w1: GraphProductWord, w2: GraphProductWord) -> bool:
    return bool(gp_reduced_forms(w1) & gp_reduced_forms(w2))


def gp_heads_oracle(w: GraphProductWord) -> set:
    """First syllables over all minimal-length members of the move closure."""
    forms = gp_reduced_forms(w)
    return {f[0] for f in forms if f}


# -- tree pair evaluation via interval arithmetic --------------------------------

def leaf_intervals(forest, arity, lo=Fraction(0), hi=Fraction(1)):
    """Left-to-right [a,b) leaf intervals of an n-ary forest on [lo,hi)."""
    roots = len(forest)
    out = []
    width = (hi - lo) / roots
    for i, tree in enumerate(forest):
        out.extend(_tree_intervals(tree, arity, lo + i * width, lo + (i + 1) * width))
    return out


def _tree_intervals(tree, arity, lo, hi):
    if tree == ():
        return [(lo, hi)]
    out = []
    width = (hi - lo) / arity
    for i, child in enumerate(tree):
        out.extend(_tree_intervals(child, arity, lo + i * width, lo + (i + 1) * width))
    return out


def evaluate_oracle(pair, q: Fraction) -> Fraction:
    """Map q through the pair by direct interval arithmetic: image leaf
    pi(i) is sent affinely onto domain leaf i."""
    dom = leaf_intervals(pair.domain, pair.arity)
    img = leaf_intervals(pair.image, pair.arity)
    for i, j in enumerate(pair.perm):
        a, b = img[j]
        if a <= q < b:
            c, d = dom[i]
            return c + (q - a) * (d - c) / (b - a)
    raise ValueError(f"{q} not in [0,1)")


# -- verbatim neighbor enumeration ------------------------------------------------

def _all_perms_for_geometry(n, geometry):
    if geometry == "planar":
        yield tuple(range(n))
    elif geometry == "annular":
        for k in range(n):
            yield tuple((i + k) % n for i in range(n))
    else:
        yield from itertools.permutations(range(n))


def neighbor_keys_oracle(rep, cfg):
    """Definition-level neighbors of [rep]: all geometry permutation diagrams P,
    all unitary atoms U, keys of reduce(rep o P o U)."""
    from picturecalc.coeff import TrivialSpec, nontrivial_elements
    from picturecalc.moves import geometry_class_key
    from picturecalc.picture import (
        atom_linear, atom_permutation, atom_transistor, concat, rel_sides,
    )

    out = set()
    pres, coeffs, geometry = cfg.pres, cfg.coeffs, cfg.geometry
    botword = rep.bot_word()
    n = len(botword)
    me = geometry_class_key(rep, geometry)
    for sigma in _all_perms_for_geometry(n, geometry):
        p = atom_permutation(pres, coeffs, botword, sigma, annular=rep.annular)
        base = concat(rep, p)
        word = base.bot_word()
        for rel_index in range(len(pres.relations)):
            for direction in (1, -1):
                consumed, produced = rel_sides(pres, rel_index, direction)
                if n - len(consumed) + len(produced) > cfg.max_width:
                    continue
                k = len(consumed)
                for i0 in range(n - k + 1):
                    if word[i0:i0 + k] != consumed:
                        continue
                    atom = atom_transistor(pres, coeffs, word[:i0], rel_index,
                                           direction, word[i0 + k:], annular=rep.annular)
                    key = geometry_class_key(reduce_diagram(concat(base, atom)), geometry)
                    if key != me:
                        out.add(key)
        for i0, letter in enumerate(word):
            spec = coeffs.spec(letter)
            if isinstance(spec, TrivialSpec):
                continue
            for g in nontrivial_elements(spec):
                atom = atom_linear(pres, coeffs, word, i0, g, annular=rep.annular)
                key = geometry_class_key(reduce_diagram(concat(base, atom)), geometry)
                if key != me:
                    out.add(key)
    return out

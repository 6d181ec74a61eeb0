"""Seeded random diagrams, group elements and tree pairs for the property
suites.  A walk of unitary moves is drawn on bottom words alone, one
`moves.word_moves` table a step, and its diagram is built by replaying the
drawn witnesses with `apply_move` only when the walk is kept."""

from __future__ import annotations

import random

from .coeff import CoefficientSystem
from .moves import BallConfig, apply_linear_move, apply_move, word_moves
from .picture import (GEOMETRY, Diagram, apply_transistor_move, atom_permutation, concat, eps,
                      invert, multiply, reduce)
from .thompson import TreePair, _replace, forest_leaves, leaf_addresses, reduce_pair


def _walk(labels, steps: int, rng: random.Random, cfg: BallConfig):
    """(witnesses, final word) of a walk of up to `steps` moves from the
    bottom word `labels`, stopped early at a word with no move."""
    path = []
    for _ in range(steps):
        opts = word_moves(labels, cfg)
        if not opts:
            break
        kind, witness, labels = opts[rng.randrange(len(opts))]
        path.append((kind, witness))
    return path, labels


def _replay(d: Diagram, path, geometry: str) -> Diagram:
    for kind, witness in path:
        d = apply_move(d, kind, witness, geometry)
    return d


def random_walk_diagram(pres, coeffs: CoefficientSystem, w, steps: int,
                        rng: random.Random, geometry: str = "braided",
                        max_width: int = 12) -> Diagram:
    """Reduced (w,*)-diagram obtained by a random unitary-move walk."""
    cfg = BallConfig(pres, coeffs, geometry, max_width)
    base = eps(pres, coeffs, tuple(w), annular=GEOMETRY[geometry].annular)
    return _replay(base, _walk(base.bot_word(), steps, rng, cfg)[0], geometry)


def random_element(pres, coeffs: CoefficientSystem, w, rng: random.Random,
                   geometry: str = "braided", steps: int = 4, attempts: int = 60,
                   max_width: int = 12) -> Diagram:
    """Random reduced (w,w)-diagram of the geometry: two independent walks
    glued back to back, their boundaries aligned by a geometry permutation.
    The second walk is redrawn until its bottom word matches the first's,
    and only the matching one is built."""
    cfg = BallConfig(pres, coeffs, geometry, max_width)
    geo = GEOMETRY[geometry]
    base = eps(pres, coeffs, tuple(w), annular=geo.annular)
    start = base.bot_word()
    path, u = _walk(start, steps, rng, cfg)
    a = _replay(base, path, geometry)
    for _ in range(attempts):
        path, v = _walk(start, rng.randrange(steps + 2), rng, cfg)
        sigma = geo.match(u, v)
        if sigma is not None:
            align = atom_permutation(pres, coeffs, u, sigma, annular=a.annular)
            return reduce(concat(concat(a, align), invert(_replay(base, path, geometry))))
    # fallback: conjugate a label-preserving boundary permutation
    sigma = geo.symmetry(u)
    if sigma is not None:
        mid = atom_permutation(pres, coeffs, u, sigma, annular=a.annular)
        return reduce(concat(concat(a, mid), invert(a)))
    return multiply(a, invert(a))


def random_unreduced(pres, coeffs: CoefficientSystem, w, transistor_budget: int,
                     rng: random.Random, max_width: int = 12,
                     geometry: str = "braided") -> Diagram:
    """Diagram built by raw concatenation (dipoles kept) with about
    `transistor_budget` transistors; food for the confluence tests."""
    cfg = BallConfig(pres, coeffs, geometry, max_width)
    d = eps(pres, coeffs, tuple(w), annular=GEOMETRY[geometry].annular)
    labels, placed = d.bot_word(), 0
    while placed < transistor_budget:
        opts = word_moves(labels, cfg)
        if not opts:
            break
        kind, witness, labels = opts[rng.randrange(len(opts))]
        if kind == "transistor":
            d = apply_transistor_move(d, *witness, cfg.geometry)
            placed += 1
        else:
            d = apply_linear_move(d, *witness)
    return d


def random_tree_pair(rng: random.Random, arity: int = 2, carets: int = 3,
                     roots: int = 1, reduced: bool = True):
    """Random (reduced) tree pair with `carets` carets per side."""
    domain = tuple(_random_forest_with_carets(rng, arity, 1, rng.randrange(carets + 1))[0]
                   for _ in range(roots))
    n_leaves = forest_leaves(domain)
    image = _random_forest_with_carets(rng, arity, roots, (n_leaves - roots) // (arity - 1))
    perm = list(range(n_leaves))
    rng.shuffle(perm)
    tp = TreePair(arity, domain, image, tuple(perm))
    return reduce_pair(tp) if reduced else tp


def _random_forest_with_carets(rng, arity, roots, carets):
    """Grow a forest by replacing `carets` random leaves with nodes."""
    forest = ((),) * roots
    for _ in range(carets):
        leaves = leaf_addresses(forest)
        root, addr = leaves[rng.randrange(len(leaves))]
        forest = _replace(forest, root, addr, ((),) * arity)
    return forest

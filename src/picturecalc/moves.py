"""Unitary moves on diagram classes, shared by the ball explorer, the
enumerator, and random sampling.

A neighbor of a class [D] in X is [D . P . U] for a permutation diagram P
of the geometry (all bijections / rotations / identity) and a unitary
atom U.  For transistor atoms the neighbor class only depends on which
bottom wires feed the transistor and in which order, so moves are
enumerated as the geometry's `feeds` (`picture.GEOMETRY`): ordered tuples
(braided), cyclic blocks (annular), blocks (planar).  Linear moves
right-multiply one bottom wire's coefficient.  The same `feeds` with the
whole baseword as the consumed word yields `enumerate_reduced`'s
placements: the bottom-port orders of a class that spell the baseword,
all bijections, rotations or only the identity.

`word_moves` lists the moves on a bottom word as witnesses, each with the
word it leaves, in one table per word and configuration that the sampler
walks on; `unitary_moves` adds each result's length and effect for the
explorer, and `apply_move` builds one of them from its parent's dicts and
endpoint maps, cancelling the one dipole `unitary_moves` predicts, if any.  Lengths
are Lipschitz along moves: d([A],[B]) = length(A^-1 . B), one unitary move
changes the length of the reduced representative by at most one, and a
permutation diagram changes it not at all.  So a vertex at depth k of the
ball around [R] has length at most length(R) + k, and `bfs_classes` takes
no move to a neighbour longer than length(R) + radius: it could not be in
the ball, nor be the end of one of its edges.

`bfs_classes` tells neighbours apart without building them: two vertices
of a ball are equal iff their cone ids K and coefficient pairs C over one
intern table (`hyperplane_names`) are, by `qmgraph`'s distance formula, as
|v| = |K| + |W| and |C| = |W|.  A move that cancels nothing adds the cone
of its fed wires, a cancelling one removes the cone above its feed (the
connecting wires carry the identity; the upper wires keep their names),
and a linear move swaps one coefficient pair: so a neighbour's signature
(K, C) is read off its parent's names, and only a new one is built.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache

from .coeff import (
    CoefficientSystem,
    GroupElement,
    coeff_multiply,
    nontrivial_elements,
)
from .errors import EnumerationError
from .picture import (
    GEOMETRY,
    Diagram,
    _assemble,
    _cancel,
    _dipole_above,
    apply_transistor_move,
    bottom_variant_keys,
    canonical_key,
    eps,
    length,
    reduce,
    rel_sides,
    replace,
    top_down,
    with_bottom_ports,
)

GEOMETRIES = tuple(GEOMETRY)
MAX_CYCLIC_ORDER = 1000  # the pin of a cyclic letter of order k is a clique of C(k, 2) edges


@dataclass(frozen=True)
class BallConfig:
    pres: object
    coeffs: CoefficientSystem
    geometry: str = "braided"
    max_width: int = 12

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        if self.max_width < 1:
            raise ValueError("max_width must be >= 1")
        # `word_moves` hashes its config on every lookup: hash the fields once
        object.__setattr__(self, "_hash", hash((self.pres, self.coeffs, self.geometry,
                                                self.max_width)))

    def __hash__(self):
        return self._hash


def check_finite_coeffs(coeffs: CoefficientSystem) -> None:
    """Balls and enumeration take every letter's group whole: finite, and small."""
    for _, spec in coeffs.assignments:
        if spec.order is None:
            raise EnumerationError("free coefficient groups give infinite pins/balls")
        if spec.order > MAX_CYCLIC_ORDER:
            raise EnumerationError(f"cyclic order above {MAX_CYCLIC_ORDER} in a ball or enumeration")


# -- geometry-aware class keys ----------------------------------------------------

def geometry_class_key(d: Diagram, geometry: str) -> str:
    """Key of the vertex class of d (d up to all permutation diagrams
    (braided), rotations (annular), or nothing (planar)): the exact key of
    its representative."""
    return canonical_key(GEOMETRY[geometry].class_rep(d))


# -- hyperplane names --------------------------------------------------------------

class Interned(dict):
    """`table[x]` is the id of x, new keys numbered in turn; `named[i]` the key."""

    def __init__(self):
        super().__init__()
        self.named = []

    def __missing__(self, key):
        self.named.append(key)
        self[key] = n = len(self)
        return n


def hyperplane_names(d: Diagram, table: Interned) -> tuple[dict[int, int], dict[int, int]]:
    """(wire -> id, transistor -> cone id) of d in `top_down` order: wire
    ("F", i) at frame-top port i, cone (id, payload, ..., bottom word) over
    its top wires, wire (c, s) at slot s below cone c, coefficient pair
    ("C", id, payload); a label fixes the group, so a payload names it."""
    wires, t_bot, cones = d.wires, d.t_bot, {}
    names = {w: table["F", i] for i, w in enumerate(d.top_ports)}
    for t in top_down(d):
        tops = [x for w in d.t_top[t] for x in (names[w], wires[w][1].payload)]
        cones[t] = cone = table[(*tops, tuple([wires[w][0] for w in t_bot[t]]))]
        for slot, w in enumerate(t_bot[t]):
            names[w] = table[cone, slot]
    return names, cones


# -- move enumeration --------------------------------------------------------------

def apply_linear_move(d: Diagram, position: int, g: GroupElement) -> Diagram:
    """Right-multiply the coefficient of the bottom wire at `position` by g."""
    w = d.bottom_ports[position]
    label, c = d.wires[w]
    wires = d.wires.copy()
    wires[w] = (label, coeff_multiply(c, g))
    return _assemble(d, wires, d.transistors, d.t_top, d.t_bot, d.bottom_ports,
                     d.wire_top, d.wire_bot, d._reduced, d._trav)


@lru_cache(maxsize=256)
def word_moves(labels, cfg: BallConfig) -> tuple:
    """The unitary moves on the bottom word `labels`, as a tuple of (kind,
    witness, next_labels): witness is (rel_index, direction, positions) or
    (position, delta), and next_labels the bottom word of the result,
    reduced or not.  Moves depend on letters only, so tables are memoised;
    errors, as on a free-coefficient letter, are not."""
    geo = GEOMETRY[cfg.geometry]
    width, out = len(labels), []
    for rel_index in range(len(cfg.pres.relations)):
        for direction in (1, -1):
            consumed, produced = rel_sides(cfg.pres, rel_index, direction)
            if width - len(consumed) + len(produced) > cfg.max_width:
                continue
            for positions in geo.feeds(labels, consumed):
                out.append(("transistor", (rel_index, direction, positions),
                            geo.after(labels, positions, produced)))
    for position, letter in enumerate(labels):
        spec = cfg.coeffs.spec(letter)
        if spec.order is None:
            raise EnumerationError("free coefficient group in ball configuration")
        out.extend(("linear", (position, g), labels) for g in nontrivial_elements(spec))
    return tuple(out)


def unitary_moves(rep: Diagram, cfg: BallConfig, before: int):
    """All unitary moves from a reduced class representative of length
    `before`, without building any diagram: `word_moves` of its bottom
    word, each as (kind, witness, length_after, effect).  A transistor move
    adds one to the length, or takes one off when it forms a dipole with
    the transistor above its feed, its effect, else None (at most one can:
    cancelling that pair leaves the other's top wires on the frame bottom,
    where they meet no transistor).  A linear move's effect is the
    coefficient it leaves on a wire that feeds no transistor, so no dipole
    appears or goes.  The witness list itself does not need rep to be
    reduced."""
    pres, wires, bottom, wire_top = rep.pres, rep.wires, rep.bottom_ports, rep.wire_top
    for kind, witness, _ in word_moves(rep.bot_word(), cfg):
        if kind == "transistor":
            site = wire_top[bottom[witness[2][0]]]  # `_dipole_above`'s first test, hoisted
            above = _dipole_above(pres, wires, rep.transistors, rep.t_bot, wire_top,
                                  tuple([bottom[p] for p in witness[2]]), witness[:2]
                                  ) if site[0] == "TB" and not site[2] else None
            yield kind, witness, before + 1 if above is None else before - 1, above
        else:
            c = wires[bottom[witness[0]]][1]
            new = coeff_multiply(c, witness[1])
            yield kind, witness, before + (not new.is_identity()) - (not c.is_identity()), new


def apply_move(rep: Diagram, kind: str, witness, geometry: str) -> Diagram:
    """The reduced result of the move (kind, witness) of `unitary_moves`,
    its dipoles cancelled in the move's fresh dicts.  A reduced rep's
    transistor move can only form a dipole with the transistor above its
    feed, so the new transistor is then the only seed."""
    if kind == "linear":
        return apply_linear_move(rep, *witness)
    out = apply_transistor_move(rep, *witness, geometry)
    _cancel(out, (next(reversed(out.transistors)),) if rep._reduced else out.transistors)
    return out


# -- class BFS ----------------------------------------------------------------------

def normalize_base(base: Diagram, cfg: BallConfig) -> Diagram:
    d = reduce(base)
    if GEOMETRY[cfg.geometry].annular and not d.annular:
        d = replace(d, annular=True)
    return GEOMETRY[cfg.geometry].class_rep(d)


def bfs_classes(base: Diagram, radius: int, cfg: BallConfig):
    """Breadth-first closure of the unitary moves to the given depth.

    Returns (reps, depths, edges, lengths): reps is a key-ordered-per-level
    list of class representatives, edges a dict (i, j) -> (kind, witness)
    with i < j, lengths the reps' lengths (the root's, then each new
    class's from the move that found it).  Missed sibling edges are
    recovered when the child expands, and the outermost shell expands as
    level radius + 1, which adds no vertex, only the edges back into the
    ball; so the edge set is the full induced subgraph on the ball.  Only
    moves to a length of at most radius + length(root) are taken.  The
    first move to each new signature (sorted K and C ids, see the module
    docstring) is the only one built, keyed and class-represented.  Until
    it is expanded, a vertex keeps its bottom wires' ids: wire id (c, s)
    names the cone c above, c its top wires'.
    """
    check_finite_coeffs(cfg.coeffs)
    geometry, pres = cfg.geometry, cfg.pres
    root = normalize_base(base, cfg)
    lengths = [length(root)]
    max_length = radius + lengths[0]
    table = Interned()
    names, cones = hyperplane_names(root, table)
    sig = tuple(sorted([*cones.values(), *[table["C", names[w], c.payload] for w, (_, c)
                                           in root.wires.items() if not c.is_identity()]]))
    index, reps, depths, sigs = {sig: 0}, [root], [0], [sig]
    bottom_names = [tuple([names[w] for w in root.bottom_ports])]
    edges: dict[tuple[int, int], tuple[str, object]] = {}
    frontier = range(1)
    for depth in range(1, radius + 2):
        found: dict[tuple, tuple] = {}
        for i in frontier:
            rep, sig, bnames = reps[i], sigs[i], bottom_names[i]
            wires, bottom, labels = rep.wires, rep.bottom_ports, rep.bot_word()
            for kind, move, after, effect in unitary_moves(rep, cfg, lengths[i]):
                if after > max_length:
                    continue
                out, witness = list(sig), move
                if kind == "linear":
                    p = move[0]
                    c, witness = wires[bottom[p]][1], (labels[p], move[1])
                    if not c.is_identity():
                        out.remove(table["C", bnames[p], c.payload])
                    if not effect.is_identity():
                        insort(out, table["C", bnames[p], effect.payload])
                elif effect is not None:  # cancels the transistor above its feed
                    cone = table.named[bnames[move[2][0]]][0]
                    out.remove(cone)
                else:
                    tops = [x for p in move[2] for x in (bnames[p], wires[bottom[p]][1].payload)]
                    cone = table[(*tops, rel_sides(pres, *move[:2])[1])]
                    insort(out, cone)
                out = tuple(out)
                j = index.get(out)
                if j is not None and j != i:
                    edges.setdefault((i, j) if i < j else (j, i), (kind, witness))
                if j is not None or depth > radius or out in found:
                    continue
                child = GEOMETRY[geometry].class_rep(apply_move(rep, kind, move, geometry))
                named = dict(zip(bottom, bnames))
                if kind == "transistor" and effect is not None:
                    named.update(zip(rep.t_top[effect], table.named[cone][:-1:2]))
                elif kind == "transistor":
                    t = next(reversed(child.transistors))
                    named.update((w, table[cone, s]) for s, w in enumerate(child.t_bot[t]))
                found[out] = (canonical_key(child), child, i, kind, witness,
                              tuple([named[w] for w in child.bottom_ports]), after)
            bottom_names[i] = rep._trav = None  # names and traversal: not needed any more
        frontier = range(len(reps), len(reps) + len(found))
        for out in sorted(found, key=lambda out: found[out][0]):
            _, child, parent, kind, witness, bnames, after = found[out]
            index[out] = len(reps)
            edges.setdefault((parent, len(reps)), (kind, witness))
            reps.append(child)
            depths.append(depth)
            sigs.append(out)
            bottom_names.append(bnames)
            lengths.append(after)
    return reps, depths, edges, lengths


# -- enumeration ---------------------------------------------------------------------

def enumerate_reduced(pres, coeffs, w, budget: int, geometry: str = "braided",
                      max_width: int = 12) -> list[Diagram]:
    """All reduced (w,w)-diagrams of the geometry with length <= budget,
    each once by exact key, deterministically ordered."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    cfg = BallConfig(pres, coeffs, geometry, max_width)
    reps, *_ = bfs_classes(eps(pres, coeffs, tuple(w)), budget, cfg)
    feeds, target = GEOMETRY[geometry].feeds, tuple(w)
    out: dict[str, Diagram] = {}
    for rep in reps:
        labels = rep.bot_word()
        if sorted(labels) != sorted(target):
            continue
        bottom = rep.bottom_ports
        orders = [tuple(bottom[p] for p in positions)
                  for positions in feeds(labels, target)]
        if not orders:
            continue
        # every variant shares the rep's traversal; build only the new ones
        for key, ports in zip(bottom_variant_keys(rep, orders), orders):
            if key not in out:
                d = with_bottom_ports(rep, ports)
                d._exact_key = key
                out[key] = d
    return [out[k] for k in sorted(out)]

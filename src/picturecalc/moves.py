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
walks on; `unitary_moves` adds each result's length for the ball explorer,
and `apply_move` builds one of them from its parent's dicts and endpoint
maps, cancelling the one dipole `unitary_moves` predicts, if any.  Lengths
are Lipschitz along moves: d([A],[B]) = length(A^-1 . B), one unitary move
changes the length of the reduced representative by at most one, and a
permutation diagram changes it not at all.  So a vertex at depth k of the
ball around [R] has length at most length(R) + k, and `bfs_classes` never
builds a neighbour longer than length(R) + radius: it could not be in the
ball, nor be the end of one of its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coeff import (
    CoefficientSystem,
    GroupElement,
    coeff_multiply,
    identity as coeff_identity,
    nontrivial_elements,
)
from .errors import EnumerationError
from .picture import (
    GEOMETRY,
    Diagram,
    _assemble,
    _cancel,
    _dipole_above,
    bottom_variant_keys,
    canonical_key,
    eps,
    length,
    reduce,
    rel_sides,
    replace,
    with_bottom_ports,
)

GEOMETRIES = tuple(GEOMETRY)


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
    if coeffs.has_free():
        raise EnumerationError("free coefficient groups give infinite pins/balls")


# -- geometry-aware class keys ----------------------------------------------------

def geometry_class_key(d: Diagram, geometry: str) -> str:
    """Key of the vertex class of d (d up to all permutation diagrams
    (braided), rotations (annular), or nothing (planar)): the exact key of
    its representative."""
    return canonical_key(GEOMETRY[geometry].class_rep(d))


def geometry_class_rep(d: Diagram, geometry: str) -> Diagram:
    """Deterministic representative of [d] (normalized bottom permutation),
    whose exact key names the class."""
    return GEOMETRY[geometry].class_rep(d)


# -- move enumeration --------------------------------------------------------------

def apply_transistor_move(d: Diagram, rel_index: int, direction: int,
                          positions: tuple[int, ...], geometry: str = "braided") -> Diagram:
    """D . P . (eps(a)+T+eps(b)) built directly: the bottom wires at
    `positions` (in that order) feed the new transistor.  Not reduced, and
    its reduced flag stays unset (`apply_move` sets it).  The endpoint maps
    are d's, updated for the fed wires, the produced wires and the frame
    bottom."""
    top_side, bot_side = rel_sides(d.pres, rel_index, direction)
    sel = tuple(d.bottom_ports[p] for p in positions)
    if tuple(d.wires[w][0] for w in sel) != top_side:
        raise ValueError("selected wires do not spell the relation side")
    wires = d.wires.copy()
    tid = (max(d.transistors) if d.transistors else 0) + 1
    wid = (max(d.wires) if d.wires else 0) + 1
    produced = tuple(range(wid, wid + len(bot_side)))
    for w, letter in zip(produced, bot_side):
        wires[w] = (letter, coeff_identity(d.coeffs.spec(letter)))
    transistors = d.transistors.copy()
    transistors[tid] = (rel_index, direction)
    t_top = d.t_top.copy()
    t_bot = d.t_bot.copy()
    t_top[tid] = sel
    t_bot[tid] = produced

    new_ports = GEOMETRY[geometry].after(d.bottom_ports, positions, produced)
    wire_top = d.wire_top.copy()
    wire_bot = d.wire_bot.copy()
    for i, w in enumerate(sel):
        wire_bot[w] = ("TT", tid, i)
    for i, w in enumerate(produced):
        wire_top[w] = ("TB", tid, i)
    for i, w in enumerate(new_ports):
        wire_bot[w] = ("FB", i)
    return _assemble(d, wires, transistors, t_top, t_bot, new_ports, wire_top, wire_bot)


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


def unitary_moves(rep: Diagram, cfg: BallConfig):
    """All unitary moves from a reduced class representative, without
    building any diagram: `word_moves` of its bottom word.

    Yields (kind, witness, length_after), where length_after is the length
    of the move's result.  A new transistor adds one to the length, or
    takes one off when it forms a dipole with the transistor above its feed
    (at most one can: cancelling that pair leaves the other transistor's
    top wires on the frame bottom, where they meet no transistor).  A
    linear move changes one bottom wire's coefficient; that wire feeds no
    transistor, so no dipole appears or goes.  The witness list itself
    does not need rep to be reduced.
    """
    pres, wires, bottom = rep.pres, rep.wires, rep.bottom_ports
    before = length(rep)
    for kind, witness, _ in word_moves(rep.bot_word(), cfg):
        if kind == "transistor":
            sel = tuple(bottom[p] for p in witness[2])
            cancels = _dipole_above(pres, wires, rep.transistors, rep.t_bot,
                                    rep.wire_top, sel, witness[:2]) is not None
            yield kind, witness, before - 1 if cancels else before + 1
        else:
            c, g = wires[bottom[witness[0]]][1], witness[1]
            change = (not coeff_multiply(c, g).is_identity()) - (not c.is_identity())
            yield kind, witness, before + change


def apply_move(rep: Diagram, kind: str, witness, geometry: str) -> Diagram:
    """The reduced result of the move (kind, witness) of `unitary_moves`.
    A reduced rep's transistor move can only form a dipole with the
    transistor above its feed; when it forms none, the result is marked
    reduced as built, and when it does, the pair is cancelled in place in
    the move's fresh dicts, the new transistor the only seed."""
    if kind == "linear":
        return apply_linear_move(rep, *witness)
    rel_index, direction, positions = witness
    out = apply_transistor_move(rep, rel_index, direction, positions, geometry)
    if not rep._reduced:
        return reduce(out)
    sel = tuple(rep.bottom_ports[p] for p in positions)
    if _dipole_above(rep.pres, rep.wires, rep.transistors, rep.t_bot,
                     rep.wire_top, sel, (rel_index, direction)) is None:
        out._reduced = True
    else:
        _cancel(out, (next(reversed(out.transistors)),))
    return out


def neighbor_diagrams(rep: Diagram, cfg: BallConfig, max_length: int | None = None):
    """The unitary moves from a reduced class representative, built, except
    those whose result would be longer than `max_length`.

    Yields (reduced result, kind, witness) in `unitary_moves` order;
    witness is (rel_index, direction, positions) for transistor moves and
    (letter, delta) for linear ones.  Results still need class
    deduplication.
    """
    labels = rep.bot_word()
    for kind, witness, length_after in unitary_moves(rep, cfg):
        if max_length is not None and length_after > max_length:
            continue
        out = apply_move(rep, kind, witness, cfg.geometry)
        if kind == "linear":
            witness = (labels[witness[0]], witness[1])
        yield out, kind, witness


# -- class BFS ----------------------------------------------------------------------

def normalize_base(base: Diagram, cfg: BallConfig) -> Diagram:
    d = reduce(base)
    if GEOMETRY[cfg.geometry].annular and not d.annular:
        d = replace(d, annular=True)
    return geometry_class_rep(d, cfg.geometry)


def bfs_classes(base: Diagram, radius: int, cfg: BallConfig):
    """Breadth-first closure of the unitary moves to the given depth.

    Returns (reps, depths, edges): reps is a key-ordered-per-level list of
    class representatives, edges a dict (i, j) -> (kind, witness) with
    i < j.  Missed sibling edges are recovered when the child expands, and
    the outermost shell expands as level radius + 1, which adds no vertex,
    only the edges back into the ball; so the edge set is the full induced
    subgraph on the ball.

    Only neighbours of length at most radius + length(root) are built: a
    move changes the length by at most one and the geometry's permutations
    keep it, so no vertex of the ball is longer.
    """
    check_finite_coeffs(cfg.coeffs)
    root = normalize_base(base, cfg)
    max_length = radius + length(root)
    index: dict[str, int] = {canonical_key(root): 0}
    reps: list[Diagram] = [root]
    depths: list[int] = [0]
    edges: dict[tuple[int, int], tuple[str, object]] = {}
    frontier = range(1)
    for depth in range(1, radius + 2):
        found: dict[str, tuple[Diagram, int, str, object]] = {}
        for i in frontier:
            for out, kind, witness in neighbor_diagrams(reps[i], cfg, max_length):
                rep = geometry_class_rep(out, cfg.geometry)
                key = canonical_key(rep)
                j = index.get(key)
                if j is None:
                    if depth <= radius:
                        found.setdefault(key, (rep, i, kind, witness))
                elif j != i:
                    a, b = (i, j) if i < j else (j, i)
                    edges.setdefault((a, b), (kind, witness))
        frontier = range(len(reps), len(reps) + len(found))
        for key in sorted(found):
            rep, parent, kind, witness = found[key]
            j = len(reps)
            index[key] = j
            reps.append(rep)
            depths.append(depth)
            edges.setdefault((parent, j), (kind, witness))
    return reps, depths, edges


# -- enumeration ---------------------------------------------------------------------

def enumerate_reduced(pres, coeffs, w, budget: int, geometry: str = "braided",
                      max_width: int = 12) -> list[Diagram]:
    """All reduced (w,w)-diagrams of the geometry with length <= budget,
    each once by exact key, deterministically ordered."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    check_finite_coeffs(coeffs)
    cfg = BallConfig(pres, coeffs, geometry, max_width)
    reps, depths, _ = bfs_classes(eps(pres, coeffs, tuple(w)), budget, cfg)
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

"""Braided diagrams over a semigroup presentation with coefficient labels.

A diagram is a combinatorial object: labelled wires stretched between a
frame and transistors.  Every wire's bottom endpoint sits on the top side
of a transistor or on the bottom of the frame; its top endpoint sits on
the bottom side of a transistor or on the top of the frame.  Each
transistor realizes one oriented relation (positive: top word = lhs).
Plain semigroup diagrams are the special case where every wire carries
the identity coefficient.

Equivalence of diagrams preserves all orders and labels, so a diagram is
fully determined by its attachment combinatorics; `canonical_key` gives a
byte-comparable normal form via a deterministic traversal from the frame
top.  `reduce` cancels dipoles (the result is order-independent), and
`multiply` is reduce-after-concatenate, the group law on (w,w)-diagrams.

Sites are encoded as tuples:
    ("FT", i)       wire top endpoint at frame-top port i
    ("FB", i)       wire bottom endpoint at frame-bottom port i
    ("TT", t, i)    wire bottom endpoint at slot i on top of transistor t
    ("TB", t, i)    wire top endpoint at slot i on the bottom of transistor t
"""

from __future__ import annotations

import zlib
from collections import namedtuple
from functools import lru_cache
from heapq import heappop, heappush
from itertools import islice

from .coeff import (
    CoefficientSystem,
    GroupElement,
    coeff_invert,
    coeff_multiply,
    coeff_serialize,
    identity,
    trivial_system,
)
from .errors import CompositionError
from .presentation import SemigroupPresentation, Word

LabelledWord = tuple[tuple[str, GroupElement], ...]


def rel_sides(pres: SemigroupPresentation, rel_index: int, direction: int) -> tuple[Word, Word]:
    """(top word, bottom word) of a transistor carrying the oriented relation."""
    lhs, rhs = pres.relations[rel_index]
    return (lhs, rhs) if direction == 1 else (rhs, lhs)


class Diagram:
    __slots__ = (
        "pres", "coeffs", "wires", "transistors", "t_top", "t_bot",
        "top_ports", "bottom_ports", "annular",
        "wire_top", "wire_bot", "_exact_key", "_reduced", "_trav",
        "_next_wire", "_next_trans",
    )

    def __init__(self, pres, coeffs, wires, transistors, t_top, t_bot,
                 top_ports, bottom_ports, annular=False, _reduced=None):
        self.pres = pres
        self.coeffs = coeffs
        self.wires = wires                    # wid -> (label, coeff)
        self.transistors = transistors        # tid -> (rel_index, direction)
        self.t_top = t_top                    # tid -> tuple of wids (left to right)
        self.t_bot = t_bot
        self.top_ports = tuple(top_ports)
        self.bottom_ports = tuple(bottom_ports)
        self.annular = annular
        wt: dict[int, tuple] = {}
        wb: dict[int, tuple] = {}
        for i, w in enumerate(self.top_ports):
            wt[w] = ("FT", i)
        for i, w in enumerate(self.bottom_ports):
            wb[w] = ("FB", i)
        for tid, tup in t_top.items():
            for i, w in enumerate(tup):
                wb[w] = ("TT", tid, i)
        for tid, tup in t_bot.items():
            for i, w in enumerate(tup):
                wt[w] = ("TB", tid, i)
        self.wire_top = wt
        self.wire_bot = wb
        self._exact_key = None
        self._reduced = _reduced
        self._trav = None
        self._next_wire = self._next_trans = None

    # -- basic views ---------------------------------------------------------

    def top_word(self) -> Word:
        return tuple(self.wires[w][0] for w in self.top_ports)

    def bot_word(self) -> Word:
        return tuple(self.wires[w][0] for w in self.bottom_ports)

    def top_labelled(self) -> LabelledWord:
        return tuple(self.wires[w] for w in self.top_ports)

    def bot_labelled(self) -> LabelledWord:
        return tuple(self.wires[w] for w in self.bottom_ports)

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        # the key's tag is a 32-bit checksum of the configuration, so the
        # configurations are compared as well
        return (canonical_key(self) == canonical_key(other)
                and self.pres == other.pres and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(canonical_key(self))

    def __repr__(self):
        return (f"<Diagram ({'.'.join(self.top_word())} -> {'.'.join(self.bot_word())}) "
                f"{len(self.transistors)}T/{len(self.wires)}W"
                f"{' annular' if self.annular else ''}>")

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on the first failure."""
        if not self.wires:
            raise ValueError("diagram must contain at least one wire")
        n_top, n_bot = len(self.top_ports), len(self.bottom_ports)
        for tid, (rel_index, direction) in self.transistors.items():
            if not (0 <= rel_index < len(self.pres.relations)) or direction not in (1, -1):
                raise ValueError(f"transistor {tid}: bad relation reference")
            top_side, bot_side = rel_sides(self.pres, rel_index, direction)
            if tuple(self.wires[w][0] for w in self.t_top[tid]) != top_side:
                raise ValueError(f"transistor {tid}: top labels do not spell the relation side")
            if tuple(self.wires[w][0] for w in self.t_bot[tid]) != bot_side:
                raise ValueError(f"transistor {tid}: bottom labels do not spell the relation side")
            n_bot += len(self.t_top[tid])
            n_top += len(self.t_bot[tid])
        for w, (label, coeff) in self.wires.items():
            if label not in self.pres.alphabet:
                raise ValueError(f"wire {w}: undeclared letter {label!r}")
            if coeff.spec != self.coeffs.spec(label):
                raise ValueError(f"wire {w}: coefficient from the wrong group")
            if w not in self.wire_top or w not in self.wire_bot:
                raise ValueError(f"wire {w}: missing an endpoint")
        # every wire has an attachment of each kind, so as many attachments
        # as wires means exactly one each, and none to a wire not in d
        if n_top != len(self.wires) or n_bot != len(self.wires):
            raise ValueError("every wire needs exactly one top and one bottom attachment")
        if sum(1 for _ in top_down(self)) != len(self.transistors):
            raise ValueError("transistor order has a cycle")


def top_down(d: Diagram):
    """d's transistors in a top-down order: the partial order t1 < t2 when a
    wire rises from t1 into t2, walked from the frame top without recursion.
    A transistor is yielded once all its top wires are placed, its bottom
    wires being placed when the caller next asks; the transistors on or
    below a cycle of that order are never yielded."""
    t_top, t_bot, wire_bot = d.t_top, d.t_bot, d.wire_bot
    unplaced: dict[int, int] = {}  # transistor -> top wires not yet placed
    stack = list(d.top_ports)
    while stack:
        site = wire_bot[stack.pop()]
        if site[0] == "TT":
            t = site[1]
            unplaced[t] = left = unplaced.get(t, len(t_top[t])) - 1
            if not left:
                yield t
                stack.extend(t_bot[t])


def _assemble(d: Diagram, wires, transistors, t_top, t_bot, bottom_ports,
              wire_top, wire_bot, reduced=None, trav=None) -> Diagram:
    """A diagram with d's configuration, frame top and annular flag and the
    given fields, endpoint maps included: the one constructor path that
    derives a diagram's maps from its parent's instead of rebuilding them.
    The maps are taken as they are, so callers pass fresh or unchanged
    dicts; `trav` is a `_traversal` result that still holds.  d's kept
    next ids carry over: a caller that adds ids sets them, and `_cancel`
    drops one whose largest id it deletes."""
    out = Diagram.__new__(Diagram)
    out.pres, out.coeffs, out.annular = d.pres, d.coeffs, d.annular
    out.wires, out.transistors, out.t_top, out.t_bot = wires, transistors, t_top, t_bot
    out.top_ports, out.bottom_ports = d.top_ports, bottom_ports
    out.wire_top, out.wire_bot = wire_top, wire_bot
    out._exact_key = None
    out._reduced, out._trav = reduced, trav
    out._next_wire, out._next_trans = d._next_wire, d._next_trans
    return out


def _next_ids(d: Diagram) -> tuple[int, int]:
    """d's next free wire and transistor ids, each the largest id plus one
    (1 when there is none): computed once and kept on d."""
    if d._next_wire is None:
        d._next_wire = max(d.wires, default=0) + 1
    if d._next_trans is None:
        d._next_trans = max(d.transistors, default=0) + 1
    return d._next_wire, d._next_trans


def replace(d: Diagram, **fields) -> Diagram:
    """A new diagram with d's constructor fields, the given ones changed.
    The reduced flag carries over unless `_reduced` is given: callers that
    could create a dipole pass ``_reduced=None``."""
    return Diagram(**{"pres": d.pres, "coeffs": d.coeffs, "wires": d.wires,
                      "transistors": d.transistors, "t_top": d.t_top, "t_bot": d.t_bot,
                      "top_ports": d.top_ports, "bottom_ports": d.bottom_ports,
                      "annular": d.annular, "_reduced": d._reduced, **fields})


# -- canonical keys ------------------------------------------------------------


def _traversal(d: Diagram) -> tuple[dict[int, int], list[int], list[int]]:
    """Canonical numbering: BFS from the frame-top ports in order; transistors
    numbered at first visit, wires at discovery.  Returns the wire numbering
    and the wires and transistors in numbering order.  Independent of the
    bottom-port order (frame-bottom sites feed nothing), so it is kept on d
    next to the cached keys and carried onto d's bottom-port variants."""
    if d._trav is not None:
        return d._trav
    worder: dict[int, int] = {}
    wires: list[int] = []
    torder: set[int] = set()
    trans: list[int] = []
    for w in d.top_ports:
        if w not in worder:
            worder[w] = len(wires)
            wires.append(w)
    wire_bot, wire_top, t_top, t_bot = d.wire_bot, d.wire_top, d.t_top, d.t_bot
    for w in wires:  # the queue: wires appended here are visited in turn
        for site in (wire_bot[w], wire_top[w]):
            if len(site) == 3 and site[1] not in torder:  # a TT or TB site
                tid = site[1]
                torder.add(tid)
                trans.append(tid)
                for w2 in t_top[tid] + t_bot[tid]:
                    if w2 not in worder:
                        worder[w2] = len(wires)
                        wires.append(w2)
    if len(wires) != len(d.wires):
        raise ValueError("diagram has wires unreachable from the frame top")
    d._trav = worder, wires, trans
    return d._trav


@lru_cache(maxsize=64)
def _config_tag(pres: SemigroupPresentation, coeffs: CoefficientSystem) -> str:
    """8 hex digits of the CRC-32 of repr((pres, coeffs)): the same in every
    process, and the reprs differ whenever the configurations do."""
    return f"{zlib.crc32(repr((pres, coeffs)).encode()):08x}"


_WIRE_TEXTS: dict[tuple[str, object], str] = {}
_WIRE_TEXTS_MAX = 4096


def _wire_text(label: str, c: GroupElement) -> str:
    """`label:coeff`, memoized by (label, payload): a coefficient's text
    depends on its payload alone (identity payloads all read ``1``)."""
    key = (label, c.payload)
    text = _WIRE_TEXTS.get(key)
    if text is None:
        text = f"{label}:{coeff_serialize(c)}"
        if len(_WIRE_TEXTS) < _WIRE_TEXTS_MAX:
            _WIRE_TEXTS[key] = text
    return text


def _key_frame(d: Diagram) -> tuple[dict[int, int], str, str]:
    """(wire numbering, key text before the bottom sequence, key text after
    it), from one traversal."""
    worder, wires, trans = _traversal(d)
    head = f"{'a' if d.annular else 'p'}|{_config_tag(d.pres, d.coeffs)}|B"
    dw, dt = d.wires, d.transistors
    w_part = ";".join([_wire_text(*dw[w]) for w in wires])
    t_part = ";".join([
        f"{dt[t][0]}:{dt[t][1]}:"
        f"{','.join([str(worder[w]) for w in d.t_top[t]])}:"
        f"{','.join([str(worder[w]) for w in d.t_bot[t]])}"
        for t in trans])
    return worder, head, f"|W{w_part}|T{t_part}"


def canonical_key(d: Diagram) -> str:
    """Byte-comparable normal form: equal keys iff the diagrams are
    equivalent.  A vertex class of X is named by the key of its
    representative, `GEOMETRY[geometry].class_rep(d)`.

    Layout: ``a|tag|B…|W…|T…``.  ``a`` or ``p`` says annular or not; the
    tag is 8 hex digits of the CRC-32 of the configuration (`_config_tag`);
    ``B`` lists the traversal numbers of the bottom-port wires; ``W`` gives
    ``label:coeff`` per wire and ``T`` gives ``rel:dir:tops:bots`` per
    transistor, both in traversal order, tops and bots as wire numbers.
    The traversal runs from the frame top and ignores the bottom order, so
    the keys of all bottom-port variants of one diagram (rotations,
    placements, class representatives) share one traversal and differ only
    in the ``B`` part."""
    if d._exact_key is None:
        d._exact_key = bottom_variant_keys(d, [d.bottom_ports])[0]
    return d._exact_key


def bottom_variant_keys(d: Diagram, orders) -> list[str]:
    """Exact keys of d with each bottom-port order in `orders` (each a
    permutation of d.bottom_ports), from one traversal."""
    worder, head, tail = _key_frame(d)
    return [head + ",".join([str(worder[w]) for w in ports]) + tail for ports in orders]


def least_rotation(d: Diagram) -> Diagram:
    """The first rotation of d with the least exact key, its key set from
    one key frame.  The rotations' keys share the text around the bottom
    sequence and their bottom texts have one length, so the least bottom
    text (compared as text) gives the least key."""
    worder, head, tail = _key_frame(d)
    ranks = [str(worder[w]) for w in d.bottom_ports]
    texts = [",".join(ranks[-k:] + ranks[:-k]) for k in range(len(ranks))]
    least = min(texts)
    rep = rotate_bottom(d, texts.index(least))
    rep._exact_key = head + least + tail
    return rep


def class_representative(d: Diagram) -> Diagram:
    """The member of d's braided class whose bottom ports follow the
    canonical wire order.  The traversal ignores the bottom order, so every
    member of the class gives this one."""
    worder = _traversal(d)[0]
    return with_bottom_ports(d, sorted(d.bottom_ports, key=worder.__getitem__))


def rotate_bottom(d: Diagram, k: int) -> Diagram:
    """Right-concatenate the rotation sending top port i to bottom port i+k."""
    n = len(d.bottom_ports)
    k %= n
    return with_bottom_ports(d, [d.bottom_ports[(i - k) % n] for i in range(n)])


def with_bottom_ports(d: Diagram, ports) -> Diagram:
    """d with its bottom ports in the order `ports`: only the frame-bottom
    sites change, so the other fields, the reduced flag and the traversal
    (which ignores the bottom order) carry over."""
    ports = tuple(ports)
    if sorted(ports) != sorted(d.bottom_ports):
        raise ValueError("new bottom ports must be a permutation of the old")
    wire_bot = d.wire_bot.copy()
    for i, w in enumerate(ports):
        wire_bot[w] = ("FB", i)
    return _assemble(d, d.wires, d.transistors, d.t_top, d.t_bot, ports,
                     d.wire_top, wire_bot, d._reduced, d._trav)


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
    wid, tid = _next_ids(d)
    produced = tuple(range(wid, wid + len(bot_side)))
    for w, letter in zip(produced, bot_side):
        wires[w] = (letter, identity(d.coeffs.spec(letter)))
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
    out = _assemble(d, wires, transistors, t_top, t_bot, new_ports, wire_top, wire_bot)
    out._next_wire, out._next_trans = wid + len(bot_side), tid + 1
    return out


# -- construction atoms --------------------------------------------------------


def eps(pres: SemigroupPresentation, coeffs: CoefficientSystem | None,
        labelled_word, annular: bool = False) -> Diagram:
    """epsilon(u1...un): n wires frame-top to frame-bottom, no transistors.
    Each item of the word is a letter or a (letter, coefficient or None) pair."""
    if coeffs is None:
        coeffs = trivial_system(pres.alphabet)
    wires: dict[int, tuple[str, GroupElement]] = {}
    for item in labelled_word:
        if isinstance(item, str):
            letter, elem = item, None
        else:
            letter, elem = item
        if letter not in pres.alphabet:
            raise ValueError(f"undeclared letter {letter!r}")
        spec = coeffs.spec(letter)
        if elem is None:
            elem = identity(spec)
        if elem.spec != spec:
            raise ValueError(f"element/spec mismatch at letter {letter!r}")
        wires[len(wires)] = (letter, elem)
    if not wires:
        raise ValueError("empty word")
    ports = tuple(wires)
    return Diagram(pres, coeffs, wires, {}, {}, {}, ports, ports, annular, _reduced=True)


def atom_permutation(pres, coeffs, labelled_word, perm, annular: bool = False) -> Diagram:
    """Wire i runs from frame-top port i to frame-bottom port perm[i]."""
    d = eps(pres, coeffs, labelled_word, annular)
    perm = tuple(perm)
    if sorted(perm) != list(d.top_ports):
        raise ValueError("perm must be a bijection on positions")
    return with_bottom_ports(d, sorted(d.top_ports, key=perm.__getitem__))


def atom_transistor(pres, coeffs, a: Word, rel_index: int, direction: int,
                    b: Word, annular: bool = False) -> Diagram:
    """Planar diagram eps(a) + T + eps(b) with one transistor, identity labels."""
    if not (0 <= rel_index < len(pres.relations)):
        raise ValueError("invalid relation reference")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    top_side = rel_sides(pres, rel_index, direction)[0]
    d = apply_transistor_move(eps(pres, coeffs, (*a, *top_side, *b), annular), rel_index,
                              direction, tuple(range(len(a), len(a) + len(top_side))), "planar")
    d._reduced = True  # one transistor forms no dipole
    return d


def atom_linear(pres, coeffs, word: Word, i: int, g: GroupElement,
                annular: bool = False) -> Diagram:
    """eps(word) with coefficient g != 1 at position i."""
    if g.is_identity():
        raise ValueError("linear diagram needs a nontrivial coefficient")
    lw = [(c, None) for c in word]
    lw[i] = (word[i], g)
    return eps(pres, coeffs, lw, annular)


# -- boundaries, concatenation, sum, inversion ---------------------------------


def boundaries(d: Diagram) -> tuple[LabelledWord, LabelledWord, Word, Word]:
    return d.top_labelled(), d.bot_labelled(), d.top_word(), d.bot_word()


def _relabel(d: Diagram, wire_off: int, trans_off: int):
    wires = {w + wire_off: v for w, v in d.wires.items()}
    transistors = {t + trans_off: v for t, v in d.transistors.items()}
    t_top = {t + trans_off: tuple(w + wire_off for w in tup) for t, tup in d.t_top.items()}
    t_bot = {t + trans_off: tuple(w + wire_off for w in tup) for t, tup in d.t_bot.items()}
    top = tuple(w + wire_off for w in d.top_ports)
    bottom = tuple(w + wire_off for w in d.bottom_ports)
    return wires, transistors, t_top, t_bot, top, bottom


def concat(d1: Diagram, d2: Diagram) -> Diagram:
    """Glue d2 below d1; not reduced.  The result owns fresh dicts that
    `_cancel` may change in place.  d2's ids move past d1's next ids, but
    each frame-top wire of d2 merges into the frame-bottom wire of d1 above
    it, which keeps its id and place and carries (d1's coefficient)*(d2's).
    d1's dicts are copied, and d2's items are relabelled and appended in one
    pass over its wires and one over its transistors."""
    if ((d1.pres is not d2.pres or d1.coeffs is not d2.coeffs)
            and (d1.pres != d2.pres or d1.coeffs != d2.coeffs)):
        raise CompositionError("presentation or coefficient system mismatch")
    if d1.bot_word() != d2.top_word():
        raise CompositionError(
            f"boundary mismatch: {'.'.join(d1.bot_word())} vs {'.'.join(d2.top_word())}")
    w_off, t_off = _next_ids(d1)
    ren = dict(zip(d2.top_ports, d1.bottom_ports))  # the seam
    wires = d1.wires.copy()
    for w, v in d2.wires.items():
        u = ren.get(w)
        if u is None:
            ren[w] = w + w_off
            wires[w + w_off] = v
        elif v[1].payload:  # a nontrivial coefficient below the seam
            wires[u] = (v[0], coeff_multiply(wires[u][1], v[1]))
    transistors = d1.transistors.copy()
    t_top, t_bot = d1.t_top.copy(), d1.t_bot.copy()
    wire_top, wire_bot = d1.wire_top.copy(), d1.wire_bot.copy()
    d2_top, d2_bot = d2.t_top, d2.t_bot
    for t, v in d2.transistors.items():
        tid = t + t_off
        transistors[tid] = v
        t_top[tid] = tops = tuple(map(ren.__getitem__, d2_top[t]))
        t_bot[tid] = bots = tuple(map(w_off.__add__, d2_bot[t]))
        for i, w in enumerate(tops):
            wire_bot[w] = ("TT", tid, i)
        for i, w in enumerate(bots):
            wire_top[w] = ("TB", tid, i)
    bottom = tuple(map(ren.__getitem__, d2.bottom_ports))
    for i, w in enumerate(bottom):
        wire_bot[w] = ("FB", i)
    out = _assemble(d1, wires, transistors, t_top, t_bot, bottom, wire_top, wire_bot)
    out.annular = d1.annular or d2.annular
    # d2's wires past the seam are those its transistors produce
    out._next_wire = w_off + 1 + max(map(max, filter(None, d2_bot.values())), default=-1)
    out._next_trans = t_off + 1 + max(d2.transistors, default=-1)
    return out


def sum_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Side-by-side union (undefined for annular operands)."""
    if d1.pres != d2.pres or d1.coeffs != d2.coeffs:
        raise CompositionError("presentation or coefficient system mismatch")
    if d1.annular or d2.annular:
        raise CompositionError("sum is undefined for annular diagrams")
    w_off, t_off = _next_ids(d1)
    wires2, trans2, ttop2, tbot2, top2, bottom2 = _relabel(d2, w_off, t_off)
    wires = dict(d1.wires)
    wires.update(wires2)
    transistors = dict(d1.transistors)
    transistors.update(trans2)
    t_top = dict(d1.t_top)
    t_top.update(ttop2)
    t_bot = dict(d1.t_bot)
    t_bot.update(tbot2)
    red = True if (d1._reduced and d2._reduced) else None
    out = Diagram(d1.pres, d1.coeffs, wires, transistors, t_top, t_bot,
                  d1.top_ports + top2, d1.bottom_ports + bottom2, False, _reduced=red)
    out._next_wire = w_off + 1 + max(d2.wires, default=-1)
    out._next_trans = t_off + 1 + max(d2.transistors, default=-1)
    return out


def invert(d: Diagram) -> Diagram:
    """Vertical mirror: boundaries and transistor sides exchanged, directions
    flipped, coefficients inverted."""
    wires = {w: (v[0], coeff_invert(v[1])) if v[1].payload else v for w, v in d.wires.items()}
    transistors = {t: (r, -s) for t, (r, s) in d.transistors.items()}
    return Diagram(d.pres, d.coeffs, wires, transistors,
                   dict(d.t_bot), dict(d.t_top),
                   d.bottom_ports, d.top_ports, d.annular, _reduced=d._reduced)


# -- dipoles and reduction -------------------------------------------------------


def _dipole_above(pres, wires, transistors, t_bot, wire_top, conn, rel) -> int | None:
    """The transistor t2 that forms a dipole with a transistor t1 (below it)
    carrying the oriented relation `rel` and fed by the wires `conn`, or
    None: the wires rising from t1's top are exactly t2's bottom side in
    order, every connecting wire carries the identity coefficient, and the
    outer labels match (t2's top side spells t1's bottom side).  t1 need not
    exist yet: `moves` asks this of the transistor a move would add."""
    site = wire_top[conn[0]]
    if site[0] != "TB" or site[2] != 0:
        return None
    t2 = site[1]
    if t_bot[t2] != conn:
        return None
    if any(not wires[w][1].is_identity() for w in conn):
        return None
    if rel_sides(pres, *transistors[t2])[0] != rel_sides(pres, *rel)[1]:
        return None
    return t2


def _dipole_at(d: Diagram, t1: int) -> int | None:
    """The transistor forming a dipole with t1 above it, or None."""
    return _dipole_above(d.pres, d.wires, d.transistors, d.t_bot, d.wire_top,
                         d.t_top[t1], d.transistors[t1])


def _first_dipole(d: Diagram) -> int | None:
    """The dict position of the first transistor of d that is the lower one
    of a dipole, or None, in which case d is marked reduced: the one entry
    scan of `is_reduced` and `reduce`."""
    if d._reduced:
        return None
    pos = next((i for i, t in enumerate(d.transistors) if _dipole_at(d, t) is not None), None)
    if pos is None:
        d._reduced = True
    return pos


def is_reduced(d: Diagram) -> bool:
    return _first_dipole(d) is None


def _cancel(d: Diagram, seeds) -> None:
    """Cancel d's dipoles in place (d owns its dicts) and mark it reduced;
    `seeds` must hold the lower transistor of every dipole.  Cancelling a
    dipole (t1 below, t2 above) removes t1's top wires, and each of t2's
    top wires takes the place of the t1 bottom wire under it.  That changes
    the top sides of the transistors below those wires only, so only those
    are pushed.  The heap pops the least id: the package numbers a
    diagram's transistors in insertion order, so that is the first dipole
    in dict order, as if d were rescanned after each cancellation (other
    ids give the same result up to equivalence, by confluence)."""
    wires, transistors, t_top, t_bot = d.wires, d.transistors, d.t_top, d.t_bot
    wire_top, wire_bot = d.wire_top, d.wire_bot
    bottom = list(d.bottom_ports)
    heap = sorted(set(seeds))
    while heap:
        t1 = heappop(heap)
        t2 = _dipole_at(d, t1) if t1 in transistors else None
        if t2 is None:
            continue
        for w in t_top[t1]:
            del wires[w], wire_top[w], wire_bot[w]
        for a, b in zip(t_top[t2], t_bot[t1]):
            la, ca = wires[a]
            wires[a] = (la, coeff_multiply(ca, wires[b][1]))
            site = wire_bot[a] = wire_bot[b]
            if site[0] == "FB":
                bottom[site[1]] = a
            else:
                _, tid, idx = site
                tup = list(t_top[tid])
                tup[idx] = a
                t_top[tid] = tuple(tup)
                heappush(heap, tid)
            del wires[b], wire_top[b], wire_bot[b]
        for t in (t1, t2):
            del transistors[t], t_top[t], t_bot[t]
    d.bottom_ports = tuple(bottom)
    d._reduced = True
    # ids only go, so a kept next id stays exact while its largest id is left
    if d._next_wire is not None and d._next_wire - 1 not in wires:
        d._next_wire = None
    if d._next_trans is not None and d._next_trans - 1 not in transistors:
        d._next_trans = None


def reduce(d: Diagram) -> Diagram:
    """Cancel dipoles until none remain.  The result is independent of the
    order in which dipoles are reduced; `_cancel` seeds every transistor
    from the first dipole's on, and cancels the first dipole in transistor
    order each time.  A diagram without dipoles is returned itself."""
    start = _first_dipole(d)
    if start is None:
        return d
    out = _assemble(d, d.wires.copy(), d.transistors.copy(), d.t_top.copy(), d.t_bot.copy(),
                    d.bottom_ports, d.wire_top.copy(), d.wire_bot.copy())
    _cancel(out, islice(out.transistors, start, None))
    return out


def multiply(d1: Diagram, d2: Diagram) -> Diagram:
    """The reduction of the concatenation; the group law on (w,w)-diagrams.
    d2 is glued below d1 once and the dipoles are cancelled in place.  When
    both factors are reduced, a dipole of the concatenation has its lower
    transistor in d2, directly below the seam (d1's frame-bottom wires),
    and its upper one in d1, and every dipole a cancellation makes again
    has its lower transistor in d2 and its upper one in d1.  So only the
    transistors directly below the seam are seeds, no two dipoles overlap,
    and the order of cancellation does not change the result.  Otherwise
    every transistor is a seed, as in `reduce`."""
    out = concat(d1, d2)
    if is_reduced(d1) and is_reduced(d2):
        wire_bot = out.wire_bot
        _cancel(out, [wire_bot[w][1] for w in d1.bottom_ports if wire_bot[w][0] == "TT"])
    else:
        _cancel(out, out.transistors)
    return out


def length(d: Diagram) -> int:
    """Transistors of the reduction plus its wires with nontrivial coefficients."""
    r = reduce(d)
    return len(r.transistors) + sum(1 for _, c in r.wires.values() if not c.is_identity())


# -- geometries -----------------------------------------------------------------


def _braided_feeds(labels, consumed):
    """Distinct positions in lexicographic order, walked with one iterator
    over the letter's positions per open slot, so a long `consumed` needs
    no recursion."""
    pools: dict = {}
    for i, lab in enumerate(labels):
        pools.setdefault(lab, []).append(i)
    k, acc, used = len(consumed), [], set()
    if k == 0:
        yield ()
        return
    stack = [iter(pools.get(consumed[0], ()))]
    while stack:  # len(acc) == len(stack) - 1: the positions of the filled slots
        for p in stack[-1]:
            if p not in used:
                break
        else:
            stack.pop()
            if acc:
                used.discard(acc.pop())
            continue
        if len(stack) == k:
            yield (*acc, p)
        else:
            acc.append(p)
            used.add(p)
            stack.append(iter(pools.get(consumed[len(stack)], ())))


def _annular_feeds(labels, consumed):
    n, k, doubled = len(labels), len(consumed), labels + labels
    for i0 in range(n if k <= n else 0):
        if doubled[i0:i0 + k] == consumed:
            yield tuple([(i0 + j) % n for j in range(k)])


def _planar_feeds(labels, consumed):
    k = len(consumed)
    for i0 in range(len(labels) - k + 1):
        if labels[i0:i0 + k] == consumed:
            yield tuple(range(i0, i0 + k))


def _braided_after(ports, positions, produced):
    taken = set(positions)
    return tuple([w for i, w in enumerate(ports) if i not in taken]) + produced


def _braided_match(u, v):
    """Each letter of u goes to the last free position of v with that letter."""
    if sorted(u) != sorted(v):
        return None
    pools: dict = {}
    for j, lab in enumerate(v):
        pools.setdefault(lab, []).append(j)
    return tuple([pools[lab].pop() for lab in u])


def _first_feed_match(feeds):
    """The match that inverts the first feed tuple of u spelling all of v."""
    def match(u, v):
        p = next(feeds(u, v), None) if len(u) == len(v) else None
        return p and tuple(sorted(range(len(u)), key=p.__getitem__))
    return match


def _braided_symmetry(u):
    """The transposition of the first repeated pair of letters."""
    for i, lab in enumerate(u):
        if lab in u[i + 1:]:
            sigma = list(range(len(u)))
            j = u.index(lab, i + 1)
            sigma[i], sigma[j] = j, i
            return tuple(sigma)
    return None


Geometry = namedtuple("Geometry", "annular feeds after match symmetry class_rep")
Geometry.__doc__ = """Rules of one geometry: braided, annular and planar diagram groups
(V, T, F) differ only in the permutation diagrams allowed between unitary
moves, all bijections, the rotations or the identity.  Words are tuples.

annular: the annular flag of its base diagrams.  feeds(labels, consumed):
the position tuples p, in a fixed order, with labels[p[j]] == consumed[j]
that may feed a transistor (any distinct positions, a cyclic block, a
block).  after(ports, positions, produced): the bottom order once the ports
at `positions` feed a transistor producing `produced`.  match(u, v): a
permutation sigma of the geometry with u[i] == v[sigma[i]], or None;
symmetry(u): a nontrivial one from u onto u, or None.  class_rep(d): the
representative of d's class (d up to the geometry's permutations on the
right), whose exact key names the class."""


GEOMETRY: dict[str, Geometry] = {
    "braided": Geometry(False, _braided_feeds, _braided_after, _braided_match, _braided_symmetry,
                        class_representative),
    "annular": Geometry(
        True, _annular_feeds,
        lambda ports, pos, produced: produced + (ports[pos[0]:] + ports[:pos[0]])[len(pos):],
        _first_feed_match(_annular_feeds),
        lambda u: next(islice(_annular_feeds(u, u), 1, None), None), least_rotation),
    "planar": Geometry(
        False, _planar_feeds,
        lambda ports, pos, produced: ports[:pos[0]] + produced + ports[pos[0] + len(pos):],
        _first_feed_match(_planar_feeds), lambda u: None, lambda d: d),
}


# -- classification -------------------------------------------------------------


def _sweep(d: Diagram, geometry: Geometry) -> bool:
    """Whether d embeds in the geometry: fire its transistors in `top_down`
    order, each where `feeds` finds its top wires on the cut (wire ids as
    labels), advance the cut with `after`, and accept when all fire and
    `match` aligns the last cut with the frame bottom.  Firing order is
    immaterial: blocks are disjoint and replacements nonempty, so firing
    one transistor neither places nor unplaces another's top wires on the
    cut, and the first transistor that `feeds` cannot place never fires."""
    cut, t_top, t_bot = d.top_ports, d.t_top, d.t_bot
    feeds, after = geometry.feeds, geometry.after
    fired = 0
    for tid in top_down(d):
        positions = next(feeds(cut, t_top[tid]), None)
        if positions is None:
            return False
        cut = after(cut, positions, t_bot[tid])
        fired += 1
    return fired == len(d.transistors) and geometry.match(cut, d.bottom_ports) is not None


def classify_geometry(d: Diagram) -> str:
    """'planar' | 'annular_not_planar' | 'braided_only' (embeddability of the
    combinatorics, regardless of the annular flag)."""
    if _sweep(d, GEOMETRY["planar"]):
        return "planar"
    if _sweep(d, GEOMETRY["annular"]):
        return "annular_not_planar"
    return "braided_only"


def is_permutation_diagram(d: Diagram) -> bool:
    return not d.transistors and all(c.is_identity() for _, c in d.wires.values())


def classify_kind(d: Diagram) -> str:
    """'permutation' | 'transistor' | 'linear' | 'general' per the unitary-
    diagram definitions (transistor/linear must be planar)."""
    nontrivial = sum(1 for _, c in d.wires.values() if not c.is_identity())
    if not d.transistors and nontrivial == 0:
        return "permutation"
    if len(d.transistors) == 1 and nontrivial == 0 and _sweep(d, GEOMETRY["planar"]):
        return "transistor"
    if not d.transistors and nontrivial == 1 and _sweep(d, GEOMETRY["planar"]):
        return "linear"
    return "general"

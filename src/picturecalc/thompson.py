"""Thompson's groups F < T < V as numbered tree pairs.

A tree is a nested tuple: () is a leaf, an internal node is the tuple of
its n children.  A pair holds a domain forest (drawn at the top of the
bridged diagram), an image forest, and the leaf bijection domain leaf i
-> image leaf perm[i].  The realized map sends the image subdivision onto
the domain subdivision (evaluate_map substitutes the image leaf's digit
prefix by the domain leaf's); this orientation makes the bridge to
diagrams over <x | x=x^n> a homomorphism for top-to-bottom concatenation.

Pairs multiply as their diagrams do, and a pair is reduced through the
bridge, where a caret below same-numbered, order-matched leaves on both
sides is a dipole.  `evaluate_map` reads one evaluation table per pair
object (its reduced pair's image leaf -> domain leaf addresses), built at
the first evaluation and kept on the object, so evaluating one pair at
many points reduces it and walks its forests once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .picture import (
    GEOMETRY,
    Diagram,
    is_reduced,
    multiply,
    reduce,
)
from .coeff import identity, trivial_system
from .presentation import SemigroupPresentation

Tree = tuple
Forest = tuple


@lru_cache(maxsize=16)
def thompson_presentation(arity: int) -> SemigroupPresentation:
    return SemigroupPresentation(("x",), ((("x",), ("x",) * arity),))


@lru_cache(maxsize=16)
def plain_thompson_config(arity: int):
    """(presentation, trivial system, x wire) of <x | x=x^arity>: one set of
    objects per arity, so the diagrams built over it share them."""
    pres = thompson_presentation(arity)
    coeffs = trivial_system(pres.alphabet)
    return pres, coeffs, ("x", identity(coeffs.spec("x")))


def forest_leaves(forest: Forest) -> int:
    n, stack = 0, list(forest)
    while stack:
        t = stack.pop()
        if t:
            stack.extend(t)
        else:
            n += 1
    return n


def leaf_addresses(forest: Forest) -> list[tuple[int, tuple[int, ...]]]:
    """(root index, digit path) of every leaf, left to right."""
    out = []
    for r, t in enumerate(forest):
        stack = [(t, ())]
        while stack:
            tree, addr = stack.pop()
            if tree:
                for i in range(len(tree) - 1, -1, -1):
                    stack.append((tree[i], addr + (i,)))
            else:
                out.append((r, addr))
    return out


def _shape_code(forest: Forest) -> tuple[int, ...]:
    """The child count of every node in preorder, tree after tree: a code of
    linear length from which the forest can be read back."""
    code = []
    stack = list(reversed(forest))
    while stack:
        t = stack.pop()
        code.append(len(t))
        stack.extend(reversed(t))
    return tuple(code)


def _replace(forest: Forest, root: int, addr: tuple[int, ...], sub: Tree) -> Forest:
    path = []
    t = forest[root]
    for i in addr:
        path.append(t)
        t = t[i]
    for node, i in zip(reversed(path), reversed(addr)):
        sub = node[:i] + (sub,) + node[i + 1:]
    return forest[:root] + (sub,) + forest[root + 1:]


@dataclass(frozen=True, eq=False)
class TreePair:
    arity: int
    domain: Forest
    image: Forest
    perm: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be >= 2")
        nd, ni = forest_leaves(self.domain), forest_leaves(self.image)
        if nd != ni or sorted(self.perm) != list(range(nd)):
            raise ValueError("leaf bijection does not match the leaf counts")

    def _flat(self) -> tuple:
        # shape codes determine the forests and compare without deep recursion
        return self.arity, self.perm, _shape_code(self.domain), _shape_code(self.image)

    def __eq__(self, other):
        return self._flat() == other._flat() if isinstance(other, TreePair) else NotImplemented

    def __hash__(self):
        return hash(self._flat())

    @property
    def roots(self) -> int:
        return len(self.domain)

    @cached_property
    def _evaluation(self) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int]:
        """(image leaf address -> address of the domain leaf it is sent to,
        the depth of the deepest image leaf) of the reduced pair; not a
        field, so equality, hashes and reprs are unchanged."""
        tp = reduce_pair(self)
        dom = [a for _, a in leaf_addresses(tp.domain)]
        img = [a for _, a in leaf_addresses(tp.image)]
        return {img[j]: dom[i] for i, j in enumerate(tp.perm)}, max(map(len, img))


def identity_pair(arity: int, roots: int = 1) -> TreePair:
    forest = ((),) * roots
    return TreePair(arity, forest, forest, tuple(range(roots)))


def _caret_starts(forest: Forest) -> list[int]:
    """The leftmost leaf index of every caret, a node whose children are
    all leaves."""
    out, i = [], 0
    stack = list(reversed(forest))
    while stack:
        t = stack.pop()
        if not t:
            i += 1
        elif any(t):
            stack.extend(reversed(t))
        else:
            out.append(i)
            i += len(t)
    return out


def reduce_pair(tp: TreePair) -> TreePair:
    """Cancel matched carets until none is left; tp itself if none does.

    Every cascade of cancellations starts at a caret pair, so a pair with
    none is returned after one scan; any other is reduced as its diagram,
    where a matched caret pair is a dipole."""
    n, perm = tp.arity, tp.perm
    image_carets = set(_caret_starts(tp.image))
    if not any(perm[i] in image_carets and all(perm[i + k] == perm[i] + k for k in range(1, n))
               for i in _caret_starts(tp.domain)):
        return tp
    return diagram_to_tree_pair(reduce(tree_pair_to_diagram(tp)))


def is_reduced_pair(tp: TreePair) -> bool:
    return reduce_pair(tp) is tp


def tp_multiply(a: TreePair, b: TreePair) -> TreePair:
    """Composite pair (a's action after b's), reduced: the product of the
    pairs' diagrams, read back, since the bridge is a homomorphism."""
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    if len(a.image) != len(b.domain):
        raise ValueError("root count mismatch")
    return diagram_to_tree_pair(multiply(tree_pair_to_diagram(a), tree_pair_to_diagram(b)))


def _inverse(perm) -> tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def tp_invert(a: TreePair) -> TreePair:
    return TreePair(a.arity, a.image, a.domain, _inverse(a.perm))


def membership(tp: TreePair) -> str:
    """'F' | 'T_not_F' | 'V_not_T' from the reduced pair's leaf bijection."""
    perm = reduce_pair(tp).perm
    for tag, geometry in (("F", "planar"), ("T_not_F", "annular")):
        if GEOMETRY[geometry].match(tuple(range(len(perm))), perm) is not None:
            return tag
    return "V_not_T"


# -- n-adic rationals and evaluation ------------------------------------------------


MAX_DIGITS = 4300  # CPython's default limit on int -> str conversion


@dataclass(frozen=True)
class NAdic:
    """numerator / base**exponent in [0,1), normalized (base does not divide
    the numerator unless the value is 0).  base**exponent must print: it has
    at most MAX_DIGITS decimal digits."""

    numerator: int
    exponent: int
    base: int = 2

    def __post_init__(self):
        if self.base >= 2 and self.exponent >= MAX_DIGITS / math.log10(self.base):
            raise ValueError(f"{self.base}^{self.exponent} has more than {MAX_DIGITS} digits")
        if self.base < 2 or self.exponent < 0 or not (0 <= self.numerator < self.base ** self.exponent):
            raise ValueError("need 0 <= numerator / base^exponent < 1")
        if self.numerator == 0 and self.exponent != 0:
            raise ValueError("zero is 0 / base^0")
        if self.numerator and self.numerator % self.base == 0:
            raise ValueError("numerator must not be divisible by the base")

    def digits(self, width: int) -> tuple[int, ...]:
        if width < self.exponent:
            raise ValueError("width too small")
        out = []
        v = self.numerator
        for _ in range(self.exponent):
            out.append(v % self.base)
            v //= self.base
        return tuple(reversed(out)) + (0,) * (width - self.exponent)

    def __str__(self):
        return f"{self.numerator}/{self.base}^{self.exponent}"


def nadic(numerator: int, exponent: int, base: int = 2) -> NAdic:
    if base < 2:
        raise ValueError("base must be >= 2")
    if numerator == 0:
        exponent = 0
    while exponent > 0 and numerator % base == 0:
        numerator //= base
        exponent -= 1
    return NAdic(numerator, exponent, base)


def nadic_from_digits(digits, base: int) -> NAdic:
    num = 0
    for d in digits:
        num = num * base + d
    return nadic(num, len(digits), base)


def evaluate_map(tp: TreePair, q: NAdic) -> NAdic:
    """Apply the right-continuous map of the pair: find the image leaf whose
    digit address prefixes q, substitute the matching domain leaf's address."""
    if tp.roots != 1 or len(tp.image) != 1:
        raise ValueError("evaluation needs single-rooted pairs")
    if q.base != tp.arity:
        raise ValueError("base/arity mismatch")
    leaves, depth = tp._evaluation
    ds = q.digits(max(depth, q.exponent))
    for k in range(depth + 1):  # the image leaves are prefix-free and cover [0,1)
        dom = leaves.get(ds[:k])
        if dom is not None:
            return nadic_from_digits(dom + ds[k:], q.base)
    raise AssertionError("image leaves do not cover [0,1)")


# -- bridge to diagrams over <x | x=x^n> --------------------------------------------


def tree_pair_to_diagram(tp: TreePair) -> Diagram:
    """Domain forest above (positive carets), image forest below, mirrored
    (negative carets): domain leaf i and image leaf perm[i] are one wire.
    The carets are hung children first into one set of dicts, so a caret's
    wires exist when it is hung.  The result is reduced iff the pair is."""
    pres, coeffs, x = plain_thompson_config(tp.arity)
    wires = dict.fromkeys(range(len(tp.perm)), x)  # wire i is domain leaf i
    transistors, t_top, t_bot = {}, {}, {}

    def hang(forest, leaf_wires, sign):
        """Hang a caret of direction `sign` for every internal node of
        `forest`, whose leaves are `leaf_wires`; returns the roots' wires."""
        leaves, done = iter(leaf_wires), []
        stack = list(reversed(forest))
        while stack:
            t = stack.pop()
            if type(t) is int:  # the node's t children are hung
                kids = tuple(done[-t:])
                del done[-t:]
                w, c = len(wires), len(transistors)
                wires[w] = x
                transistors[c] = (0, sign)
                t_top[c], t_bot[c] = ((w,), kids) if sign == 1 else (kids, (w,))
                done.append(w)
            elif t:
                stack.append(len(t))
                stack.extend(reversed(t))
            else:
                done.append(next(leaves))
        return done

    top = hang(tp.domain, range(len(tp.perm)), 1)
    bottom = hang(tp.image, _inverse(tp.perm), -1)
    return Diagram(pres, coeffs, wires, transistors, t_top, t_bot, top, bottom)


def _is_thompson_presentation(pres) -> int | None:
    if len(pres.alphabet) == 1 and len(pres.relations) == 1:
        lhs, rhs = pres.relations[0]
        x = pres.alphabet[0]
        if lhs == (x,) and len(rhs) >= 2 and set(rhs) == {x}:
            return len(rhs)
    return None


def diagram_to_tree_pair(d: Diagram) -> TreePair:
    """Inverse bridge for reduced diagrams with trivial coefficients over
    <x | x=x^n>.

    Over these presentations a negative transistor directly above a
    positive one always forms a dipole, so a reduced diagram is literally
    a domain forest over a permutation over an inverted image forest, and
    the pair can be read off structurally.
    """
    n = _is_thompson_presentation(d.pres)
    if n is None:
        raise ValueError("diagram is not over a <x | x=x^n> presentation")
    if any(not c.is_identity() for _, c in d.wires.values()):
        raise ValueError("diagram has nontrivial coefficients")
    if not is_reduced(d):
        raise ValueError("diagram must be reduced")

    positive = {t for t, (_, s) in d.transistors.items() if s == 1}
    negative = {t for t, (_, s) in d.transistors.items() if s == -1}

    def grow(ports, end, tag, carets, children):
        """The forest hanging from `ports`: a wire whose `end` site is
        `tag` on one of `carets` goes on into that transistor's
        `children` wires; any other wire is a leaf.  Returns the forest,
        the carets met and the leaf wires, left to right."""
        built: list[Tree] = []
        seen = set()
        leaf_wires: list[int] = []
        stack = [(w, None) for w in reversed(ports)]
        while stack:
            w, t = stack.pop()
            if t is not None:  # t's children are built
                k = len(children[t])
                node = tuple(built[-k:])
                del built[-k:]
                built.append(node)
                continue
            site = end[w]
            if site[0] == tag and site[1] in carets:
                seen.add(site[1])
                stack.append((w, site[1]))
                stack.extend([(c, None) for c in reversed(children[site[1]])])
            else:
                leaf_wires.append(w)
                built.append(())
        return tuple(built), seen, leaf_wires

    domain, seen_pos, dom_leaf_wires = grow(d.top_ports, d.wire_bot, "TT", positive, d.t_bot)
    image, seen_neg, img_leaf_wires = grow(d.bottom_ports, d.wire_top, "TB", negative, d.t_top)
    if seen_pos != positive or seen_neg != negative:
        raise ValueError("diagram does not have the forest-permutation-forest shape")
    if sorted(dom_leaf_wires) != sorted(img_leaf_wires):
        raise ValueError("forest leaves do not line up")
    img_index = {w: j for j, w in enumerate(img_leaf_wires)}
    perm = tuple(img_index[w] for w in dom_leaf_wires)
    return TreePair(n, domain, image, perm)

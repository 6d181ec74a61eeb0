"""Universal embedding of diagram groups into picture products over <x | x=x.x>.

psi works by local substitution.  Every wire of the reduced source becomes
an x wire with the identity coefficient, and each transistor over a
relation u=v is replaced by a block: an inverted ladder (a left comb of
|u|-1 negative transistors) merges its top wires into a single wire
labelled by the relation's free-group generator (signed by the transistor
direction), and a ladder of |v|-1 positive transistors splits that wire
into its bottom wires.  A block over u=v is an (x^|u|, x^|v|)-diagram; a
one-letter side leaves its source wire in place as the labelled wire.

The label-forgetting projection kills all coefficients, reduces (the
previously blocked dipoles collapse) and bridges to a tree pair, landing
in F/T/V according to the source geometry.  The quotient map pi never
builds psi: every dipole of the labelled image is one of the killed image,
so by confluence reduce(kill(reduce(psi_unreduced(d)))) equals
reduce(kill(psi_unreduced(d))), and pi hangs the unlabelled blocks in the
same substitution pass, cancelling each comb transistor against the
transistor directly above its feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count

from .coeff import CoefficientSystem, FreeSpec, GroupElement, coeff_multiply, free_element
from .coeff import identity, make_system
from .picture import Diagram, length, reduce, replace, top_down
from .presentation import SemigroupPresentation
from .thompson import TreePair, diagram_to_tree_pair, membership, plain_thompson_config

QPRES, _TRIVQ, _PLAIN_X = plain_thompson_config(2)  # _PLAIN_X: an x wire over _TRIVQ


@lru_cache(maxsize=16)
def free_system(kappa: int) -> CoefficientSystem:
    """{x: F_kappa} with basis R1..Rkappa, one generator per source relation."""
    if kappa < 1:
        raise ValueError("need at least one relation")
    return make_system(QPRES.alphabet, {"x": FreeSpec(tuple(f"R{i}" for i in range(1, kappa + 1)))})


class _Combs:
    """A diagram over QPRES under construction: x wires and ladder
    transistors, numbered in creation order."""

    def __init__(self, coeffs: CoefficientSystem):
        self.coeffs = coeffs
        self.one = identity(coeffs.spec("x"))
        self.wires: dict[int, tuple[str, GroupElement]] = {}
        self.transistors: dict[int, tuple[int, int]] = {}
        self.t_top: dict[int, tuple[int, ...]] = {}
        self.t_bot: dict[int, tuple[int, ...]] = {}
        self.labels: dict[tuple[int, int], GroupElement] = {}  # by oriented relation

    def wire(self) -> int:
        w = len(self.wires)
        self.wires[w] = ("x", self.one)
        return w

    def _transistor(self, direction: int, top: tuple[int, ...], bot: tuple[int, ...]) -> None:
        t = len(self.transistors)
        self.transistors[t] = (0, direction)
        self.t_top[t], self.t_bot[t] = top, bot

    def block(self, tops: list[int], label: GroupElement, n_bot: int) -> list[int]:
        """gamma(len(tops)-1)^-1 . eps(x, label) . gamma(n_bot-1) hung below
        the wires `tops`; returns its bottom wires, left to right.  A single
        top wire is the middle wire itself and gets `label` after its own
        coefficient; with n_bot = 1 the middle wire is the bottom wire."""
        middle = tops[0]
        for w in tops[1:]:  # inverse left comb: merge the leftmost pair
            merged = self.wire()
            self._transistor(-1, (middle, w), (merged,))
            middle = merged
        upper = self.wires[middle][1]
        self.wires[middle] = ("x", label if upper.is_identity() else coeff_multiply(upper, label))
        rights = []
        for _ in range(n_bot - 1):  # left comb: split the leftmost wire
            left, right = self.wire(), self.wire()
            self._transistor(1, (middle,), (left, right))
            rights.append(right)
            middle = left
        return [middle] + rights[::-1]

    def hang(self, tops: list[int], rel: tuple[int, int], n_bot: int) -> list[int]:
        """The block of the oriented source relation rel = (index,
        direction) below the wires `tops`: R{index+1}^direction on its
        middle wire."""
        label = self.labels.get(rel)
        if label is None:
            label = self.labels[rel] = free_element(self.one.spec, [(f"R{rel[0] + 1}", rel[1])])
        return self.block(tops, label, n_bot)

    def diagram(self, top_ports, bottom_ports, annular: bool = False) -> Diagram:
        return Diagram(QPRES, self.coeffs, self.wires, self.transistors, self.t_top,
                       self.t_bot, top_ports, bottom_ports, annular)


class _PlainCombs:
    """`_Combs`'s blocks without labels, over the trivial system, kept
    reduced: a comb transistor that would form a dipole with the transistor
    directly above its feed (a merge of a split's two bottom wires in
    order, a split of a merge's bottom wire) cancels that transistor
    instead.  A cancellation leaves the upper transistor's top wires on the
    frontier and joins no two transistors, so no other dipole appears."""

    def __init__(self):
        self.ids = count()  # wire and transistor ids, from one counter
        self.transistors: dict[int, tuple[int, int]] = {}
        self.t_top: dict[int, tuple[int, ...]] = {}
        self.t_bot: dict[int, tuple[int, ...]] = {}
        self.made: dict[int, tuple[int, int]] = {}  # wire -> (t, i): bottom wire i of t

    def wire(self) -> int:
        return next(self.ids)

    def _cancel(self, t: int) -> tuple[int, ...]:
        del self.transistors[t], self.t_bot[t]
        return self.t_top.pop(t)

    def hang(self, tops: list[int], rel: tuple[int, int], n_bot: int) -> list[int]:
        """`_Combs.hang` without its label (a plain block does not record
        rel), each comb transistor hung or cancelled; returns the bottom
        wires, left to right."""
        made, transistors, t_top, t_bot, ids = (self.made, self.transistors, self.t_top,
                                                self.t_bot, self.ids)
        middle = tops[0]
        for w in tops[1:]:
            site = made.get(middle)
            if site is not None and site[1] == 0 and made.get(w) == (site[0], 1):
                middle, = self._cancel(site[0])  # a split's two bottom wires, in order
            else:
                t, merged = next(ids), next(ids)
                transistors[t], t_top[t], t_bot[t] = (0, -1), (middle, w), (merged,)
                made[merged] = (t, 0)
                middle = merged
        rights = []
        for _ in range(n_bot - 1):
            site = made.get(middle)
            if site is not None and len(t_bot[site[0]]) == 1:
                middle, right = self._cancel(site[0])  # a merge's bottom wire
            else:
                t, left, right = next(ids), next(ids), next(ids)
                transistors[t], t_top[t], t_bot[t] = (0, 1), (middle,), (left, right)
                made[left], made[right] = (t, 0), (t, 1)
                middle = left
            rights.append(right)
        return [middle] + rights[::-1]

    def diagram(self, top_ports, bottom_ports, annular: bool = False) -> Diagram:
        wires = dict.fromkeys(chain(top_ports, *self.t_bot.values()), _PLAIN_X)
        return Diagram(QPRES, _TRIVQ, wires, self.transistors, self.t_top,
                       self.t_bot, top_ports, bottom_ports, annular)


def gamma(n: int, coeffs: CoefficientSystem | None = None) -> Diagram:
    """Left comb: an (x, x^(n+1))-diagram with n positive transistors, each
    glued under the leftmost wire of the previous stage."""
    if n < 0:
        raise ValueError("n must be >= 0")
    combs = _Combs(coeffs if coeffs is not None else _TRIVQ)
    top = combs.wire()
    return combs.diagram([top], combs.block([top], combs.one, n + 1))


def make_block(left_pad: int, top_len: int, rel_index: int, sign: int,
               bot_len: int, right_pad: int, coeffs: CoefficientSystem) -> Diagram:
    """eps(x^left) + gamma(top_len-1)^-1 . eps(x, R^sign) . gamma(bot_len-1)
    + eps(x^right): the image of one transistor."""
    if top_len < 1 or bot_len < 1:
        raise ValueError("relation sides are nonempty")
    combs = _Combs(coeffs)
    left = [combs.wire() for _ in range(left_pad)]
    tops = [combs.wire() for _ in range(top_len)]
    right = [combs.wire() for _ in range(right_pad)]
    bots = combs.hang(tops, (rel_index, sign), bot_len)
    return combs.diagram(left + tops + right, left + bots + right)


def _substitute(d: Diagram, combs) -> Diagram:
    """d's image by substitution in one pass over reduce(d): every wire
    becomes an x wire of `combs`, and each transistor, taken in `top_down`
    order (its top wires already placed), becomes `combs`'s block of its
    oriented relation below them."""
    if any(not c.is_identity() for _, c in d.wires.values()):
        raise ValueError("the embedding applies to diagrams with trivial coefficients")
    dr = reduce(d)
    image = {w: combs.wire() for w in dr.top_ports}
    for t in top_down(dr):
        bots = combs.hang([image[w] for w in dr.t_top[t]], dr.transistors[t],
                          len(dr.t_bot[t]))
        image.update(zip(dr.t_bot[t], bots))
    return combs.diagram([image[w] for w in dr.top_ports],
                         [image[w] for w in dr.bottom_ports], d.annular)


def psi_unreduced(d: Diagram) -> Diagram:
    """The image of d before dipole reduction: each transistor of reduce(d)
    becomes its block, R{rel+1}^direction on the middle wire.  Where
    one-letter sides chain several blocks onto one wire, the labels
    multiply upper first."""
    return _substitute(d, _Combs(free_system(max(1, len(d.pres.relations)))))


def psi(d: Diagram) -> Diagram:
    """Image of a plain diagram in the picture product over (Q, F_kappa),
    kappa the number of relations (at least 1)."""
    return reduce(psi_unreduced(d))


def kill_coefficients(d: Diagram) -> Diagram:
    """Forget all second coordinates: the same shape over the trivial system."""
    if d.pres != QPRES:
        raise ValueError("projection targets diagrams over <x | x=x.x>")
    return replace(d, coeffs=_TRIVQ, wires=dict.fromkeys(d.wires, _PLAIN_X), _reduced=None)


def project_to_thompson(d_img: Diagram) -> tuple[TreePair, str]:
    """Kill the coefficients, reduce over <x | x=x.x>, bridge to a tree pair;
    returns the pair and its F / T_not_F / V_not_T membership tag."""
    return _tagged_pair(reduce(kill_coefficients(d_img)))


def _tagged_pair(plain: Diagram) -> tuple[TreePair, str]:
    tp = diagram_to_tree_pair(plain)
    return tp, membership(tp)


def pi(d: Diagram) -> tuple[TreePair, str]:
    """The short-exact-sequence quotient map, equal to
    project_to_thompson(psi(d)) without building psi: the unlabelled
    blocks of d, hung by `_PlainCombs` and so already reduced, bridged to
    a tree pair (kill first, by confluence: see the module docstring)."""
    return _tagged_pair(_substitute(d, _PlainCombs()))


@dataclass(frozen=True)
class LengthBoundReport:
    source_length: int
    image_length: int
    lower_ok: bool
    upper_constant_used: int
    upper_ok: bool
    paper_constant: int
    paper_constant_ok: bool


def block_constant(pres: SemigroupPresentation) -> int:
    """Sharp uniform block-length bound: max over relations of |u|+|v|-1."""
    return max(len(l) + len(r) - 1 for l, r in pres.relations)


def side_constant(pres: SemigroupPresentation) -> int:
    """K = the maximal relation side length."""
    return max(max(len(l), len(r)) for l, r in pres.relations)


def check_length_bounds(d: Diagram) -> LengthBoundReport:
    """source length vs image length: lower bound asserted, c(P) upper bound
    asserted, and the looser K+1 constant reported without failing."""
    n = length(d)
    n_img = length(psi(d))
    c = block_constant(d.pres)
    k1 = side_constant(d.pres) + 1
    return LengthBoundReport(
        source_length=n,
        image_length=n_img,
        lower_ok=n_img >= n,
        upper_constant_used=c,
        upper_ok=n_img <= c * n,
        paper_constant=k1,
        paper_constant_ok=n_img <= k1 * n,
    )

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
in F/T/V according to the source geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coeff import CoefficientSystem, FreeSpec, GroupElement, coeff_multiply, free_element
from .coeff import identity, make_system, trivial_system
from .picture import Diagram, length, reduce, replace, top_down
from .presentation import SemigroupPresentation
from .thompson import TreePair, diagram_to_tree_pair, membership, thompson_presentation

QPRES = thompson_presentation(2)


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

    def diagram(self, top_ports, bottom_ports, annular: bool = False) -> Diagram:
        return Diagram(QPRES, self.coeffs, self.wires, self.transistors, self.t_top,
                       self.t_bot, top_ports, bottom_ports, annular)


def gamma(n: int, coeffs: CoefficientSystem | None = None) -> Diagram:
    """Left comb: an (x, x^(n+1))-diagram with n positive transistors, each
    glued under the leftmost wire of the previous stage."""
    if n < 0:
        raise ValueError("n must be >= 0")
    combs = _Combs(coeffs if coeffs is not None else trivial_system(QPRES.alphabet))
    top = combs.wire()
    return combs.diagram([top], combs.block([top], combs.one, n + 1))


def make_block(left_pad: int, top_len: int, rel_index: int, sign: int,
               bot_len: int, right_pad: int, coeffs: CoefficientSystem) -> Diagram:
    """eps(x^left) + gamma(top_len-1)^-1 . eps(x, R^sign) . gamma(bot_len-1)
    + eps(x^right): the image of one transistor."""
    if top_len < 1 or bot_len < 1:
        raise ValueError("relation sides are nonempty")
    combs = _Combs(coeffs)
    label = free_element(coeffs.spec("x"), [(f"R{rel_index + 1}", sign)])
    left = [combs.wire() for _ in range(left_pad)]
    tops = [combs.wire() for _ in range(top_len)]
    right = [combs.wire() for _ in range(right_pad)]
    return combs.diagram(left + tops + right, left + combs.block(tops, label, bot_len) + right)


def psi_unreduced(d: Diagram) -> Diagram:
    """The image of d before dipole reduction, by substitution in one pass
    over reduce(d): every wire becomes an x wire with the identity
    coefficient, and each transistor, taken in `top_down` order (its top
    wires already placed), becomes its block below them, R{rel+1}^direction
    on the middle wire.  Where one-letter sides chain several blocks onto
    one wire, the labels multiply upper first."""
    if any(not c.is_identity() for _, c in d.wires.values()):
        raise ValueError("the embedding applies to diagrams with trivial coefficients")
    dr = reduce(d)
    combs = _Combs(free_system(max(1, len(d.pres.relations))))
    labels = {rel: free_element(combs.one.spec, [(f"R{rel[0] + 1}", rel[1])])
              for rel in set(dr.transistors.values())}
    image = {w: combs.wire() for w in dr.top_ports}
    for t in top_down(dr):
        bots = combs.block([image[w] for w in dr.t_top[t]], labels[dr.transistors[t]],
                           len(dr.t_bot[t]))
        image.update(zip(dr.t_bot[t], bots))
    return combs.diagram([image[w] for w in dr.top_ports],
                         [image[w] for w in dr.bottom_ports], d.annular)


def psi(d: Diagram) -> Diagram:
    """Image of a plain diagram in the picture product over (Q, F_kappa),
    kappa the number of relations (at least 1)."""
    return reduce(psi_unreduced(d))


def kill_coefficients(d: Diagram) -> Diagram:
    """Forget all second coordinates: the same shape over the trivial system."""
    if d.pres != QPRES:
        raise ValueError("projection targets diagrams over <x | x=x.x>")
    triv = trivial_system(QPRES.alphabet)
    one = identity(triv.spec("x"))
    wires = {w: (label, one) for w, (label, _) in d.wires.items()}
    return replace(d, coeffs=triv, wires=wires, _reduced=None)


def project_to_thompson(d_img: Diagram) -> tuple[TreePair, str]:
    """Kill the coefficients, reduce over <x | x=x.x>, bridge to a tree pair;
    returns the pair and its F / T_not_F / V_not_T membership tag."""
    plain = reduce(kill_coefficients(d_img))
    tp = diagram_to_tree_pair(plain)
    return tp, membership(tp)


def pi(d: Diagram) -> tuple[TreePair, str]:
    """The short-exact-sequence quotient map: project after embedding."""
    return project_to_thompson(psi(d))


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

"""Universal embedding of diagram groups into picture products over <x | x=x.x>.

Each transistor of a source diagram is replaced by a block: left padding,
an inverted ladder, a single wire labelled by the relation's free-group
generator (signed by the transistor direction), a ladder, right padding.
Permutation diagrams just get their wires relabelled by x.  The ladder
indices are one less than the relation side lengths so that a block over
a relation u=v is an (x^|u|, x^|v|)-diagram and images concatenate.

The label-forgetting projection kills all coefficients, reduces (the
previously blocked dipoles collapse) and bridges to a tree pair, landing
in F/T/V according to the source geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import CoefficientSystem, FreeSpec, free_element, identity, make_system, trivial_system
from .picture import (
    Diagram,
    atom_permutation,
    atom_transistor,
    classify_kind,
    concat,
    eps,
    factorize,
    invert,
    length,
    reduce,
    rel_sides,
    replace,
    sum_diagrams,
)
from .presentation import SemigroupPresentation
from .thompson import TreePair, diagram_to_tree_pair, membership, thompson_presentation

QPRES = thompson_presentation(2)


def free_system(kappa: int) -> CoefficientSystem:
    """{x: F_kappa} with basis R1..Rkappa, one generator per source relation."""
    if kappa < 1:
        raise ValueError("need at least one relation")
    return make_system(QPRES.alphabet, {"x": FreeSpec(tuple(f"R{i}" for i in range(1, kappa + 1)))})


def gamma(n: int, coeffs: CoefficientSystem | None = None) -> Diagram:
    """Left comb: an (x, x^(n+1))-diagram with n positive transistors, each
    glued under the leftmost wire of the previous stage."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if coeffs is None:
        coeffs = trivial_system(QPRES.alphabet)
    d = eps(QPRES, coeffs, "x")
    for i in range(n):
        step = atom_transistor(QPRES, coeffs, (), 0, 1, ("x",) * i)
        d = concat(d, step)
    return d


def make_block(left_pad: int, top_len: int, rel_index: int, sign: int,
               bot_len: int, right_pad: int, coeffs: CoefficientSystem) -> Diagram:
    """eps(x^left) + gamma(top_len-1)^-1 . eps(x, R^sign) . gamma(bot_len-1)
    + eps(x^right): the image of one transistor."""
    if top_len < 1 or bot_len < 1:
        raise ValueError("relation sides are nonempty")
    spec = coeffs.spec("x")
    label = free_element(spec, [(f"R{rel_index + 1}", sign)])
    middle = concat(invert(gamma(top_len - 1, coeffs)),
                    concat(eps(QPRES, coeffs, [("x", label)]),
                           gamma(bot_len - 1, coeffs)))
    if left_pad:
        middle = sum_diagrams(eps(QPRES, coeffs, ("x",) * left_pad), middle)
    if right_pad:
        middle = sum_diagrams(middle, eps(QPRES, coeffs, ("x",) * right_pad))
    return middle


def _perm_of(p: Diagram) -> tuple[int, ...]:
    return tuple(p.wire_bot[w][1] for w in p.top_ports)


def _psi_perm(p: Diagram, coeffs: CoefficientSystem) -> Diagram:
    return atom_permutation(QPRES, coeffs, ("x",) * len(p.top_ports), _perm_of(p))


def _psi_transistor_atom(u: Diagram, coeffs: CoefficientSystem) -> Diagram:
    (tid, (rel_index, direction)), = u.transistors.items()
    top_side, bot_side = rel_sides(u.pres, rel_index, direction)
    # the atom's transistor block starts where its first top wire sits
    positions = [u.wire_top[w][1] for w in u.t_top[tid]]
    left = min(positions)
    right = len(u.top_ports) - left - len(top_side)
    return make_block(left, len(top_side), rel_index, direction, len(bot_side), right, coeffs)


def psi_unreduced(d: Diagram, coeffs: CoefficientSystem | None = None) -> Diagram:
    """The raw concatenation of the factor images (no dipole reduction)."""
    if any(not c.is_identity() for _, c in d.wires.values()):
        raise ValueError("the embedding applies to diagrams with trivial coefficients")
    if coeffs is None:
        coeffs = free_system(max(1, len(d.pres.relations)))
    dr = reduce(d)
    lead, factors = factorize(dr)
    out = _psi_perm(lead, coeffs)
    for u, p in factors:
        kind = classify_kind(u)
        if kind != "transistor":
            raise AssertionError("source factors must be transistor atoms")
        out = concat(out, _psi_transistor_atom(u, coeffs))
        out = concat(out, _psi_perm(p, coeffs))
    return out if out.annular == d.annular else replace(out, annular=d.annular)


def psi(d: Diagram, coeffs: CoefficientSystem | None = None) -> Diagram:
    """Image of a plain diagram in the picture product over (Q, F_kappa)."""
    return reduce(psi_unreduced(d, coeffs))


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

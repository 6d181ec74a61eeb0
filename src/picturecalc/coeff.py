"""Coefficient groups labelling wires, and graph-product word calculus.

Wire labels in picture products carry an element of a per-letter group
G_s.  Three kinds are supported: trivial, finite cyclic of order k, and
free on a named basis.  Elements are kept in normal form (residue in
[0, k) for cyclic, freely reduced word for free), so equality is plain
value equality.  Identities and cyclic elements are interned in a capped
table per spec object, and a product or inverse with the identity returns
the other operand; equal specs keep separate tables and free words are
built fresh, so compare elements with ``==``, never ``is``.

The second half implements words in a graph product of such groups: the
cancellation / amalgamation / shuffling moves, a canonical shuffle normal
form (lexicographically least reduced word under vertex declaration order
then element serialization), and head/support extraction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import ParseError
from .presentation import MAX_WORD_LENGTH, _split, read_int

# --- group specs and elements ------------------------------------------------


_ELEMENTS_MAX = 4096  # interned elements per spec; later ones are built fresh


class _Interning:
    """A spec's table of interned elements, payload -> element, and its
    identity, made at first use; not fields, so reprs, equality and hashes
    of specs are unchanged."""

    @cached_property
    def _elements(self) -> dict:
        return {}

    @cached_property
    def _one(self) -> GroupElement:
        return _intern(self, 0 if isinstance(self, CyclicSpec) else ())


@dataclass(frozen=True)
class TrivialSpec(_Interning):
    order = 1  # class attributes, not fields: spec reprs feed every key

    def __str__(self):
        return "trivial"


_TRIVIAL = TrivialSpec()  # equal to every TrivialSpec; shared, so its identity is made once


@dataclass(frozen=True)
class CyclicSpec(_Interning):
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("cyclic order must be >= 2")

    def __str__(self):
        return f"cyclic:{self.order}"


@dataclass(frozen=True)
class FreeSpec(_Interning):
    generators: tuple[str, ...]
    order = None  # infinite

    def __post_init__(self):
        if not self.generators or len(set(self.generators)) != len(self.generators):
            raise ValueError("free spec needs distinct, nonempty generator names")

    def __str__(self):
        return f"free:{len(self.generators)}"


GroupSpec = TrivialSpec | CyclicSpec | FreeSpec


@dataclass(frozen=True)
class GroupElement:
    """Normal-form element: () for trivial, residue for cyclic, reduced word
    of (generator, sign) pairs for free."""

    spec: GroupSpec
    payload: object

    def is_identity(self) -> bool:
        # normal forms make () and 0 the only falsy payloads
        return not self.payload

    def __str__(self) -> str:
        return coeff_serialize(self)


def _intern(spec: GroupSpec, payload) -> GroupElement:
    """The spec's element with this normal-form payload, from its table
    while the table has room."""
    table = spec._elements
    e = table.get(payload)
    if e is None:
        e = GroupElement(spec, payload)
        if len(table) < _ELEMENTS_MAX:
            table[payload] = e
    return e


def identity(spec: GroupSpec) -> GroupElement:
    return spec._one


def cyclic_element(spec: CyclicSpec, residue: int) -> GroupElement:
    return _intern(spec, residue % spec.order)


def free_element(spec: FreeSpec, word: Iterable[tuple[str, int]]) -> GroupElement:
    """Build a free-group element, reducing the given word."""
    reduced: list[tuple[str, int]] = []
    for gen, sign in word:
        if gen not in spec.generators:
            raise ValueError(f"unknown generator {gen!r}")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if reduced and reduced[-1] == (gen, -sign):
            reduced.pop()
        else:
            reduced.append((gen, sign))
    return GroupElement(spec, tuple(reduced))


def coeff_multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    spec = a.spec
    if spec is not b.spec and spec != b.spec:
        raise ValueError("coefficient spec mismatch")
    if not b.payload:  # normal forms: the identity's payload is the only falsy one
        return a
    if not a.payload:
        return b
    if isinstance(spec, CyclicSpec):
        return _intern(spec, (a.payload + b.payload) % spec.order)
    return free_element(spec, a.payload + b.payload)


def coeff_invert(a: GroupElement) -> GroupElement:
    spec = a.spec
    if not a.payload:
        return a
    if isinstance(spec, CyclicSpec):
        return _intern(spec, -a.payload % spec.order)
    return GroupElement(spec, tuple((g, -s) for g, s in reversed(a.payload)))


def coeff_serialize(a: GroupElement) -> str:
    if a.is_identity():
        return "1"
    if isinstance(a.spec, CyclicSpec):
        return "t" if a.payload == 1 else f"t^{a.payload}"
    return ".".join(g if s == 1 else f"{g}^-1" for g, s in a.payload)


def coeff_parse(spec: GroupSpec, text: str) -> GroupElement:
    """Parse `1` or '.'-joined gen(^int)? atoms into a normal-form element.
    Atoms are read as a word's are (`presentation._read_word`), whitespace
    beside them ignored; a power is any nonzero number (`read_int`)."""
    text = text.strip()
    if text == "1":
        return identity(spec)
    if isinstance(spec, TrivialSpec):
        raise ParseError(f"trivial group has no element {text!r}")
    cyclic = isinstance(spec, CyclicSpec)
    gens, atoms = ("t",) if cyclic else spec.generators, []
    for atom, _ in _split(text, 0, "."):
        name, caret, exp = atom.partition("^")
        gen = name.rstrip()
        try:
            power = read_int(exp) if caret else 1
        except ParseError:
            power = 0
        if not power or not gen:
            raise ParseError(f"malformed token {atom!r}" if caret else "empty token")
        if gen not in gens:
            raise ParseError(f"unknown generator {gen!r}" + (" (cyclic generator is 't')" if cyclic else ""))
        atoms.append((gen, power))
    if cyclic:
        return cyclic_element(spec, sum(power for _, power in atoms))
    if sum(abs(power) for _, power in atoms) > MAX_WORD_LENGTH:  # before a power expands
        raise ParseError(f"coefficient longer than {MAX_WORD_LENGTH} letters")
    return free_element(spec, [(gen, 1 if power > 0 else -1)
                               for gen, power in atoms for _ in range(abs(power))])


def nontrivial_elements(spec: GroupSpec) -> list[GroupElement]:
    """All non-identity elements; raises for free specs (infinite)."""
    if spec.order is None:
        raise ValueError("free coefficient group is infinite")
    return [_intern(spec, r) for r in range(1, spec.order)]


def spec_parse(text: str) -> GroupSpec:
    """Parse `trivial`, `cyclic:k`, or `free:r` (generators R1..Rr)."""
    text = text.strip()
    if text == "trivial":
        return _TRIVIAL
    head, _, arg = text.partition(":")
    head = head.rstrip()
    if head not in ("cyclic", "free"):
        raise ParseError(f"unknown group spec {text!r}")
    try:
        k = read_int(arg)
        if head == "cyclic":
            return CyclicSpec(k)
    except ValueError:  # no number, or a cyclic order below 2
        raise ParseError(f"bad {head} spec {text!r}") from None
    if not 1 <= k <= MAX_WORD_LENGTH:
        raise ParseError(f"free rank must be between 1 and {MAX_WORD_LENGTH}")
    return FreeSpec(tuple(f"R{i}" for i in range(1, k + 1)))


@dataclass(frozen=True)
class CoefficientSystem:
    """One group spec per alphabet letter."""

    assignments: tuple[tuple[str, GroupSpec], ...]

    def spec(self, letter: str) -> GroupSpec:
        for name, s in self.assignments:
            if name == letter:
                return s
        raise KeyError(letter)

    def letters(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.assignments)

    def is_all_trivial(self) -> bool:
        return all(s.order == 1 for _, s in self.assignments)


def trivial_system(alphabet: Iterable[str]) -> CoefficientSystem:
    return CoefficientSystem(tuple((a, _TRIVIAL) for a in alphabet))


def make_system(alphabet: Iterable[str], overrides: dict[str, GroupSpec] | None = None) -> CoefficientSystem:
    over = overrides or {}
    unknown = set(over) - set(alphabet)
    if unknown:
        raise ValueError(f"coefficient assignment for undeclared letter(s) {sorted(unknown)}")
    return CoefficientSystem(tuple((a, over.get(a, _TRIVIAL)) for a in alphabet))


# --- graph product word calculus ----------------------------------------------


@dataclass(frozen=True)
class ProductGraph:
    """Simplicial graph with a group spec per vertex."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    specs: tuple[tuple[str, GroupSpec], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        for u, v in self.edges:
            if u == v:
                raise ValueError("graph must be irreflexive")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u},{v}) off the vertex set")

    def adjacent(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    @cached_property
    def _spec_of(self) -> dict[str, GroupSpec]:
        """vertex -> its group spec; not a field, so ==, hash and repr ignore it."""
        return dict(self.specs)

    def spec(self, v: str) -> GroupSpec:
        return self._spec_of[v]

    def vertex_index(self, v: str) -> int:
        return self.vertices.index(v)


def product_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str]],
                  specs: dict[str, GroupSpec]) -> ProductGraph:
    vs = tuple(vertices)
    es = frozenset(tuple(sorted(e)) for e in edges)
    return ProductGraph(vs, es, tuple((v, specs[v]) for v in vs))


Syllable = tuple[str, GroupElement]


@dataclass(frozen=True)
class GraphProductWord:
    graph: ProductGraph
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        spec_of = self.graph._spec_of
        for v, g in self.syllables:
            spec = spec_of.get(v)
            if spec is None:
                raise ValueError(f"syllable vertex {v!r} absent from graph")
            if g.spec is not spec and g.spec != spec:
                raise ValueError(f"syllable at {v!r} uses the wrong group spec")

    def __len__(self) -> int:
        return len(self.syllables)


def _pile(graph: ProductGraph, syllables: Iterable[Syllable]) -> list[Syllable]:
    """Left-to-right piling; the result admits no shortening move."""
    out: list[Syllable] = []
    for v, g in syllables:
        if g.is_identity():
            continue
        k = len(out) - 1
        target = -1
        while k >= 0:
            u = out[k][0]
            if u == v:
                target = k
                break
            if not graph.adjacent(u, v):
                break
            k -= 1
        if target >= 0:
            merged = coeff_multiply(out[target][1], g)
            if merged.is_identity():
                del out[target]
            else:
                out[target] = (v, merged)
        else:
            out.append((v, g))
    return out


def _syllable_key(graph: ProductGraph, s: Syllable) -> tuple[int, str]:
    return (graph.vertex_index(s[0]), coeff_serialize(s[1]))


def _blockers(graph: ProductGraph, sylls: list[Syllable]) -> list[list[int]]:
    """blockers[i] = indices j < i that must stay before syllable i."""
    out = []
    for i, (v, _) in enumerate(sylls):
        deps = [j for j in range(i) if sylls[j][0] == v or not graph.adjacent(sylls[j][0], v)]
        out.append(deps)
    return out


def _canonical_order(graph: ProductGraph, sylls: list[Syllable]) -> list[Syllable]:
    """Lex-least linearization of the shuffle dependency DAG."""
    n = len(sylls)
    deps = _blockers(graph, sylls)
    remaining = [len(d) for d in deps]
    succs: list[list[int]] = [[] for _ in range(n)]
    for i, d in enumerate(deps):
        for j in d:
            succs[j].append(i)
    heap = [(_syllable_key(graph, sylls[i]), i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(heap)
    order: list[Syllable] = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(sylls[i])
        for j in succs[i]:
            remaining[j] -= 1
            if remaining[j] == 0:
                heapq.heappush(heap, (_syllable_key(graph, sylls[j]), j))
    return order


def gp_reduce(w: GraphProductWord) -> GraphProductWord:
    """Canonical reduced form: pile, then lex-least shuffle."""
    piled = _pile(w.graph, w.syllables)
    return GraphProductWord(w.graph, tuple(_canonical_order(w.graph, piled)))


def gp_equal(w1: GraphProductWord, w2: GraphProductWord) -> bool:
    if w1.graph != w2.graph:
        raise ValueError("graph product structure mismatch")
    return gp_reduce(w1).syllables == gp_reduce(w2).syllables


def gp_multiply(w1: GraphProductWord, w2: GraphProductWord) -> GraphProductWord:
    if w1.graph != w2.graph:
        raise ValueError("graph product structure mismatch")
    return gp_reduce(GraphProductWord(w1.graph, w1.syllables + w2.syllables))


def gp_invert(w: GraphProductWord) -> GraphProductWord:
    inv = tuple((v, coeff_invert(g)) for v, g in reversed(w.syllables))
    return gp_reduce(GraphProductWord(w.graph, inv))


def gp_head_support(w: GraphProductWord) -> tuple[frozenset[Syllable], frozenset[str]]:
    """Head = syllables first in some shuffle-equivalent reduced word;
    support = vertices of the reduced form."""
    red = gp_reduce(w)
    sylls = list(red.syllables)
    deps = _blockers(red.graph, sylls)
    head = frozenset(sylls[i] for i in range(len(sylls)) if not deps[i])
    support = frozenset(v for v, _ in sylls)
    return head, support

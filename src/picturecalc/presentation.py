"""Semigroup presentations P = <Sigma | R> and basewords.

A presentation is an ordered alphabet together with an ordered list of
oriented relations (lhs, rhs).  Two conventions are enforced throughout:
a relation never has equal sides, and if (u, v) is stored then (v, u) is
not.  The positive direction of a transistor is lhs -> rhs.

Words are tuples of letter names.  The textual grammar is

    presentation := '<' ident (',' ident)* '|' rel (',' rel)* '>'
    rel          := word '=' word
    word         := atom ('.' atom)*
    atom         := ident ('^' uint)?

with whitespace insignificant.  Bare juxtaposition inside an atom (``xx``
for ``x.x``) is accepted only when every alphabet letter is a single
character, so multi-character letters like ``x1`` stay unambiguous.
Serialization always emits the canonical '.'-separated form.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ParseError

Word = tuple[str, ...]

RESERVED = set("<>|=,.^")
MAX_WORD_LENGTH = 1_000_000  # letters in one parsed word, checked before a power expands


def _letter_ok(name: str) -> bool:
    return bool(name) and not any(c.isspace() or c in RESERVED for c in name)


@dataclass(frozen=True)
class SemigroupPresentation:
    alphabet: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]

    def __str__(self) -> str:
        return serialize_presentation(self)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def word_str(w: Word) -> str:
    return ".".join(w)


def validate_presentation(p: SemigroupPresentation) -> list[Violation]:
    """Return all invariant violations (empty list iff the presentation is valid)."""
    out: list[Violation] = []
    seen: set[str] = set()
    for a in p.alphabet:
        if not _letter_ok(a):
            out.append(Violation("bad_letter", repr(a)))
        if a in seen:
            out.append(Violation("duplicate_letter", a))
        seen.add(a)
    declared = set(p.alphabet)
    oriented: set[tuple[Word, Word]] = set()
    for i, (lhs, rhs) in enumerate(p.relations):
        for side in (lhs, rhs):
            if len(side) == 0:
                out.append(Violation("empty_word", f"relation {i}"))
            for letter in side:
                if letter not in declared:
                    out.append(Violation("undeclared_letter", f"{letter} in relation {i}"))
        if lhs == rhs:
            out.append(Violation("identity_relation", f"relation {i}: {word_str(lhs)}={word_str(rhs)}"))
        if (rhs, lhs) in oriented:
            out.append(Violation("swapped_pair", f"relation {i}: {word_str(lhs)}={word_str(rhs)}"))
        if (lhs, rhs) in oriented:
            out.append(Violation("duplicate_relation", f"relation {i}"))
        oriented.add((lhs, rhs))
    return out


# --- parsing ---------------------------------------------------------------

def _split(text: str, at: int, sep: str) -> Iterator[tuple[str, int]]:
    """Each sep-field of text, stripped, with its position (text begins at position at)."""
    for field in text.split(sep):
        yield field.strip(), at + len(field) - len(field.lstrip())
        at += len(field) + len(sep)


def read_int(text: str) -> int:
    """The one number rule of user text: an optional '-' and decimal digits
    (isdecimal, not isdigit, whose '²' int() rejects: '٣' is 3, and '²', '+3'
    and '1_0' are no numbers), whitespace around them ignored; callers check ranges."""
    field = text.strip()
    if not field.removeprefix("-").isdecimal():
        raise ParseError(f"expected a number, found {field!r}")
    try:
        return int(field)
    except ValueError:  # int() reads at most 4,300 digits
        raise ParseError("number longer than 4300 digits") from None


def _expand_atom(token: str, at: int, alphabet: tuple[str, ...]) -> list[str]:
    if token in alphabet:
        return [token]
    if all(len(a) == 1 for a in alphabet):
        letters = list(token)
        for c in letters:
            if c not in alphabet:
                raise ParseError(f"undeclared letter {c!r}", at)
        return letters
    raise ParseError(f"undeclared letter {token!r}", at)


def _read_word(text: str, at: int, alphabet: tuple[str, ...]) -> Word:
    """word := atom ('.' atom)*, atom := letters ('^' uint)?; text starts at position at."""
    letters: list[str] = []
    for atom, pos in _split(text, at, "."):
        name, caret, exp = atom.partition("^")
        if not name.rstrip():
            raise ParseError("expected a letter", pos)
        expanded = _expand_atom(name.rstrip(), pos, alphabet)
        power = 1
        if caret:
            digits = exp.strip()
            pos += len(atom) - len(digits)  # atom is stripped, so digits end it
            try:
                power = read_int(digits)
            except ParseError:  # no number; or digits past int()'s 4,300, longer than any word allowed
                power = MAX_WORD_LENGTH + 1 if digits.isdecimal() else 0
            if power < 1:
                raise ParseError("power must be a positive integer", pos)
        if len(letters) + len(expanded) * power > MAX_WORD_LENGTH:
            raise ParseError(f"word longer than {MAX_WORD_LENGTH} letters", pos)
        letters.extend(expanded * power)
    return tuple(letters)


def parse_presentation(text: str) -> SemigroupPresentation:
    body = text.strip()
    at = len(text) - len(text.lstrip())  # position of '<'
    if not (body.startswith("<") and body.endswith(">")):
        raise ParseError("expected '<' ... '>' around the whole text", at)
    letters, bar, rels = body[1:-1].partition("|")
    if not bar:
        raise ParseError("expected '|'", at + len(body) - 1)

    alphabet: list[str] = []
    for name, pos in _split(letters, at + 1, ","):
        if not _letter_ok(name):
            raise ParseError(f"bad letter name {name!r}", pos)
        if name in alphabet:
            raise ParseError(f"duplicate letter {name!r}", pos)
        alphabet.append(name)
    alpha = tuple(alphabet)

    relations: list[tuple[Word, Word]] = []
    for rel, pos in _split(rels, at + len(letters) + 2, ","):
        lhs, eq, rhs = rel.partition("=")
        if not eq:
            raise ParseError("expected '='", pos + len(rel))
        relations.append((_read_word(lhs, pos, alpha), _read_word(rhs, pos + len(lhs) + 1, alpha)))

    pres = SemigroupPresentation(alpha, tuple(relations))
    bad = validate_presentation(pres)
    if bad:
        raise ParseError("; ".join(str(v) for v in bad))
    return pres


def serialize_presentation(p: SemigroupPresentation) -> str:
    rels = ", ".join(f"{word_str(l)}={word_str(r)}" for l, r in p.relations)
    return f"<{','.join(p.alphabet)} | {rels}>"


def parse_word(text: str, p: SemigroupPresentation) -> Word:
    """Parse a baseword in the presentation's alphabet (same atom grammar)."""
    return _read_word(text, 0, p.alphabet)


# --- builtin fixtures -------------------------------------------------------

def builtin_presentation(name: str, params: list[int] | tuple[int, ...] = ()) -> tuple[SemigroupPresentation, Word]:
    """Named presentations from the example zoo, with their basewords.

    thompson            -> (<x | x=x.x>, x)
    higman(n, r)        -> (<x | x=x^n>, x^r)
    quasi_auto(n, r, p) -> (<x,a | x=x^n.a>, x^r.a^p)
    houghton(n, p)      -> (<a,r,x1..xn | r=x1...xn, xi=a.xi>, r.a^p)
    commuting_abc       -> (<a,b,c | ab=ba, ac=ca, bc=cb>, abc)
    """
    params = tuple(params)

    def need(k: int):
        if len(params) != k:
            raise ValueError(f"builtin {name!r} takes {k} parameter(s), got {len(params)}")

    def fits(*lengths: int):
        # checked before any tuple is built
        if max(lengths) > MAX_WORD_LENGTH:
            raise ValueError(f"builtin {name!r}: a relation side or the baseword "
                             f"would be longer than {MAX_WORD_LENGTH} letters")

    if name == "thompson":
        need(0)
        pres = SemigroupPresentation(("x",), ((("x",), ("x", "x")),))
        return pres, ("x",)
    if name == "higman":
        need(2)
        n, r = params
        if n < 2 or r < 1:
            raise ValueError("higman requires n >= 2, r >= 1")
        fits(n, r)
        pres = SemigroupPresentation(("x",), ((("x",), ("x",) * n),))
        return pres, ("x",) * r
    if name == "quasi_auto":
        need(3)
        n, r, p = params
        if n < 2 or r < 1 or p < 0:
            raise ValueError("quasi_auto requires n >= 2, r >= 1, p >= 0")
        fits(n + 1, r + p)
        pres = SemigroupPresentation(("x", "a"), ((("x",), ("x",) * n + ("a",)),))
        return pres, ("x",) * r + ("a",) * p
    if name == "houghton":
        need(2)
        n, p = params
        if n < 1 or p < 0:
            raise ValueError("houghton requires n >= 1, p >= 0")
        fits(n, 1 + p)
        xs = tuple(f"x{i}" for i in range(1, n + 1))
        rels = [(("r",), xs)]
        rels.extend(((x,), ("a", x)) for x in xs)
        pres = SemigroupPresentation(("a", "r") + xs, tuple(rels))
        return pres, ("r",) + ("a",) * p
    if name == "commuting_abc":
        need(0)
        pres = SemigroupPresentation(
            ("a", "b", "c"),
            (
                (("a", "b"), ("b", "a")),
                (("a", "c"), ("c", "a")),
                (("b", "c"), ("c", "b")),
            ),
        )
        return pres, ("a", "b", "c")
    raise ValueError(f"unknown builtin presentation {name!r}")


BUILTIN_NAMES = ("thompson", "higman", "quasi_auto", "houghton", "commuting_abc")

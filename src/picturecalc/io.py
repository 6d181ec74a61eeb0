"""File formats: diagram JSON, ball JSON, tree-pair text, run configuration.

Diagram files record the presentation text, the coefficient system, and
per-wire attachments; canonical export renumbers wires and transistors by
the canonical traversal, so equal diagrams export byte-identically.

`diagram_text` and `ball_text` write a diagram's and a ball's file text
straight from the structures, as the text of
json.dumps(obj, indent=2, sort_keys=True) of the file's object.  The
`verify` report, a few KB, is written by that json.dumps call itself.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .coeff import coeff_parse, coeff_serialize, make_system, spec_parse
from .errors import ParseError
from .picture import Diagram, _traversal
from .presentation import parse_presentation, read_int, serialize_presentation
from .thompson import Forest, TreePair


def _list_text(items: list[str], depth: int) -> str:
    """A JSON list, `depth` levels deep, of items already written one level deeper."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


@lru_cache(maxsize=64)
def _diagram_head(pres, coeffs, annular: bool, depth: int) -> str:
    """A diagram's text up to its transistor list: the same for every
    diagram of one configuration."""
    nl = "\n" + "  " * (depth + 1)
    specs = [f'{nl}  {_quote(letter)}: {_quote(str(spec))}'
             for letter, spec in sorted(coeffs.assignments)]
    coeff_text = "{" + ",".join(specs) + nl + "}" if specs else "{}"
    return (f'{{{nl}"annular": {"true" if annular else "false"},{nl}"coeffs": {coeff_text},'
            f'{nl}"presentation": {_quote(serialize_presentation(pres))},{nl}"transistors": ')


# the texts of diagram file parts, keyed by what they are written from:
# (site, depth), (rel, dir, depth) or (label, coefficient payload, depth)
_TEXTS: dict[tuple, str] = {}
_TEXTS_MAX = 4096


def _site_text(site, depth: int) -> str:
    """A renumbered wire end at `depth` + 3: ("FT" | "FB", index) or
    ("TT" | "TB", transistor, index)."""
    nl, nl4 = "\n" + "  " * (depth + 3), "\n" + "  " * (depth + 4)
    if len(site) == 2:
        where = '"frame_top"' if site[0] == "FT" else '"frame_bottom"'
        return f'{{{nl4}"index": {site[1]},{nl4}"site": {where}{nl}}}'
    side, nl5 = ("top" if site[0] == "TT" else "bottom"), nl4 + "  "
    return (f'{{{nl4}"index": {site[2]},{nl4}"site": {{{nl5}"side": "{side}",'
            f'{nl5}"transistor": {site[1]}{nl4}}}{nl}}}')


def _memo(key: tuple, make, *args) -> str:
    """make(*args), kept under `key` while the table has room; callers look
    the key up in `_TEXTS` first."""
    text = make(*args)
    if len(_TEXTS) < _TEXTS_MAX:
        _TEXTS[key] = text
    return text


def diagram_text(d: Diagram, depth: int = 0) -> str:
    """The text of d's diagram file, json.dumps(obj, indent=2, sort_keys=True)
    of {"annular", "coeffs", "presentation", "transistors": [{"dir", "rel"}],
    "wires": [{"bottom", "coeff", "label", "top"}]}, as an item `depth`
    levels deep: every line after the first indented by 2 * depth more
    spaces.  Wires and transistors in canonical traversal order, transistor
    sites renumbered by it."""
    _, wids, tids = _traversal(d)
    torder = {t: i for i, t in enumerate(tids)}
    nl0, nl1, nl2, nl3 = ["\n" + "  " * (depth + k) for k in range(4)]
    texts, transistors, wires = _TEXTS, [], []
    for t in tids:
        rel, direction = d.transistors[t]
        key = (rel, direction, depth)
        transistors.append(texts.get(key) or _memo(key, _transistor_text, rel, direction, nl2, nl3))
    for w in wids:
        label, c = d.wires[w]
        ends = []
        for site in (d.wire_bot[w], d.wire_top[w]):
            if len(site) == 3:
                site = (site[0], torder[site[1]], site[2])
            key = (site, depth)
            ends.append(texts.get(key) or _memo(key, _site_text, site, depth))
        key = (label, c.payload, depth)
        middle = texts.get(key) or _memo(key, _wire_middle, label, c, nl3)
        wires.append(f'{{{nl3}"bottom": {ends[0]}{middle}{ends[1]}{nl2}}}')
    return (_diagram_head(d.pres, d.coeffs, d.annular, depth) + _list_text(transistors, depth + 1)
            + f',{nl1}"wires": ' + _list_text(wires, depth + 1) + nl0 + "}")


def _transistor_text(rel: int, direction: int, nl2: str, nl3: str) -> str:
    return f'{{{nl3}"dir": {direction},{nl3}"rel": {rel}{nl2}}}'


def _wire_middle(label: str, c, nl3: str) -> str:
    """A wire's text between its bottom and top sites: its coefficient text
    depends on the coefficient's payload alone (see `picture._wire_text`)."""
    return f',{nl3}"coeff": {_quote(coeff_serialize(c))},{nl3}"label": {_quote(label)},{nl3}"top": '


def diagram_to_json(d: Diagram) -> dict:
    """d's diagram file object."""
    return json.loads(diagram_text(d))


def ball_text(g) -> str:
    """The text of the ball file of g, a `qmgraph.BallGraph`:
    json.dumps(obj, indent=2, sort_keys=True) of
    {"edges": [{"a", "b", "kind", "witness"}, ...] sorted by (a, b),
    "geometry", "radius", "vertices": [{"depth", "key", "length"}, ...]}.
    A linear witness is {"delta", "letter"}, a transistor witness
    {"direction", "positions", "relation"}; each witness's text is written
    once per ball."""
    parts = ['{\n  "edges": ']
    put = parts.append
    tails: dict[tuple, str] = {}
    sep = "[\n    "
    for (i, j), (kind, witness) in sorted(g.edges.items()):
        key = witness if kind == "transistor" else (witness[0], witness[1].payload)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _edge_tail(kind, witness)
        put(f'{sep}{{\n      "a": {i},\n      "b": {j}')
        put(tail)
        sep = ",\n    "
    put("\n  ]" if g.edges else "[]")
    put(f',\n  "geometry": {_quote(g.geometry)},\n  "radius": {g.radius},\n  "vertices": ')
    sep = "[\n    "
    for v in g.vertices:
        put(f'{sep}{{\n      "depth": {v.depth},\n      "key": {_quote(v.key)},'
            f'\n      "length": {v.length}\n    }}')
        sep = ",\n    "
    put("\n  ]\n}" if g.vertices else "[]\n}")
    return "".join(parts)


def _edge_tail(kind: str, witness) -> str:
    """An edge's text after its ends."""
    if kind == "linear":
        letter, delta = witness
        body = (f'"delta": {_quote(coeff_serialize(delta))},'
                f'\n        "letter": {_quote(letter)}')
    else:
        rel_index, direction, positions = witness
        pos = ",\n          ".join([str(p) for p in positions])
        pos = f"[\n          {pos}\n        ]" if positions else "[]"
        body = (f'"direction": {direction},\n        "positions": {pos},'
                f'\n        "relation": {rel_index}')
    return f',\n      "kind": {_quote(kind)},\n      "witness": {{\n        {body}\n      }}\n    }}'


def _site_from_json(obj, w: int, n_transistors: int):
    if not isinstance(obj, dict):
        raise ParseError(f"wire {w}: bad site {obj!r}")
    site, index = obj.get("site"), obj.get("index")
    if type(index) is not int or index < 0:
        raise ParseError(f"bad site index in {obj!r}")
    if site == "frame_top":
        return ("FT", index)
    if site == "frame_bottom":
        return ("FB", index)
    if isinstance(site, dict) and "transistor" in site:
        t = site["transistor"]
        if type(t) is not int or not 0 <= t < n_transistors:
            raise ParseError(f"wire {w}: transistor id {t!r} names no transistor of the file")
        side = site.get("side")
        if side not in ("top", "bottom"):
            raise ParseError(f"wire {w}: transistor side {side!r} is neither top nor bottom")
        return ("TT" if side == "top" else "TB", t, index)
    raise ParseError(f"bad site {site!r}")


def diagram_from_json(obj: dict) -> Diagram:
    try:
        if not isinstance(obj["presentation"], str):
            raise ParseError("presentation must be a string")
        pres = parse_presentation(obj["presentation"])
        specs = obj["coeffs"]
        if not isinstance(specs, dict) or not all(isinstance(v, str) for v in specs.values()):
            raise ParseError("coeffs must map letters to group spec strings")
        annular = obj.get("annular", False)
        if type(annular) is not bool:
            raise ParseError("annular must be true or false")
        overrides = {letter: spec_parse(spec) for letter, spec in specs.items()}
        try:  # in alphabet order, as `--coeff` builds it
            coeffs = make_system(pres.alphabet, overrides)
        except ValueError as e:
            raise ParseError(str(e)) from None
        wires = {}
        tops: dict[str, dict[int, int]] = {"FT": {}, "FB": {}}
        t_top: dict[int, dict[int, int]] = {}
        t_bot: dict[int, dict[int, int]] = {}
        n_transistors = len(obj["transistors"])
        for w, wire in enumerate(obj["wires"]):
            label, coeff = wire["label"], wire["coeff"]
            if not isinstance(label, str) or not isinstance(coeff, str):
                raise ParseError(f"wire {w}: label and coeff must be strings")
            spec = coeffs.spec(label)
            wires[w] = (label, coeff_parse(spec, coeff))
            bot = _site_from_json(wire["bottom"], w, n_transistors)
            top = _site_from_json(wire["top"], w, n_transistors)
            if bot[0] == "FB":
                tops["FB"][bot[1]] = w
            elif bot[0] == "TT":
                t_top.setdefault(bot[1], {})[bot[2]] = w
            else:
                raise ParseError("a wire's bottom endpoint cannot sit on the frame top")
            if top[0] == "FT":
                tops["FT"][top[1]] = w
            elif top[0] == "TB":
                t_bot.setdefault(top[1], {})[top[2]] = w
            else:
                raise ParseError("a wire's top endpoint cannot sit on the frame bottom")
        transistors = {}
        for t, tr in enumerate(obj["transistors"]):
            rel, direction = tr["rel"], tr["dir"]
            if type(rel) is not int or type(direction) is not int:
                raise ParseError(f"transistor {t}: rel and dir must be integers")
            transistors[t] = (rel, direction)

        def seal(slots: dict[int, int], what: str):
            if sorted(slots) != list(range(len(slots))):
                raise ParseError(f"non-contiguous indices on {what}")
            return tuple(slots[i] for i in range(len(slots)))

        d = Diagram(
            pres, coeffs, wires, transistors,
            {t: seal(t_top.get(t, {}), f"transistor {t} top") for t in transistors},
            {t: seal(t_bot.get(t, {}), f"transistor {t} bottom") for t in transistors},
            seal(tops["FT"], "frame top"),
            seal(tops["FB"], "frame bottom"),
            annular,
        )
    except (KeyError, TypeError, IndexError) as e:
        raise ParseError(f"malformed diagram file: {e!r}") from None
    try:
        d.validate()
    except ValueError as e:
        raise ParseError(f"invalid diagram: {e}") from None
    return d


def dump_diagram(d: Diagram, path: str) -> None:
    with open(path, "w") as f:
        f.write(diagram_text(d) + "\n")


def load_diagram(path: str) -> Diagram:
    with open(path) as f:
        return diagram_from_json(json.load(f))


# -- tree pair text -------------------------------------------------------------------


def tree_to_text(tree) -> str:
    out = []
    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        else:  # a node opens, lists its children and closes; a leaf is "."
            stack.extend([")", *reversed(t), "("] if t else ["."])
    return "".join(out)


def forest_to_text(forest: Forest) -> str:
    return "+".join(tree_to_text(t) for t in forest)


def tree_pair_to_text(tp: TreePair) -> str:
    perm = ",".join(str(i) for i in tp.perm)
    return f"{forest_to_text(tp.domain)}|{forest_to_text(tp.image)}@perm={perm}"


def _parse_tree(text: str, pos: int, arity: int):
    n = len(text)
    if pos >= n:
        raise ParseError("unexpected end of tree", pos)
    open_nodes: list[list] = []  # the children read so far of each unclosed '('
    while True:
        c = text[pos]
        if c == "(":
            open_nodes.append([])
        elif c == ".":
            node = ()
        elif c == ")" and open_nodes:
            children = open_nodes.pop()
            if len(children) != arity:
                raise ParseError(f"node has {len(children)} children, arity is {arity}", pos)
            node = tuple(children)
        else:
            raise ParseError(f"expected '(' or '.', found {c!r}", pos)
        pos += 1
        if c != "(":
            if not open_nodes:
                return node, pos
            open_nodes[-1].append(node)
        if pos >= n:
            raise ParseError("unbalanced parentheses", pos)


def _parse_forest(text: str, arity: int) -> Forest:
    trees = []
    for part in text.split("+"):
        tree, end = _parse_tree(part, 0, arity)
        if end != len(part):
            raise ParseError("trailing characters after tree", end)
        trees.append(tree)
    return tuple(trees)


def tree_pair_from_text(text: str, arity: int = 2) -> TreePair:
    body, sep, permpart = text.partition("@perm=")
    if not sep:
        raise ParseError("missing @perm= part")
    dom_text, sep2, img_text = body.partition("|")
    if not sep2:
        raise ParseError("missing '|' between the trees")
    domain = _parse_forest(dom_text.strip(), arity)
    image = _parse_forest(img_text.strip(), arity)
    try:
        perm = tuple(read_int(x) for x in permpart.split(","))
    except ParseError:
        raise ParseError(f"bad permutation {permpart!r}") from None
    try:
        return TreePair(arity, domain, image, perm)
    except ValueError as e:
        raise ParseError(str(e)) from None

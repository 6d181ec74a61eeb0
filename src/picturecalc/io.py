"""File formats: diagram JSON, tree-pair text, run configuration.

Diagram files record the presentation text, the coefficient system, and
per-wire attachments; canonical export renumbers wires and transistors by
the canonical traversal, so equal diagrams export byte-identically.
"""

from __future__ import annotations

import json

from .coeff import CoefficientSystem, coeff_parse, coeff_serialize, spec_parse
from .errors import ParseError
from .picture import Diagram, _traversal
from .presentation import parse_presentation, serialize_presentation
from .thompson import Forest, TreePair


def _site_json(site) -> dict:
    if site[0] == "FT":
        return {"site": "frame_top", "index": site[1]}
    if site[0] == "FB":
        return {"site": "frame_bottom", "index": site[1]}
    kind = "top" if site[0] == "TT" else "bottom"
    return {"site": {"transistor": site[1], "side": kind}, "index": site[2]}


def diagram_to_json(d: Diagram) -> dict:
    worder, torder = _traversal(d)
    wids = sorted(d.wires, key=lambda w: worder[w])
    tids = sorted(d.transistors, key=lambda t: torder[t])

    def renum_site(site):
        if site[0] in ("TT", "TB"):
            return (site[0], torder[site[1]], site[2])
        return site

    return {
        "presentation": serialize_presentation(d.pres),
        "coeffs": {letter: str(spec) for letter, spec in d.coeffs.assignments},
        "annular": d.annular,
        "wires": [
            {
                "label": d.wires[w][0],
                "coeff": coeff_serialize(d.wires[w][1]),
                "bottom": _site_json(renum_site(d.wire_bot[w])),
                "top": _site_json(renum_site(d.wire_top[w])),
            }
            for w in wids
        ],
        "transistors": [
            {"rel": d.transistors[t][0], "dir": d.transistors[t][1]}
            for t in tids
        ],
    }


def _site_from_json(obj, which: str):
    site, index = obj.get("site"), obj.get("index")
    if not isinstance(index, int) or index < 0:
        raise ParseError(f"bad site index in {obj!r}")
    if site == "frame_top":
        return ("FT", index)
    if site == "frame_bottom":
        return ("FB", index)
    if isinstance(site, dict) and "transistor" in site:
        kind = "TT" if site.get("side") == "top" else "TB"
        return (kind, site["transistor"], index)
    raise ParseError(f"bad site {site!r}")


def diagram_from_json(obj: dict) -> Diagram:
    try:
        pres = parse_presentation(obj["presentation"])
        specs = obj["coeffs"]
        if not isinstance(specs, dict) or not all(isinstance(v, str) for v in specs.values()):
            raise ParseError("coeffs must map letters to group spec strings")
        coeffs = CoefficientSystem(tuple(
            (letter, spec_parse(spec)) for letter, spec in specs.items()))
        wires = {}
        tops: dict[str, dict[int, int]] = {"FT": {}, "FB": {}}
        t_top: dict[int, dict[int, int]] = {}
        t_bot: dict[int, dict[int, int]] = {}
        for w, wire in enumerate(obj["wires"]):
            label, coeff = wire["label"], wire["coeff"]
            if not isinstance(label, str) or not isinstance(coeff, str):
                raise ParseError(f"wire {w}: label and coeff must be strings")
            spec = coeffs.spec(label)
            wires[w] = (label, coeff_parse(spec, coeff))
            bot = _site_from_json(wire["bottom"], "bottom")
            top = _site_from_json(wire["top"], "top")
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
            bool(obj.get("annular", False)),
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
        json.dump(diagram_to_json(d), f, indent=2, sort_keys=True)
        f.write("\n")


def load_diagram(path: str) -> Diagram:
    with open(path) as f:
        return diagram_from_json(json.load(f))


# -- tree pair text -------------------------------------------------------------------


def tree_to_text(tree) -> str:
    if tree == ():
        return "."
    return "(" + "".join(tree_to_text(c) for c in tree) + ")"


def forest_to_text(forest: Forest) -> str:
    return "+".join(tree_to_text(t) for t in forest)


def tree_pair_to_text(tp: TreePair) -> str:
    perm = ",".join(str(i) for i in tp.perm)
    return f"{forest_to_text(tp.domain)}|{forest_to_text(tp.image)}@perm={perm}"


def _parse_tree(text: str, pos: int, arity: int):
    if pos >= len(text):
        raise ParseError("unexpected end of tree", pos)
    if text[pos] == ".":
        return (), pos + 1
    if text[pos] != "(":
        raise ParseError(f"expected '(' or '.', found {text[pos]!r}", pos)
    pos += 1
    children = []
    while pos < len(text) and text[pos] != ")":
        child, pos = _parse_tree(text, pos, arity)
        children.append(child)
    if pos >= len(text):
        raise ParseError("unbalanced parentheses", pos)
    if len(children) != arity:
        raise ParseError(f"node has {len(children)} children, arity is {arity}", pos)
    return tuple(children), pos + 1


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
        perm = tuple(int(x) for x in permpart.strip().split(","))
    except ValueError:
        raise ParseError(f"bad permutation {permpart!r}") from None
    return TreePair(arity, domain, image, perm)

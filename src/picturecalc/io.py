"""File formats: diagram JSON, tree-pair text, run configuration.

Diagram files record the presentation text, the coefficient system, and
per-wire attachments; canonical export renumbers wires and transistors by
the canonical traversal, so equal diagrams export byte-identically.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .coeff import coeff_parse, coeff_serialize, make_system, spec_parse
from .errors import ParseError
from .picture import Diagram, _traversal
from .presentation import parse_presentation, read_int, serialize_presentation
from .thompson import Forest, TreePair


def _site_json(site) -> dict:
    if site[0] == "FT":
        return {"site": "frame_top", "index": site[1]}
    if site[0] == "FB":
        return {"site": "frame_bottom", "index": site[1]}
    kind = "top" if site[0] == "TT" else "bottom"
    return {"site": {"transistor": site[1], "side": kind}, "index": site[2]}


def diagram_to_json(d: Diagram) -> dict:
    _, wids, tids = _traversal(d)
    torder = {t: i for i, t in enumerate(tids)}

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


def json_text(obj) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) for data of the
    plain types str, int, float, bool, None, list, tuple and str-keyed dict
    (anything else raises TypeError), from one loop rather than json's
    pure-Python indenting encoder.  The pieces it joins are shared: per depth one opening, separating and
    closing string, and per distinct key or string one quoted text."""
    parts: list[str] = []
    put = parts.append
    levels: list[tuple[str, ...]] = []  # per depth: "[\n  ", "{\n  ", ",\n  ", "\n]", "\n}"
    quoted: dict[str, str] = {}
    keys: dict[str, str] = {}
    stack: list = []  # per open container: (item iterator, is a dict)
    value = obj
    while True:
        opened = False  # a container's first item follows its opening text, no separator
        cls = type(value)
        if cls is str:
            text = quoted.get(value)
            if text is None:
                text = quoted[value] = encode_basestring_ascii(value)
            put(text)
        elif cls is int:
            put(int.__repr__(value))
        elif cls is dict or cls is list or cls is tuple:
            is_dict = cls is dict
            if not value:
                put("{}" if is_dict else "[]")
            else:
                depth = len(stack)
                if depth == len(levels):
                    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
                    levels.append(("[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}"))
                put(levels[depth][is_dict])
                stack.append((iter(sorted(value.items()) if is_dict else value), is_dict))
                opened = True
        elif value is None or value is True or value is False:
            put(_JSON_CONSTANTS[value])
        elif cls is float:
            put("NaN" if value != value else _JSON_INFINITIES.get(value) or float.__repr__(value))
        else:
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
        while stack:  # move to the next item, closing the containers that are done
            items, is_dict = stack[-1]
            value = next(items, _END)
            if value is not _END:
                if not opened:
                    put(levels[len(stack) - 1][2])
                break
            stack.pop()
            put(levels[len(stack)][3 + is_dict])
        else:
            return "".join(parts)
        if is_dict:
            key, value = value
            text = keys.get(key)
            if text is None:
                text = keys[key] = encode_basestring_ascii(key) + ": "
            put(text)


_END = object()
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def dump_diagram(d: Diagram, path: str) -> None:
    with open(path, "w") as f:
        f.write(json_text(diagram_to_json(d)) + "\n")


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

"""Batch front end.

Subcommands: reduce, multiply, embed, project, thompson eval, ball,
verify, enumerate.  Exit codes: 0 success / all verifications pass,
1 a verification found a counterexample, 2 input error.  All outputs are
deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .coeff import make_system, spec_parse
from .errors import CompositionError, EnumerationError, ParseError
from .io import (
    ball_text,
    diagram_text,
    load_diagram,
    tree_pair_from_text,
    tree_pair_to_text,
)
from .moves import GEOMETRIES, BallConfig, enumerate_reduced
from .picture import eps, length, multiply, reduce
from .presentation import BUILTIN_NAMES, builtin_presentation, parse_presentation, parse_word, read_int
from .qmgraph import (
    ball,
    condition_plus_check,
    hyperplanes,
    hyperplanes_report,
    pins_report,
    rotative_stab_probe,
    to_dot,
    verify_qm_axioms,
)
from .thompson import evaluate_map, nadic


def _add_presentation_args(p: argparse.ArgumentParser):
    p.add_argument("--builtin", help="name or name:p1,p2 (one of %s)" % ",".join(BUILTIN_NAMES))
    p.add_argument("--presentation", help="file containing a presentation <...|...>")


def _add_config_args(p: argparse.ArgumentParser):
    _add_presentation_args(p)
    p.add_argument("--word", help="baseword (defaults to the builtin's)")
    p.add_argument("--coeff", action="append", default=[],
                   metavar="letter=trivial|cyclic:k|free:r")
    p.add_argument("--geometry", choices=GEOMETRIES, default="braided")
    p.add_argument("--max-width", type=int, default=12)


def _resolve_presentation(args) -> tuple:
    """The configured presentation and its builtin baseword (None for a file)."""
    if args.builtin:
        name, _, params = args.builtin.partition(":")
        plist = [read_int(x) for x in params.split(",")] if params else []
        return builtin_presentation(name.strip(), plist)
    if args.presentation:
        with open(args.presentation) as f:
            return parse_presentation(f.read()), None
    raise ParseError("need --builtin or --presentation")


def _resolve_config(args) -> tuple:
    pres, word = _resolve_presentation(args)
    if args.word:
        word = parse_word(args.word, pres)
    if word is None:
        raise ParseError("need --word when loading a presentation from a file")
    overrides = {}
    for item in args.coeff:
        letter, _, spec = item.partition("=")
        if not spec:
            raise ParseError(f"bad --coeff {item!r}")
        overrides[letter.strip()] = spec_parse(spec)
    coeffs = make_system(pres.alphabet, overrides)
    return pres, coeffs, word


def _emit(text: str, path: str | None):
    # the newline is written on its own: `text` can be tens of megabytes
    if path:
        with open(path, "w") as f:
            f.write(text)
            f.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


def _emit_diagram(d, path: str | None) -> int:
    _emit(diagram_text(d), path)
    print(f"length {length(d)}")
    return 0


def cmd_reduce(args) -> int:
    return _emit_diagram(reduce(load_diagram(args.infile)), args.out)


def cmd_multiply(args) -> int:
    return _emit_diagram(multiply(load_diagram(args.infile), load_diagram(args.infile2)),
                         args.out)


def cmd_embed(args) -> int:
    from .embed import psi

    pres, _ = _resolve_presentation(args)
    d = load_diagram(args.infile)
    if d.pres != pres:
        raise ParseError("input diagram is not over the configured presentation")
    return _emit_diagram(psi(d), args.out)


def cmd_project(args) -> int:
    from .embed import QPRES, pi, project_to_thompson

    d = load_diagram(args.infile)
    if d.pres == QPRES:
        tp, tag = project_to_thompson(d)
    else:
        tp, tag = pi(d)
    print(tree_pair_to_text(tp))
    print(f"membership {tag}")
    return 0


def cmd_thompson_eval(args) -> int:
    tp = tree_pair_from_text(args.pair, args.arity)
    num, _, rest = args.point.partition("/")
    base_s, _, exp_s = rest.partition("^")
    try:
        k, base, m = read_int(num), read_int(base_s), read_int(exp_s)
    except ParseError:
        raise ParseError(f"bad point {args.point!r}; expected k/n^m") from None
    if base != args.arity:
        raise ParseError("point base must equal the pair's arity")
    q = nadic(k, m, base)
    print(str(evaluate_map(tp, q)))
    return 0


def _ball(args):
    """The configured ball and its baseword."""
    pres, coeffs, word = _resolve_config(args)
    cfg = BallConfig(pres, coeffs, args.geometry, args.max_width)
    return ball(eps(pres, coeffs, word), args.radius, cfg), word


def cmd_ball(args) -> int:
    g, _ = _ball(args)
    _emit(ball_text(g), args.out)
    if args.dot:
        with open(args.dot, "w") as f:
            f.write(to_dot(g) + "\n")
    print(f"vertices {len(g.vertices)} edges {len(g.edges)}")
    return 0


def cmd_verify(args) -> int:
    g, word = _ball(args)
    # first, so that a bad --m-max or --budget stops the run before the verifiers
    plus = condition_plus_check(g.cfg.pres, g.cfg.coeffs, word, args.m_max, args.budget)
    reports = [verify_qm_axioms(g), pins_report(g), hyperplanes_report(g), plus]
    plus_ok = reports[-1].details.get("holds_within_bounds", False)
    if plus_ok:
        linear_interior = [J for J in hyperplanes(g)
                           if J.kind == "linear" and J.interior]
        if linear_interior:
            reports.append(rotative_stab_probe(g, linear_interior[0], plus_verified=True))
    payload = {r.name: dataclasses.asdict(r) for r in reports}
    payload["ball"] = {"vertices": len(g.vertices), "edges": len(g.edges)}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    for r in reports:
        print(r.summary())
    return 0 if all(r.passed for r in reports) else 1


def cmd_enumerate(args) -> int:
    pres, coeffs, word = _resolve_config(args)
    out = enumerate_reduced(pres, coeffs, word, args.budget, args.geometry,
                            args.max_width)
    items = ",\n  ".join([diagram_text(d, 1) for d in out])
    _emit(f"[\n  {items}\n]" if out else "[]", args.out)
    print(f"count {len(out)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="picturecalc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a diagram file to normal form")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("multiply", help="reduce the concatenation of two diagrams")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in2", dest="infile2", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_multiply)

    p = sub.add_parser("embed", help="apply the universal embedding")
    _add_presentation_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("project", help="project to a Thompson tree pair")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("thompson", help="tree pair utilities")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    pe = tsub.add_parser("eval", help="evaluate a pair at an n-adic point")
    pe.add_argument("--pair", required=True, help="dom|img@perm=... text")
    pe.add_argument("--point", required=True, help="k/n^m")
    pe.add_argument("--arity", type=int, default=2)
    pe.set_defaults(fn=cmd_thompson_eval)

    p = sub.add_parser("ball", help="explore a finite ball of X")
    _add_config_args(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("verify", help="run the quasi-median verification suite")
    _add_config_args(p)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--m-max", dest="m_max", type=int, default=3)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate reduced (w,w)-diagrams")
    _add_config_args(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enumerate)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, CompositionError, EnumerationError, OSError,
            json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

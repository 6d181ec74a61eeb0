import json

import pytest

from picturecalc.cli import main
from picturecalc.coeff import CyclicSpec, make_system, trivial_system
from picturecalc.errors import ParseError
from picturecalc.io import (
    diagram_from_json,
    diagram_to_json,
    dump_diagram,
    load_diagram,
    tree_pair_from_text,
    tree_pair_to_text,
)
from picturecalc.picture import atom_transistor, canonical_key, concat, eps
from picturecalc.presentation import builtin_presentation
from picturecalc.sampling import random_element, random_tree_pair, random_walk_diagram
from picturecalc.thompson import TreePair

Q, _ = builtin_presentation("thompson")
TRIV = trivial_system(Q.alphabet)
CYC2 = make_system(Q.alphabet, {"x": CyclicSpec(2)})


def test_diagram_json_roundtrip(rng):
    for coeffs in (TRIV, CYC2):
        for _ in range(20):
            d = random_walk_diagram(Q, coeffs, "x", rng.randrange(5), rng)
            obj = diagram_to_json(d)
            back = diagram_from_json(obj)
            assert canonical_key(back) == canonical_key(d)
            # canonical export is byte-stable
            assert json.dumps(diagram_to_json(back), sort_keys=True) == \
                json.dumps(obj, sort_keys=True)


def test_diagram_json_annular_flag():
    d = eps(Q, TRIV, "xx", annular=True)
    assert diagram_from_json(diagram_to_json(d)).annular


def test_diagram_json_rejects_garbage():
    with pytest.raises(ParseError):
        diagram_from_json({"presentation": "<x | x=x.x>", "coeffs": {"x": "trivial"},
                           "wires": [], "transistors": []})


def test_tree_pair_text_roundtrip(rng):
    for arity in (2, 3):
        for _ in range(20):
            tp = random_tree_pair(rng, arity, 3)
            text = tree_pair_to_text(tp)
            assert tree_pair_from_text(text, arity) == tp
    assert tree_pair_to_text(TreePair(2, (((), ()),), (((), ()),), (0, 1))) == \
        "(..)|(..)@perm=0,1"


def test_cli_reduce_dipole(tmp_path, capsys):
    t = atom_transistor(Q, TRIV, (), 0, 1, ())
    from picturecalc.picture import invert
    d = concat(t, invert(t))
    src = tmp_path / "d.json"
    out = tmp_path / "r.json"
    dump_diagram(d, str(src))
    rc = main(["reduce", "--in", str(src), "--out", str(out)])
    assert rc == 0
    assert "length 0" in capsys.readouterr().out
    r = load_diagram(str(out))
    assert canonical_key(r) == canonical_key(eps(Q, TRIV, "x"))


def test_cli_multiply(tmp_path, capsys, rng):
    a = random_element(Q, TRIV, "x", rng)
    b = random_element(Q, TRIV, "x", rng)
    pa, pb, pout = (tmp_path / n for n in ("a.json", "b.json", "ab.json"))
    dump_diagram(a, str(pa))
    dump_diagram(b, str(pb))
    rc = main(["multiply", "--in", str(pa), "--in2", str(pb), "--out", str(pout)])
    assert rc == 0
    from picturecalc.picture import multiply
    assert canonical_key(load_diagram(str(pout))) == canonical_key(multiply(a, b))


def test_cli_embed_and_project(tmp_path, capsys, rng):
    P3, w3 = builtin_presentation("higman", (3, 1))
    triv3 = trivial_system(P3.alphabet)
    d = random_element(P3, triv3, w3, rng)
    src = tmp_path / "g.json"
    out = tmp_path / "psi.json"
    dump_diagram(d, str(src))
    rc = main(["embed", "--builtin", "higman:3,1", "--in", str(src), "--out", str(out)])
    assert rc == 0
    img = load_diagram(str(out))
    assert img.pres.alphabet == ("x",)
    rc = main(["project", "--in", str(src)])
    assert rc == 0
    outtext = capsys.readouterr().out
    assert "membership" in outtext and "@perm=" in outtext


def test_cli_thompson_eval(capsys):
    rc = main(["thompson", "eval", "--pair", "((..).)|(.(..))@perm=0,1,2",
               "--point", "1/2^1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1/2^2"


def test_cli_ball_and_dot(tmp_path, capsys):
    out = tmp_path / "ball.json"
    dot = tmp_path / "ball.dot"
    rc = main(["ball", "--builtin", "thompson", "--coeff", "x=cyclic:2",
               "--radius", "2", "--out", str(out), "--dot", str(dot)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["radius"] == 2
    assert dot.read_text().startswith("graph ball {")
    assert "vertices" in capsys.readouterr().out


def test_cli_verify_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--builtin", "thompson", "--coeff", "x=cyclic:2",
               "--radius", "3", "--m-max", "2", "--budget", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["qm_axioms"]["passed"]
    assert payload["pins"]["passed"]
    assert payload["hyperplanes"]["passed"]
    assert payload["condition_plus"]["passed"]
    assert "rotative_stabiliser" in payload
    prints = capsys.readouterr().out
    assert "qm_axioms: pass" in prints


def test_cli_verify_determinism(tmp_path):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--builtin", "thompson", "--coeff", "x=cyclic:2",
            "--radius", "2", "--m-max", "2", "--budget", "1"]
    assert main(argv + ["--out", str(o1)]) == 0
    assert main(argv + ["--out", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_cli_enumerate(tmp_path, capsys):
    out = tmp_path / "list.json"
    rc = main(["enumerate", "--builtin", "thompson", "--geometry", "planar",
               "--budget", "4", "--out", str(out)])
    assert rc == 0
    assert "count 3" in capsys.readouterr().out
    items = json.loads(out.read_text())
    assert len(items) == 3
    for obj in items:
        diagram_from_json(obj)  # re-parses and validates


def test_cli_input_error_exit_2(tmp_path, capsys):
    rc = main(["reduce", "--in", str(tmp_path / "missing.json")])
    assert rc == 2
    rc = main(["ball", "--builtin", "nope", "--radius", "1"])
    assert rc == 2
    rc = main(["ball", "--builtin", "thompson", "--coeff", "x=free:1", "--radius", "1"])
    assert rc == 2


@pytest.mark.parametrize("path, value", [
    (("transistors", 0, "rel"), "zero"),
    (("wires", 0, "coeff"), 5),
    (("coeffs", "x"), 5),
    (("coeffs",), []),
])
def test_cli_malformed_diagram_exit_2(tmp_path, capsys, path, value):
    obj = diagram_to_json(atom_transistor(Q, CYC2, (), 0, 1, ()))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(obj))
    rc = main(["reduce", "--in", str(src)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_verify_inconclusive_plus_still_passes(tmp_path):
    # the (+)-counterexample configuration: report inconclusive, exit 1 is
    # reserved for violations; inconclusive (+) still passes
    rc = main(["verify", "--presentation", _write_pres(tmp_path),
               "--word", "p.p.a", "--coeff", "a=cyclic:2",
               "--radius", "2", "--m-max", "2", "--budget", "1"])
    assert rc == 0


def _write_pres(tmp_path):
    p = tmp_path / "ap.txt"
    p.write_text("<a,p | a=a.p>")
    return str(p)

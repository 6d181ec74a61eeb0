import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from picturecalc import cli
from picturecalc.cli import main
from picturecalc.coeff import (
    CyclicSpec,
    FreeSpec,
    coeff_parse,
    free_element,
    identity,
    make_system,
    trivial_system,
)
from picturecalc.errors import ParseError
from picturecalc.moves import GEOMETRIES, BallConfig, enumerate_reduced
from picturecalc.io import (
    ball_text,
    diagram_from_json,
    diagram_text,
    diagram_to_json,
    dump_diagram,
    load_diagram,
    tree_pair_from_text,
    tree_pair_to_text,
)
from picturecalc.picture import (
    Diagram,
    atom_linear,
    atom_transistor,
    canonical_key,
    concat,
    eps,
    invert,
    multiply,
)
from picturecalc.presentation import (
    MAX_WORD_LENGTH,
    builtin_presentation,
    parse_presentation,
    parse_word,
    serialize_presentation,
    word_str,
)
from picturecalc.qmgraph import ball
from picturecalc.sampling import random_element, random_tree_pair, random_walk_diagram
from picturecalc.thompson import TreePair

from oracles import (
    ball_dict_oracle,
    coeff_parse_oracle,
    diagram_dict_oracle,
    evaluate_oracle,
    parse_presentation_oracle,
    parse_word_oracle,
)

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


def test_cyclic_coefficients_written_as_t_copies_still_load():
    """Files written before t^r was the output form spell it as r copies of
    t: they load as the same diagrams, and export in the t^r form."""
    coeffs = make_system(Q.alphabet, {"x": CyclicSpec(4)})
    spelled = 0
    for d in enumerate_reduced(Q, coeffs, ("x",), 2):
        obj = diagram_to_json(d)
        old = json.loads(json.dumps(obj))
        for wire in old["wires"]:
            r = int(wire["coeff"].removeprefix("t^")) if wire["coeff"].startswith("t^") else 0
            wire["coeff"] = ".".join(["t"] * r) if r else wire["coeff"]
            spelled += r > 0
        back = diagram_from_json(old)
        assert canonical_key(back) == canonical_key(d) and diagram_to_json(back) == obj
    assert spelled


def test_diagram_json_roundtrip_keeps_the_alphabet_order(rng, tmp_path):
    # quasi_auto's alphabet (x, a) is not sorted, and the file's keys are
    pres, w = builtin_presentation("quasi_auto", [2, 1, 1])
    coeffs = make_system(pres.alphabet, {"a": CyclicSpec(3)})
    for _ in range(10):
        d = random_element(pres, coeffs, w, rng)
        dump_diagram(d, str(tmp_path / "d.json"))
        back = load_diagram(str(tmp_path / "d.json"))
        assert back.coeffs == coeffs and back == d
        assert multiply(back, d) == multiply(d, d)


def test_diagram_json_annular_flag():
    d = eps(Q, TRIV, "xx", annular=True)
    assert diagram_from_json(diagram_to_json(d)).annular


def _assert_diagram_text_matches_oracle(d):
    obj = diagram_dict_oracle(d)
    assert diagram_text(d) == json.dumps(obj, indent=2, sort_keys=True)
    assert "[\n  " + diagram_text(d, 1) + "\n]" == json.dumps([obj], indent=2, sort_keys=True)
    assert diagram_to_json(d) == obj


_BUILTINS = [("thompson", ()), ("higman", (3, 1)), ("quasi_auto", (2, 1, 1)),
             ("houghton", (2, 1)), ("commuting_abc", ())]


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_diagram_text_matches_dict_oracle_on_every_builtin(geometry, rng):
    for name, params in _BUILTINS:
        pres, w = builtin_presentation(name, params)
        first = pres.alphabet[0]
        for coeffs in (trivial_system(pres.alphabet),
                       make_system(pres.alphabet, {first: CyclicSpec(3)})):
            for steps in range(5):
                d = random_walk_diagram(pres, coeffs, w, steps, rng, geometry)
                _assert_diagram_text_matches_oracle(d)
            _assert_diagram_text_matches_oracle(random_element(pres, coeffs, w, rng, geometry))


def test_diagram_text_matches_dict_oracle_on_transistors_and_t_squared(rng):
    cyc3 = make_system(Q.alphabet, {"x": CyclicSpec(3)})
    seen = set()
    for d in enumerate_reduced(Q, cyc3, ("x",), 3, "annular"):
        assert d.annular
        _assert_diagram_text_matches_oracle(d)
        seen.update(wire["coeff"] for wire in diagram_to_json(d)["wires"])
    assert "t^2" in seen
    d = atom_transistor(Q, cyc3, ("x",), 0, 1, ())
    assert d.transistors
    _assert_diagram_text_matches_oracle(d)
    _assert_diagram_text_matches_oracle(invert(d))


def test_diagram_text_matches_dict_oracle_on_multi_character_letters(tmp_path, rng):
    path = tmp_path / "p.txt"
    path.write_text("< ab, cd | ab = ab . cd, cd = cd . ab >\n")
    out = tmp_path / "e.json"
    assert main(["enumerate", "--presentation", str(path), "--word", "ab.cd",
                 "--coeff", "cd=cyclic:3", "--budget", "2", "--out", str(out)]) == 0
    docs = json.loads(out.read_text())
    assert len(docs) > 1
    for obj in docs:
        d = diagram_from_json(obj)
        _assert_diagram_text_matches_oracle(d)
        assert diagram_to_json(d) == obj
    pres = parse_presentation(path.read_text())
    spec = FreeSpec(("R1", "R2"))
    coeffs = make_system(pres.alphabet, {"ab": spec})
    g = free_element(spec, [("R1", 1), ("R2", -1), ("R2", -1)])
    d = atom_linear(pres, coeffs, ("cd", "ab"), 1, g)
    assert diagram_to_json(d)["wires"][1]["coeff"] == "R1.R2^-1.R2^-1"
    _assert_diagram_text_matches_oracle(d)
    for steps in range(5):
        walk = random_walk_diagram(pres, trivial_system(pres.alphabet), ("cd", "ab"), steps, rng)
        _assert_diagram_text_matches_oracle(walk)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_ball_text_matches_dict_oracle(geometry):
    cases = [(Q, CYC2, ("x",))]
    pres, w = builtin_presentation("commuting_abc")
    cases.append((pres, make_system(pres.alphabet, {"a": CyclicSpec(3)}), w))
    for pres, coeffs, w in cases:
        cfg = BallConfig(pres, coeffs, geometry)
        for radius in range(4 if pres is Q else 3):
            g = ball(eps(pres, coeffs, w, annular=geometry == "annular"), radius, cfg)
            assert bool(g.edges) == (radius > 0)
            assert ball_text(g) == json.dumps(ball_dict_oracle(g), indent=2, sort_keys=True)


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


def test_cli_embed_reads_only_the_presentation(tmp_path, capsys, rng):
    # a presentation file needs no --word (embed reads none), and the
    # ball options are not embed's
    P3, w3 = builtin_presentation("higman", (3, 1))
    src = tmp_path / "g.json"
    dump_diagram(random_element(P3, trivial_system(P3.alphabet), w3, rng), str(src))
    pres_file = tmp_path / "p.txt"
    pres_file.write_text(serialize_presentation(P3))
    outs = []
    for option in (["--builtin", "higman:3,1"], ["--presentation", str(pres_file)]):
        out = tmp_path / f"psi{len(outs)}.json"
        assert main(["embed", *option, "--in", str(src), "--out", str(out)]) == 0
        outs.append((out.read_bytes(), capsys.readouterr().out))
    assert outs[0] == outs[1]
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--builtin", "higman:3,1", "--geometry", "planar", "--in", str(src)])
    assert exc.value.code == 2


def test_cli_thompson_eval(capsys):
    rc = main(["thompson", "eval", "--pair", "((..).)|(.(..))@perm=0,1,2",
               "--point", "1/2^1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1/2^2"


def test_cli_thompson_eval_rejects_multi_root_image(capsys):
    rc = main(["thompson", "eval", "--pair", "(..)|.+.@perm=0,1", "--point", "1/2^1"])
    out, err = capsys.readouterr()
    assert rc == 2 and not out
    assert "error: evaluation needs single-rooted pairs" in err


def test_cli_thompson_eval_deep_comb(capsys):
    # a right comb 1,200 carets deep over a left comb: the pair maps the left
    # comb's last leaf, address 1, onto the right comb's last leaf 1^1200,
    # so 1/2 goes to 1 - 2^-1200
    n = 1200
    right = "(." * n + "." + ")" * n
    left = "(" * n + "." + ".)" * n
    pair = f"{right}|{left}@perm={','.join(map(str, range(n + 1)))}"
    rc = main(["thompson", "eval", "--pair", pair, "--point", "1/2^1"])
    out, err = capsys.readouterr()
    assert rc == 0 and "Traceback" not in err
    assert out.strip() == f"{2 ** n - 1}/2^{n}"


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


_VERIFY_DIGESTS = [  # sha256[:16] of the --out bytes and of stdout
    (["--builtin", "thompson", "--coeff", "x=cyclic:2", "--radius", "3"],
     "6d1d1a443ab3f810", "a8597a5478858d23"),
    (["--builtin", "thompson", "--coeff", "x=cyclic:2", "--radius", "3",
      "--geometry", "annular"], "76e139bd68141508", "f8fa656549b1eb88"),
    (["--builtin", "thompson", "--coeff", "x=cyclic:2", "--radius", "3",
      "--geometry", "planar"], "80fae59f8db51aeb", "1df9f70e6609f1c0"),
    (["--builtin", "thompson", "--coeff", "x=cyclic:3", "--radius", "3",
      "--geometry", "annular"], "f9fe3cb304bfef0e", "23d0c072307fc528"),
    (["--builtin", "commuting_abc", "--coeff", "a=cyclic:2", "--radius", "3"],
     "900f529aa9fd2fa3", "438229b18ea12a31"),
    (["--builtin", "higman:3,1", "--coeff", "x=cyclic:2", "--radius", "3"],
     "5374664569e9695c", "908a471d424c78f0"),
    (["--builtin", "houghton:2,0", "--coeff", "a=cyclic:2", "--radius", "3"],
     "77be36ea774b29c9", "426d8e559c5a1346"),
    (["--builtin", "quasi_auto:2,1,1", "--coeff", "a=cyclic:3", "--radius", "2",
      "--geometry", "annular"], "24fbf873a94d0a19", "b10b296e18f91e76"),
]


@pytest.mark.parametrize("argv, out_digest, stdout_digest", _VERIFY_DIGESTS,
                         ids=["thompson", "thompson-annular", "thompson-planar",
                              "thompson-cyclic3-annular", "commuting_abc", "higman", "houghton",
                              "quasi_auto-annular"])
def test_verify_output_digest_is_pinned(argv, out_digest, stdout_digest, tmp_path, capsys):
    """Every report's counts, lists and their order show in these bytes."""
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    prints = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert (digest, prints) == (out_digest, stdout_digest)


@pytest.mark.parametrize("argv", [
    ["reduce", "--in", "{dir}"],
    ["ball", "--presentation", "{dir}", "--word", "x", "--radius", "1"],
    ["ball", "--builtin", "thompson", "--radius", "1", "--dot", "{dir}"],
    ["verify", "--builtin", "thompson", "--radius", "1", "--out", "{dir}"],
], ids=["in", "presentation", "dot", "out"])
def test_cli_directory_path_exits_2(argv, tmp_path, capsys):
    # a file error is an input error, not a counterexample
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_module_run_is_hash_seed_independent(tmp_path):
    """`python -m picturecalc` gives the same exit code, stdout and --out
    bytes under two hash seeds."""
    from picturecalc.embed import psi

    src = Path(__file__).resolve().parents[1] / "src"
    P3, w3 = builtin_presentation("higman", (3, 1))
    d = random_element(P3, trivial_system(P3.alphabet), w3, random.Random(5), steps=4)
    e = random_element(P3, trivial_system(P3.alphabet), w3, random.Random(6), steps=4)
    dump_diagram(d, str(tmp_path / "g.json"))
    dump_diagram(e, str(tmp_path / "h.json"))
    dump_diagram(concat(concat(d, invert(d)), d), str(tmp_path / "ddd.json"))
    dump_diagram(psi(d), str(tmp_path / "psi.json"))
    ball = ["ball", "--builtin", "thompson", "--coeff", "x=cyclic:2", "--radius", "2"]
    verify = ["verify", "--builtin", "thompson", "--coeff", "x=cyclic:2", "--radius", "3"]
    for k, argv in enumerate([ball, ball + ["--geometry", "annular"],
                              ["enumerate", "--builtin", "commuting_abc", "--budget", "2"],
                              verify,
                              # pins of size 3 and triangles
                              ["verify", "--builtin", "thompson", "--coeff", "x=cyclic:3",
                               "--geometry", "planar", "--radius", "3"],
                              ["embed", "--builtin", "higman:3,1", "--in", str(tmp_path / "g.json")],
                              ["project", "--in", str(tmp_path / "g.json")],
                              ["project", "--in", str(tmp_path / "psi.json")],
                              ["reduce", "--in", str(tmp_path / "ddd.json")],
                              ["multiply", "--in", str(tmp_path / "g.json"),
                               "--in2", str(tmp_path / "h.json")],
                              ["multiply", "--in", str(tmp_path / "ddd.json"),
                               "--in2", str(tmp_path / "g.json")]]):
        runs = []
        for seed in ("1", "2"):
            out = tmp_path / f"run{k}_{seed}.json"
            # `project` writes to stdout only
            argv_out = argv if argv[0] == "project" else argv + ["--out", str(out)]
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            done = subprocess.run([sys.executable, "-m", "picturecalc", *argv_out],
                                  env=env, capture_output=True)
            runs.append((done.returncode, done.stdout, out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == 0, (argv, runs[0][1])


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


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--builtin", "thompson", "--radius", "1", "--m-max", "-1"], "m_max"),
    (["verify", "--builtin", "thompson", "--radius", "1", "--budget", "-1"], "budget"),
    (["verify", "--builtin", "thompson", "--radius", "2", "--max-width", "-3"], "max_width"),
    (["ball", "--builtin", "thompson", "--radius", "1", "--max-width", "0"], "max_width"),
    (["enumerate", "--builtin", "commuting_abc", "--budget", "1", "--max-width", "0"],
     "max_width"),
])
def test_cli_flags_that_would_check_nothing_exit_2(argv, flag, capsys):
    # each of these used to pass with "0 checked" or an empty result
    assert main(argv) == 2
    assert f"error: {flag} must be >= " in capsys.readouterr().err


def test_every_cli_output_is_the_text_of_json_dumps(tmp_path, capsys, rng):
    """Every --out file of the six JSON-writing commands, in each geometry,
    is the text of json.dumps(obj, indent=2, sort_keys=True) of what it reads
    back as, whichever writer made it; stdout is the same text followed by
    the run's summary lines."""
    out = tmp_path / "out.json"
    P3, w3 = builtin_presentation("higman", (3, 1))
    cyc3 = make_system(Q.alphabet, {"x": CyclicSpec(3)})
    for geometry in GEOMETRIES:
        a, b, h = (tmp_path / f"{n}_{geometry}.json" for n in "abh")
        dump_diagram(random_walk_diagram(Q, cyc3, "x", 4, rng, geometry), str(a))
        dump_diagram(random_element(Q, TRIV, "x", rng, geometry), str(b))
        dump_diagram(random_element(P3, trivial_system(P3.alphabet), w3, rng, geometry), str(h))
        config = ["--coeff", "x=cyclic:2", "--geometry", geometry]
        runs = [
            ["ball", "--builtin", "thompson", *config, "--radius", "2"],
            ["verify", "--builtin", "thompson", *config, "--radius", "2"],
            ["enumerate", "--builtin", "commuting_abc", "--geometry", geometry, "--budget", "2"],
            ["reduce", "--in", str(a)],
            ["multiply", "--in", str(b), "--in2", str(b)],
            ["embed", "--builtin", "higman:3,1", "--in", str(h)],
        ]
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 0, argv
            summary = capsys.readouterr().out
            text = out.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", argv
            assert main(argv) == 0
            assert capsys.readouterr().out == text + summary, argv


def test_src_indents_json_only_in_the_verify_report():
    """Diagram, ball and enumerate files are written by `diagram_text` and
    `ball_text`, never by json's pure-Python indenting encoder: the one
    json.dump(s) call with `indent` in the package is `cmd_verify`'s, for a
    report of a few KB, with indent=2 and sort_keys=True."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {node: f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and any(k.arg == "indent" for k in node.keywords)):
                found.append((path.name, owner.get(node),
                              {k.arg: ast.literal_eval(k.value) for k in node.keywords}))
    assert found == [("cli.py", "cmd_verify", {"indent": 2, "sort_keys": True})]


def test_cli_long_relation_side_needs_no_recursion(capsys):
    # houghton:1500,0 has a relation side of 1,500 distinct letters, and
    # the braided feeds of that side must not recurse once per letter
    word = ".".join(f"x{i}" for i in range(1, 1501))
    for geometry in GEOMETRIES:
        assert main(["ball", "--builtin", "houghton:1500,0", "--word", word, "--radius", "1",
                     "--geometry", geometry, "--out", os.devnull]) == 0, geometry
        assert capsys.readouterr().out == "vertices 2 edges 1\n", geometry


def test_cli_huge_power_exits_2_before_expanding(capsys):
    # the expanded word would have 10^9 letters: rejected from its length alone
    t0 = time.perf_counter()
    rc = main(["ball", "--builtin", "thompson", "--word", "x^999999999", "--radius", "1"])
    assert rc == 2 and time.perf_counter() - t0 < 1.0
    assert ("error: word longer than 1000000 letters (at position 2)"
            in capsys.readouterr().err)
    with pytest.raises(ParseError, match="word longer than"):
        parse_presentation("<x | x=x.x.x^999999>")
    with pytest.raises(ParseError, match="word longer than"):
        parse_word("x^" + "9" * 5000, Q)  # too many digits for int()
    assert len(parse_word("x^1000000", Q)) == 1_000_000


@pytest.mark.parametrize("argv, message", [
    # 2^(10^11) would be computed before the range check
    (["thompson", "eval", "--pair", "(..)|(..)@perm=0,1", "--point", "1/2^100000000000"],
     "2^100000000000 has more than 4300 digits"),
    # the image 1/2 + 1/2^100000 has a numerator too long to print
    (["thompson", "eval", "--pair", "(..)|(..)@perm=1,0", "--point", "1/2^100000"],
     "2^100000 has more than 4300 digits"),
    # base 1 divides every numerator: normalizing would loop 10^8 times
    (["thompson", "eval", "--pair", ".|.@perm=0", "--arity", "1", "--point", "1/1^100000000"],
     "arity must be >= 2"),
    # a relation side or baseword of 3 * 10^8 letters
    (["ball", "--builtin", "higman:300000000,1", "--radius", "1"],
     "builtin 'higman': a relation side or the baseword would be longer than 1000000 letters"),
    (["ball", "--builtin", "higman:2,300000000", "--radius", "1"],
     "builtin 'higman': a relation side or the baseword would be longer than 1000000 letters"),
    (["ball", "--builtin", "quasi_auto:2,1,1000000", "--radius", "1"],
     "builtin 'quasi_auto': a relation side or the baseword would be longer"),
    (["ball", "--builtin", "houghton:1000001,0", "--radius", "1"],
     "builtin 'houghton': a relation side or the baseword would be longer"),
])
def test_cli_oversized_numbers_exit_2_before_the_work(capsys, argv, message):
    t0 = time.perf_counter()
    rc = main(argv)
    assert rc == 2 and time.perf_counter() - t0 < 1.0
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_thompson_eval_long_points_still_print(capsys):
    pair = "((..).)|(.(..))@perm=0,1,2"
    for k, m in ((1, 10000), (3, 14000)):  # 3,011 and 4,215 digits
        assert main(["thompson", "eval", "--pair", pair, "--point", f"{k}/2^{m}"]) == 0
        num, _, exp = capsys.readouterr().out.strip().partition("/2^")
        want = evaluate_oracle(tree_pair_from_text(pair), Fraction(k, 2 ** m))
        assert Fraction(int(num), 2 ** int(exp)) == want
    # zero is 0/2^0 before any power or division
    assert main(["thompson", "eval", "--pair", pair, "--point", "0/2^100000000000"]) == 0
    assert capsys.readouterr().out.strip() == "0/2^0"


@pytest.mark.parametrize("path, value", [
    (("transistors", 0, "rel"), "zero"),
    (("wires", 0, "coeff"), 5),
    (("coeffs", "x"), 5),
    (("coeffs",), []),
    (("coeffs", "y"), "trivial"),  # a letter outside the alphabet
    (("presentation",), ["<x | x=x.x>"]),
    (("annular",), "no"),
    (("wires", 1, "top", "site", "side"), "left"),
    (("wires", 2, "bottom", "index"), True),  # index 1 in the file; JSON true is no int
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


@pytest.mark.parametrize("spec, coeff, message", [
    ("free:1", "R1^1000000000000000", "coefficient longer than"),
    ("free:1", "R1^600000.R1^-600000", "coefficient longer than"),  # counted before reducing
    (f"free:{MAX_WORD_LENGTH + 1}", "1", "free rank must be between 1 and"),
])
def test_cli_oversized_coefficient_text_exit_2(tmp_path, capsys, spec, coeff, message):
    """Coefficient text is size-checked before a power or a rank expands."""
    obj = diagram_to_json(eps(Q, trivial_system(Q.alphabet), "x"))
    obj["coeffs"]["x"], obj["wires"][0]["coeff"] = spec, coeff
    src = tmp_path / "big.json"
    src.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    rc = main(["reduce", "--in", str(src)])
    err = capsys.readouterr().err
    assert rc == 2 and time.perf_counter() - t0 < 1.0
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("spec, coeff", [("cyclic:5", "t^1_0"), ("cyclic:5", "t^+2"), ("free:2", "R1^1_0")])
def test_cli_coefficient_power_forms_of_int_exit_2(tmp_path, capsys, spec, coeff):
    """A coefficient power is a sign and decimal digits, as a word power is:
    the forms int() alone also reads ('1_0', '+2') are malformed."""
    obj = diagram_to_json(eps(Q, trivial_system(Q.alphabet), "x"))
    obj["coeffs"]["x"], obj["wires"][0]["coeff"] = spec, coeff
    src = tmp_path / "power.json"
    src.write_text(json.dumps(obj))
    rc = main(["reduce", "--in", str(src)])
    assert rc == 2 and capsys.readouterr().err == f"error: malformed token {coeff!r}\n"
    obj["wires"][0]["coeff"] = coeff.replace("1_0", "-10").replace("+", "")
    src.write_text(json.dumps(obj))
    assert main(["reduce", "--in", str(src)]) == 0


def _number_site_argv(site, n, p, tmp_path):
    """argv that brings the number text n to one of the seven places user
    text holds a number, with p beside every field that place splits off."""
    if site == "word power":
        return ["ball", "--builtin", "thompson", "--word", f"{p}x{p}^{p}{n}{p}", "--radius", "1"]
    if site == "builtin parameter":
        return ["ball", "--builtin", f"{p}higman{p}:{p}{n}{p},{p}1{p}", "--radius", "1"]
    if site == "cyclic order":
        return ["ball", "--builtin", "thompson", "--coeff", f"{p}x{p}={p}cyclic{p}:{p}{n}{p}", "--radius", "1"]
    if site == "point":
        return ["thompson", "eval", "--pair", "((..).)|(.(..))@perm=0,1,2",
                "--point", f"{p}1{p}/{p}2{p}^{p}{n}{p}"]
    if site == "permutation":
        return ["thompson", "eval", "--pair", f"(..)|(..)@perm={p}{n}{p},{p}0{p}", "--point", "1/2^2"]
    obj = diagram_to_json(eps(Q, trivial_system(Q.alphabet), "x"))
    if site == "free rank":
        obj["coeffs"]["x"], obj["wires"][0]["coeff"] = f"{p}free{p}:{p}{n}{p}", f"{p}R1{p}.{p}R3{p}"
    else:  # a coefficient power
        obj["coeffs"]["x"], obj["wires"][0]["coeff"] = "cyclic:5", f"{p}t{p}^{p}{n}{p}.{p}t{p}"
    src = tmp_path / "number.json"
    src.write_text(json.dumps(obj))
    return ["reduce", "--in", str(src)]


@pytest.mark.parametrize("site, value", [
    ("word power", 3), ("coefficient power", 3), ("cyclic order", 3), ("free rank", 3),
    ("builtin parameter", 3), ("point", 3), ("permutation", 1),
])
def test_cli_numbers_follow_one_rule(tmp_path, capsys, site, value):
    """Every number in user text is an optional '-' and decimal digits, with
    whitespace around it and around the fields beside it ignored: the other
    forms int() reads and numbers past int()'s 4,300 digits exit 2 with one
    error line of the package's own."""
    assert main(_number_site_argv(site, value, "", tmp_path)) == 0
    want = capsys.readouterr().out
    for pad in (" ", " \t\u3000"):
        assert main(_number_site_argv(site, f"{pad}{value}{pad}", pad, tmp_path)) == 0
        assert capsys.readouterr().out == want
    for n in (f"+{value}", f"0_{value}", "9" * 5000):
        assert main(_number_site_argv(site, n, "", tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (n[:20], err[:200])
        assert "invalid literal" not in err and "Exceeds the limit" not in err


@pytest.mark.parametrize("command", ["ball", "verify", "enumerate"])
def test_cli_cyclic_order_above_the_limit_exits_2_before_the_work(capsys, command):
    """A ball holds every element of a cyclic coefficient group: an order of
    10^10 would list 10^10 moves, so orders above MAX_CYCLIC_ORDER exit 2."""
    from picturecalc.moves import MAX_CYCLIC_ORDER

    budget = ["--budget", "1"] if command == "enumerate" else ["--radius", "1"]
    for order in (MAX_CYCLIC_ORDER + 1, 10 ** 10):
        t0 = time.perf_counter()
        rc = main([command, "--builtin", "thompson", "--coeff", f"x=cyclic:{order}"] + budget)
        assert rc == 2 and time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == f"error: cyclic order above {MAX_CYCLIC_ORDER} in a ball or enumeration\n"


@pytest.mark.parametrize("tid", ["zero", 1, -1, True])
def test_cli_bad_transistor_id_exit_2(tmp_path, capsys, tid):
    obj = diagram_to_json(atom_transistor(Q, CYC2, (), 0, 1, ()))
    site = obj["wires"][0]["bottom"]["site"]
    assert site["transistor"] == 0
    site["transistor"] = tid
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(obj))
    rc = main(["reduce", "--in", str(src)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: wire 0: transistor id {tid!r} ") and "Traceback" not in err


def test_cli_reduce_deep_chain_bottom_first(tmp_path, capsys):
    # 1,500 x->xx transistors, each fed by the first bottom wire of the one
    # above (transistor t has bottom wires 2t+1, 2t+2)
    n = 1500
    wires = {w: ("x", identity(TRIV.spec("x"))) for w in range(2 * n + 1)}
    feeds = [0] + [2 * t + 1 for t in range(n - 1)]
    bottom = (2 * n - 1,) + tuple(2 * t + 2 for t in reversed(range(n)))
    chain = Diagram(Q, TRIV, wires, {t: (0, 1) for t in range(n)},
                    {t: (feeds[t],) for t in range(n)},
                    {t: (2 * t + 1, 2 * t + 2) for t in range(n)}, (0,), bottom)
    obj = diagram_to_json(chain)
    # list the transistors bottom first
    obj["transistors"].reverse()
    for wire in obj["wires"]:
        for end in ("top", "bottom"):
            site = wire[end]["site"]
            if isinstance(site, dict):
                site["transistor"] = n - 1 - site["transistor"]
    src = tmp_path / "chain.json"
    src.write_text(json.dumps(obj))
    rc = main(["reduce", "--in", str(src), "--out", str(tmp_path / "r.json")])
    out, err = capsys.readouterr()
    assert rc == 0 and "Traceback" not in err
    assert f"length {n}" in out


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


# -- fuzzed parsers ----------------------------------------------------------------

FUZZ_CHARS = "<>|=,.^()+@ \t0123456789xyab²"


def _mutate(rng, text, chars=FUZZ_CHARS):
    """text with one to three characters deleted, inserted (from chars) or swapped."""
    out = list(text)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(out) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(out):
            del out[i]
        elif op == 1:
            out.insert(i, rng.choice(chars))
        elif i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
    return "".join(out)


def _random_word_text(rng, letters):
    atoms = [rng.choice(letters) for _ in range(rng.randrange(1, 5))]
    return ".".join(a + f"^{rng.randrange(1, 13)}" if rng.random() < 0.2 else a for a in atoms)


def _random_presentation_text(rng):
    letters = rng.choice([["x"], ["a", "b", "c"], ["r", "x1", "x2"]])
    rels = ", ".join(f"{_random_word_text(rng, letters)}={_random_word_text(rng, letters)}"
                     for _ in range(rng.randrange(1, 4)))
    return f"<{','.join(letters)} | {rels}>"


def _parse_or_parse_error(parse, text):
    """Call parse(text): a value and ParseError are both accepted, any other
    exception fails the test."""
    try:
        parse(text)
    except ParseError:
        pass


def test_fuzzed_parsers_return_a_value_or_raise_parse_error():
    rng = random.Random(20261018)
    presentations = [builtin_presentation(name, params)[0] for name, params in
                     (("thompson", ()), ("houghton", (2, 1)), ("commuting_abc", ()))]
    for _ in range(300):
        text = _random_presentation_text(rng)
        for t in (text, _mutate(rng, text)):
            _parse_or_parse_error(parse_presentation, t)

        pres = rng.choice(presentations)
        w = tuple(rng.choice(pres.alphabet) for _ in range(rng.randrange(1, 6)))
        assert parse_word(word_str(w), pres) == w
        _parse_or_parse_error(lambda t: parse_word(t, pres), _mutate(rng, word_str(w)))

        arity = rng.choice((2, 3))
        tp = random_tree_pair(rng, arity, rng.randrange(5), rng.choice((1, 2)), reduced=False)
        text = tree_pair_to_text(tp)
        assert tree_pair_from_text(text, arity) == tp
        _parse_or_parse_error(lambda t: tree_pair_from_text(t, arity), _mutate(rng, text))


# FUZZ_CHARS plus what int() reads in a number but a power may not ('_', '-'),
# Unicode whitespace and a non-ASCII decimal digit
READER_FUZZ_CHARS = FUZZ_CHARS + "_-\u00a0\u3000\u0663"
SPACES = ("", "", " ", "\t", "\n", "\u00a0", "\u3000")
READER_EDGE_CASES = [
    "<x | x=x.x> y", "<x | x=x.x>>", "<x | x=x.x> >", "<<x | x=x.x>", "<x | x=x.x",
    "<x,,y | x=y>", "<x, | x=x.x>", "< | x=x.x>", "<x | >", "<x | x=x.x,>", "<x | ,x=x.x>",
    "<x | x=>", "<x | =x>", "<x | x=x.>", "<x | x=.x>", "<x | x=x..x>", "<x | x=x.x | x>",
    "<x | x=x^00>", "<x | x=x^01>", "<x | x=x^1_0>", "<x | x=x^+2>", "<x | x=x^-2>",
    "<x | x=x^>", "<x | x=x^^2>", "<x | x=x^2^2>", "<x | x=x ^ 2>", "<x | x=x^\u00b2>",
    "<x | x=x^\u0663>", "<x | x=x^" + "9" * 5000 + ">", "<x | x=x.x=x>", "<x | x x=x>",
    "<1,2 | 1=2.2>", "<1,2 | 1=2^2>", "<a,b | ab=b^2a>", "<a,b | ab=b^2.a>", "<a,b1 | a=ab1>",
    "<x|x=x.x>", "\u3000<\u00a0x\t|\nx = x . x\u3000>\n", "", "<>", "<|>", "<x>", "|",
]
READER_WORD_EDGE_CASES = [
    "", " ", ".", "x.", ".x", "x..x", "x x", "x^", "x^00", "x^01", "x^1_0", "x^+2", "x^-2", "x^2^2",
    "x^\u00b2", "x^\u0663", "x^" + "9" * 5000, " x ^ 2 . x ", "xx", "ab", "ab^2c", "x1x2", "x1.x2^2", "r=a",
]


def _spaced(rng, tokens):
    """tokens joined with random whitespace, ASCII and Unicode, around each."""
    spaces = rng.choices(SPACES, k=len(tokens) + 1)
    return "".join(map(str.__add__, spaces, tokens)) + spaces[-1]


def _word_tokens(rng, letters):
    juxtapose = all(len(a) == 1 for a in letters)
    tokens = []
    for k in range(rng.randrange(1, 5)):
        tokens += ["."] if k else []
        tokens.append("".join(rng.choice(letters) for _ in range(rng.randrange(1, 3) if juxtapose else 1)))
        tokens += ["^", str(rng.randrange(1, 13))] if rng.random() < 0.2 else []
    return tokens


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


def test_presentation_reader_matches_token_parser_oracle():
    """The field-splitting reader and the tokenizing oracle accept the same
    texts and read them alike, on 10,000+ seeded presentations and words."""
    rng = random.Random(20261020)
    presentations = [builtin_presentation(name, params)[0] for name, params in
                     (("thompson", ()), ("houghton", (2, 1)), ("commuting_abc", ()))]
    texts, words = list(READER_EDGE_CASES), []
    for _ in range(1500):
        letters = rng.choice((["x"], ["a", "b", "c"], ["r", "x1", "x2"], ["1", "2"]))
        tokens = ["<"] + [t for a in letters for t in (",", a)][1:] + ["|"]
        for k in range(rng.randrange(1, 4)):
            tokens += ([","] if k else []) + _word_tokens(rng, letters) + ["="] + _word_tokens(rng, letters)
        text = _spaced(rng, tokens + [">"])
        texts += [text, _mutate(rng, text, READER_FUZZ_CHARS)]
    for _ in range(3500):
        pres = rng.choice(presentations)
        text = _spaced(rng, _word_tokens(rng, pres.alphabet))
        words += [(text, pres), (_mutate(rng, text, READER_FUZZ_CHARS), pres)]
    words += [(text, pres) for text in READER_WORD_EDGE_CASES for pres in presentations]
    outcomes = set()
    for text in texts:
        got = _outcome(parse_presentation, text)
        assert got == _outcome(parse_presentation_oracle, text), text
        outcomes.add(got is ParseError)
    for text, pres in words:
        got = _outcome(lambda t: parse_word(t, pres), text)
        assert got == _outcome(lambda t: parse_word_oracle(t, pres), text), text
        outcomes.add(got is ParseError)
    assert len(texts) + len(words) >= 10_000 and outcomes == {True, False}


# what a coefficient text may hold besides whitespace, and what int() reads
COEFF_FUZZ_CHARS = "t.^-+_1R23s\u00b2\u0663"
COEFF_EDGE_CASES = [
    "1", " 1 ", "1.t", "t.1", "", ".", "t.", ".t", "t..t", "t^", "^2", "t^0", "t^-0", "t^00", "t^1_0",
    "t^+2", "t^-+2", "t^--2", "t^2^2", "t^\u00b2", "t^\u0663", "t^-\u0663", "t^" + "9" * 5000,
    "t^-" + "9" * 5000, "t t", "t^- 2", "tt", "R1 R2", "R1R2", "r1", "R1^" + "9" * 7,
    "R1^600000.R1^-600000", "\u3000t^2\u00a0", "t^ 2", "t^2 ", "R1^ -2",
]


def _coeff_tokens(rng, gens):
    """A coefficient text's tokens: generators, some unknown, joined by '.',
    some with a power, some powers zero or negative."""
    tokens = []
    for k in range(rng.randrange(1, 5)):
        tokens += ["."] if k else []
        tokens.append(rng.choice(("s", "R3", "t", "R1")) if rng.random() < 0.1 else rng.choice(gens))
        tokens += ["^", rng.choice(("", "-")) + str(rng.randrange(13))] if rng.random() < 0.4 else []
    return tokens


def test_coefficient_reader_matches_token_oracle():
    """The word-style coefficient reader and the old token reader read every
    text without whitespace beside a token alike (an element, or ParseError
    on both sides); a text with it reads as the oracle reads it without."""
    rng = random.Random(20261021)
    specs = {CyclicSpec(5): ["t"], FreeSpec(("R1", "R2")): ["R1", "R2"]}
    cases = [(spec, text, text) for text in COEFF_EDGE_CASES for spec in specs]
    for _ in range(2000):
        spec = rng.choice(list(specs))
        tokens = _coeff_tokens(rng, specs[spec])
        plain = "".join(tokens)
        mutant = _mutate(rng, plain, COEFF_FUZZ_CHARS)
        cases += [(spec, plain, plain), (spec, mutant, mutant), (spec, _spaced(rng, tokens), plain)]
    outcomes, newly_read = set(), 0
    for spec, text, plain in cases:
        got = _outcome(lambda t: coeff_parse(spec, t), text)
        assert got == _outcome(lambda t: coeff_parse_oracle(spec, t), plain), text
        outcomes.add(got is ParseError)
        newly_read += got is not ParseError and _outcome(lambda t: coeff_parse_oracle(spec, t), text) is ParseError
    assert len(cases) >= 5000 and outcomes == {True, False} and newly_read


JSON_RETYPES = [None, True, -1, 0, 7, 10 ** 9, 1.5, "x", "", [], {},
                {"site": "frame_top", "index": 0}]


def _json_paths(obj, path=()):
    """The path of every value below the root, parents first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _mutate_json(rng, obj):
    """A copy of the diagram JSON with one or two values dropped, retyped,
    pushed out of range (ints: site indices, transistor ids, rel, dir) or,
    for lists, truncated."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.randrange(1, 3)):
        path = rng.choice(list(_json_paths(obj)))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        op = rng.randrange(4)
        if op == 0:
            del parent[key]
        elif op == 2 and type(value) is int:
            parent[key] = rng.choice((-1, value + 1, value + 2, 10 ** 9))
        elif op == 3 and isinstance(value, list):
            del value[rng.randrange(len(value) + 1):]
        else:
            parent[key] = rng.choice(JSON_RETYPES)
    return obj


def test_fuzzed_diagram_json_parses_or_exits_2(tmp_path, capsys):
    rng = random.Random(20261019)
    abc, abc_word = builtin_presentation("commuting_abc")
    abc_cyc2 = make_system(abc.alphabet, {"a": CyclicSpec(2)})
    sources = [diagram_to_json(random_walk_diagram(pres, coeffs, word, steps, rng))
               for pres, coeffs, word in ((Q, CYC2, "x"), (abc, abc_cyc2, abc_word))
               for steps in (1, 3, 5)]
    for value in JSON_RETYPES:
        with pytest.raises(ParseError):
            diagram_from_json(value)
    src = tmp_path / "fuzz.json"
    outcomes = set()
    for k in range(300):
        obj = _mutate_json(rng, rng.choice(sources))
        try:
            diagram_from_json(obj)
            outcomes.add("parsed")
        except ParseError:
            outcomes.add("ParseError")
        if k % 3:  # every third mutant also goes through the CLI
            continue
        text = json.dumps(obj)
        if k % 2:  # and every other one of those is cut short
            text = text[:rng.randrange(len(text))]
        src.write_text(text)
        rc = main(["reduce", "--in", str(src), "--out", str(tmp_path / "out.json")])
        out, err = capsys.readouterr()
        assert rc in (0, 2) and "Traceback" not in err, (text, err)
        assert (rc == 2) == err.startswith("error:"), (text, err)
    assert outcomes == {"parsed", "ParseError"}


@pytest.mark.parametrize("kind, text, message", [
    ("tree", "|.@perm=0", "unexpected end of tree (at position 0)"),
    ("tree", "x|.@perm=0", "expected '(' or '.', found 'x' (at position 0)"),
    ("tree", ").|.@perm=0", "expected '(' or '.', found ')' (at position 0)"),
    ("tree", "(..|.@perm=0", "unbalanced parentheses (at position 3)"),
    ("tree", "(.)).|.@perm=0", "node has 1 children, arity is 2 (at position 2)"),
    ("tree", "(..)|.@perm=0", "leaf bijection does not match the leaf counts"),
    ("word", "x^\u00b2", "power must be a positive integer (at position 2)"),
    ("word", "x^ \u00b2", "power must be a positive integer (at position 3)"),
    ("pres", "<x x=x.x>", "expected '|' (at position 8)"),
    ("pres", "<x, y z | x=x.x>", "bad letter name 'y z' (at position 4)"),
    ("pres", "<x,\tx | x=x.x>", "duplicate letter 'x' (at position 4)"),
    ("pres", "<x | x=x.x, x>", "expected '=' (at position 13)"),
    ("pres", "<x | x=x.x,\u3000x=x.q>", "undeclared letter 'q' (at position 16)"),
    ("pres", "<x | x = x ^ 1_0>", "power must be a positive integer (at position 13)"),
])
def test_parse_errors_name_the_fault(kind, text, message):
    parse = {"tree": tree_pair_from_text, "word": lambda t: parse_word(t, Q), "pres": parse_presentation}[kind]
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_tree_pair_text_roundtrip_deep_comb():
    n = 1200
    left = right = ((), ())
    for _ in range(n - 1):
        left, right = (left, ()), ((), right)
    tp = TreePair(2, (right,), (left,), tuple(range(n + 1)))
    back = tree_pair_from_text(tree_pair_to_text(tp))
    assert back is not tp and back == tp


def test_runtime_imports_are_stdlib_only(tmp_path):
    """The package and two CLI runs import nothing outside the standard
    library.  Runs in a fresh interpreter, and snapshots sys.modules first:
    site hooks may preload third-party modules."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import picturecalc\n"
        "from picturecalc import cli\n"
        f"assert cli.main(['verify', '--builtin', 'thompson', '--radius', '2', "
        f"'--out', {str(tmp_path / 'v.json')!r}]) == 0\n"
        f"assert cli.main(['enumerate', '--builtin', 'commuting_abc', '--budget', '1', "
        f"'--out', {str(tmp_path / 'e.json')!r}]) == 0\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(m for m in new\n"
        "             if m not in sys.stdlib_module_names and m != 'picturecalc'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"

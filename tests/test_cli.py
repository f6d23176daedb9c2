import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import tropdiv.generators
import tropdiv.witness
from tropdiv.cli import build_parser, main
from tropdiv.generators import build_gn
from tropdiv.serialize import dumps


THETA = {"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]], "labels": ["p", "q"]}
THETA_CURVE = {"model": THETA, "lengths": {"0": "1", "1": "1", "2": "1"}}
THETA_INSTANCE = {"curve": THETA_CURVE, "divisor": "K", "edge": 0, "n": 1}

ELEMENTS_SCHEMA = {
    "type": "object",
    "required": ["command", "count", "degree", "elements"],
    "properties": {
        "count": {"type": "integer"},
        "degree": {"type": "integer"},
        "elements": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["degree", "values"],
                "properties": {
                    "degree": {"type": "integer"},
                    "values": {"type": "array",
                               "items": {"type": ["integer", "string"]}},
                },
            },
        },
    },
}

WITNESS_SCHEMA = {
    "type": "object",
    "required": ["command", "s", "degree", "r", "claims", "f", "ftilde",
                 "obstruction", "obstruction_holds"],
    "properties": {
        "s": {"type": "integer"},
        "degree": {"type": "integer"},
        "r": {"type": "object", "required": ["edge", "offset"]},
        "obstruction_holds": {"type": "boolean"},
    },
}


def run_cli(tmp_path, argv, expect_code=0):
    out = tmp_path / "out.txt"
    code = main(argv + ["--output", str(out)])
    assert code == expect_code, f"exit {code} != {expect_code} for {argv}"
    return out.read_text()


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(dumps(THETA))
    return str(path)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(dumps(THETA_INSTANCE))
    return str(path)


def test_rgd_command(tmp_path, theta_file):
    text = run_cli(tmp_path, ["rgd", "--graph", theta_file, "--divisor", "K",
                              "--m", "3"])
    data = json.loads(text)
    jsonschema.validate(data, ELEMENTS_SCHEMA)
    assert data["count"] == 3
    assert sorted(tuple(e["values"]) for e in data["elements"]) == \
        [(0, 0), (0, 1), (1, 0)]


def test_extremals_command(tmp_path, theta_file):
    data = json.loads(run_cli(tmp_path, ["extremals", "--graph", theta_file,
                                         "--divisor", "K", "--m", "3"]))
    jsonschema.validate(data, ELEMENTS_SCHEMA)
    assert data["count"] == 2


def test_generators_command(tmp_path, theta_file):
    data = json.loads(run_cli(tmp_path, ["generators", "--graph", theta_file,
                                         "--divisor", "K",
                                         "--certify-bound", "6"]))
    assert data["degrees"] == [1, 3]
    assert data["certified"]["6"] == 5


@pytest.mark.parametrize("graph, divisor", [
    (THETA, {"coeffs": {}}),
    ({"vertices": 1, "edges": [[0, 0], [0, 0]]}, "K"),
], ids=["theta-zero", "bouquet-K"])
def test_generators_certifies_the_constant_of_a_height_axis_cone(tmp_path, graph, divisor):
    # each cone is the height axis: the degree-1 constant generates it
    graph_file = tmp_path / "g.json"
    graph_file.write_text(dumps(graph))
    if divisor != "K":
        (tmp_path / "d.json").write_text(dumps(divisor))
        divisor = str(tmp_path / "d.json")
    data = json.loads(run_cli(tmp_path, ["generators", "--graph", str(graph_file),
                                         "--divisor", divisor, "--certify-bound", "2"]))
    assert data["degrees"] == [1]
    assert data["elements"] == [{"degree": 1, "values": [0] * graph["vertices"]}]
    assert data["certified"] == {"1": 1, "2": 1}


def test_generators_certify_bound_is_validated(tmp_path, theta_file, capsys):
    code = main(["generators", "--graph", theta_file, "--divisor", "K",
                 "--certify-bound", "-3", "--output", str(tmp_path / "out.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: certify bound -3 is negative\n"
    assert not (tmp_path / "out.json").exists()
    data = json.loads(run_cli(tmp_path, ["generators", "--graph", theta_file,
                                         "--divisor", "K", "--certify-bound", "20",
                                         "--max-degree", "10"], expect_code=3))
    assert data == {"detail": "degree 20 exceeds budget 10", "error": "budget exceeded"}


def test_max_lattice_candidates_caps_both_searches_of_generators(tmp_path, theta_file):
    # theta with K: the rays' parallelepiped has 6 classes, and certifying
    # degree 3 enumerates 7 lattice candidates
    argv = ["generators", "--graph", theta_file, "--divisor", "K"]
    data = json.loads(run_cli(tmp_path, argv + ["--max-lattice-candidates", "5"],
                              expect_code=3))
    assert data == {"detail": "parallelepiped classes: 6 exceeds budget 5",
                    "error": "budget exceeded"}
    data = json.loads(run_cli(tmp_path, argv + ["--max-lattice-candidates", "6",
                                                "--certify-bound", "3"], expect_code=3))
    assert data == {"detail": "lattice candidates: 7 exceeds budget 6",
                    "error": "budget exceeded"}
    data = json.loads(run_cli(tmp_path, argv + ["--max-lattice-candidates", "7",
                                                "--certify-bound", "3"]))
    assert data["certified"] == {"1": 1, "2": 1, "3": 3}


def test_check_generated_below_degree_is_validated(tmp_path, theta_file, capsys):
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": 3, "values": [0, 1]}))
    code = main(["check-generated", "--graph", theta_file, "--divisor", "K",
                 "--target", str(target), "--below-degree", "-1",
                 "--output", str(tmp_path / "out.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: below degree -1 is negative\n"
    assert not (tmp_path / "out.json").exists()


def test_check_generated_absent(tmp_path, theta_file):
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": 3, "values": [0, 1]}))
    text = run_cli(tmp_path, ["check-generated", "--graph", theta_file,
                              "--divisor", "K", "--target", str(target)],
                   expect_code=1)
    data = json.loads(text)
    assert data["generated_below"] is False


def test_check_generated_rejects_a_target_outside_the_linear_system(tmp_path, theta_file,
                                                                   capsys):
    # 3K + div f = (24, -18) is not effective, so there is no verdict to give
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": 3, "values": [0, 7]}))
    code = main(["check-generated", "--graph", theta_file, "--divisor", "K",
                 "--target", str(target), "--output", str(tmp_path / "out.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: target is not in R(G, 3D)\n"
    assert not (tmp_path / "out.json").exists()


def test_check_generated_rejects_a_negative_target_degree(tmp_path, theta_file, capsys):
    # constants lie in R(G, -2 * 0), so only the degree itself can refuse
    divisor = tmp_path / "zero.json"
    divisor.write_text(dumps({"coeffs": {}}))
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": -2, "values": [0, 0]}))
    code = main(["check-generated", "--graph", theta_file, "--divisor", str(divisor),
                 "--target", str(target), "--output", str(tmp_path / "out.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: target degree -2 is negative\n"
    assert not (tmp_path / "out.json").exists()


def test_rgd_and_extremals_reject_a_negative_degree(tmp_path, theta_file, capsys):
    # the graded semi-ring has no negative degrees, also where m * D is the
    # zero divisor whose constants rgd would otherwise list
    zero = tmp_path / "zero.json"
    zero.write_text(dumps({"coeffs": {}}))
    for command, divisor, m in (("rgd", str(zero), "-1"), ("extremals", "K", "-2")):
        code = main([command, "--graph", theta_file, "--divisor", divisor, "--m", m,
                     "--output", str(tmp_path / "out.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: graded degree {m} is negative\n"
        assert not (tmp_path / "out.json").exists()


def test_check_generated_present(tmp_path, theta_file):
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": 4, "values": [0, 1]}))
    data = json.loads(run_cli(tmp_path, ["check-generated", "--graph", theta_file,
                                         "--divisor", "K", "--target", str(target),
                                         "--below-degree", "3"]))
    assert data["generated_below"] is True


def test_verify_gn_command(tmp_path):
    data = json.loads(run_cli(tmp_path, ["verify-gn", "--n", "2"]))
    assert data["verified"] is True
    assert data["generated_below"] is False


def test_verify_gn_failed_leg_is_verified_false(tmp_path, monkeypatch):
    monkeypatch.setattr(tropdiv.generators, "is_extremal", lambda *args: False)
    data = json.loads(run_cli(tmp_path, ["verify-gn", "--n", "2"], expect_code=1))
    assert data == {"command": "verify-gn", "n": 2, "verified": False,
                    "error": "witness is not extremal"}


def test_verify_gn_does_not_hide_bugs(tmp_path, monkeypatch):
    def broken(*args):
        raise AssertionError("bug")

    monkeypatch.setattr(tropdiv.generators, "is_extremal", broken)
    with pytest.raises(AssertionError):
        main(["verify-gn", "--n", "2", "--output", str(tmp_path / "out.json")])


def test_trop_equiv_command(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(dumps(THETA_CURVE))
    d1 = tmp_path / "d1.json"
    d1.write_text(dumps({"points": [
        {"point": {"vertex": 0}, "coeff": 2},
        {"point": {"vertex": 1}, "coeff": 2}]}))
    d2 = tmp_path / "d2.json"
    d2.write_text(dumps({"points": [
        {"point": {"vertex": 0}, "coeff": 1},
        {"point": {"edge": 0, "offset": "2/3"}, "coeff": 3}]}))
    data = json.loads(run_cli(tmp_path, ["trop", "equiv", "--curve", str(curve),
                                         "--d1", str(d1), "--d2", str(d2)]))
    assert data["equivalent"] is True

    d3 = tmp_path / "d3.json"
    d3.write_text(dumps({"points": [
        {"point": {"edge": 0, "offset": "2/3"}, "coeff": 4}]}))
    data = json.loads(run_cli(tmp_path, ["trop", "equiv", "--curve", str(curve),
                                         "--d1", str(d1), "--d2", str(d3)],
                              expect_code=1))
    assert data["equivalent"] is False


@pytest.mark.parametrize("d1, code, digest", [
    ({"edge": 1, "offset": "1"}, 0,
     "f426d7c2fecd74ab66d01077e424846371456eeb260eab6f95159ca13dd6a799"),
    ({"edge": 0, "offset": "1/4"}, 1,
     "a04e2252418e0bbbf08ffde1ead65e8abcd4c6976c7c9500945f6802ad585847"),
])
def test_trop_equiv_on_non_integer_lengths(tmp_path, capsys, d1, code, digest):
    # theta with lengths 1/2, 3/2, 1: 3[e1@1] ~ [v0]+2[v1], while 3[e0@1/4] is not
    paths = {}
    for name, data in (
            ("curve", {"model": {"vertices": 2, "edges": [[0, 1]] * 3},
                       "lengths": {"0": "1/2", "1": "3/2", "2": "1"}}),
            ("d1", {"points": [{"point": d1, "coeff": 3}]}),
            ("d2", {"points": [{"point": {"vertex": 0}, "coeff": 1},
                               {"point": {"vertex": 1}, "coeff": 2}]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dumps(data))
    assert main(["trop", "equiv", "--curve", str(paths["curve"]),
                 "--d1", str(paths["d1"]), "--d2", str(paths["d2"])]) == code
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_trop_witness_command(tmp_path, instance_file):
    data = json.loads(run_cli(tmp_path, ["trop", "witness", "--instance",
                                         instance_file, "--s", "1"]))
    jsonschema.validate(data, WITNESS_SCHEMA)
    assert data["r"] == {"edge": 0, "offset": "2/3"}
    assert data["order_triple"] == [-1, -2, 3]
    assert data["obstruction_holds"] is True


THETA_WITNESS_DOT = """graph G {
  0 [label="p" color="red" xlabel="p"];
  1 [label="q" color="red" xlabel="q"];
  r [label="r@2/3" color="blue"];
  0 -- r [label="2/3"];
  r -- 1 [label="1/3"];
  0 -- 1 [label="1"];
  0 -- 1 [label="1"];
}
"""


def test_trop_witness_dot(tmp_path, instance_file):
    text = run_cli(tmp_path, ["trop", "witness", "--instance", instance_file,
                              "--s", "1", "--format", "dot"])
    assert text == THETA_WITNESS_DOT


def test_trop_witness_dot_escapes_labels(tmp_path):
    # DOT strings end at an unescaped quote and escape with a backslash
    instance = tmp_path / "instance.json"
    curve = {**THETA_CURVE, "model": {**THETA, "labels": ['p"x', "q\\"]}}
    instance.write_text(dumps({**THETA_INSTANCE, "curve": curve}))
    lines = run_cli(tmp_path, ["trop", "witness", "--instance", str(instance),
                               "--s", "1", "--format", "dot"]).splitlines()
    assert lines[1:3] == ['  0 [label="p\\"x" color="red" xlabel="p"];',
                          '  1 [label="q\\\\" color="red" xlabel="q"];']


def test_format_is_offered_only_by_trop_witness(tmp_path, theta_file, instance_file):
    for argv in (["rgd", "--graph", theta_file, "--divisor", "K", "--format", "text"],
                 ["rgd", "--graph", theta_file, "--divisor", "K", "--format", "json"],
                 ["trop", "witness", "--instance", instance_file, "--s", "1",
                  "--format", "text"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "out.txt")])
        assert exc.value.code == 2, argv


def test_trop_witness_failed_leg_exits_1(tmp_path, instance_file, monkeypatch,
                                         capsys):
    monkeypatch.setattr(tropdiv.witness, "is_extremal_metric",
                        lambda *args, **kwargs: False)
    code = main(["trop", "witness", "--instance", instance_file, "--s", "1",
                 "--output", str(tmp_path / "out.json")])
    assert code == 1
    assert "proof leg failed: extremal" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_trop_witness_failed_obstruction_exits_1(tmp_path, instance_file, monkeypatch,
                                                capsys):
    real = tropdiv.witness.indecomposability_check
    monkeypatch.setattr(tropdiv.witness, "indecomposability_check",
                        lambda inst, s: {**real(inst, s), "obstruction_holds": False})
    for fmt in ("json", "dot"):
        out = tmp_path / f"out.{fmt}"
        code = main(["trop", "witness", "--instance", instance_file, "--s", "1",
                     "--format", fmt, "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: obstruction fails below degree 2\n"
        assert not out.exists()
    assert main(["trop", "complete-graph", "--n", "4", "--s", "2",
                 "--output", str(tmp_path / "out.json")]) == 1
    assert not (tmp_path / "out.json").exists()


@pytest.fixture
def k4_instance_file(tmp_path):
    edges = [[i, j] for i in range(4) for j in range(i + 1, 4)]
    path = tmp_path / "k4.json"
    path.write_text(dumps({
        "curve": {"model": {"vertices": 4, "edges": edges},
                  "lengths": {str(e): "1" for e in range(6)}},
        "divisor": "K", "edge": 0, "n": 2}))
    return str(path)


def test_trop_witness_factors_two_models(tmp_path, k4_instance_file, smith_calls):
    # K_4, s = 2: one model for the hypotheses, one for the obstruction table
    data = json.loads(run_cli(tmp_path, ["trop", "witness", "--instance",
                                         k4_instance_file, "--s", "2"]))
    assert data["obstruction_holds"] is True
    assert len(smith_calls) == 2


def test_max_vertices_caps_the_metric_firing_search(tmp_path, k4_instance_file):
    # K_4, s = 2: the witness's firing search on the support model has 4 parts
    for argv in (["trop", "complete-graph", "--n", "4", "--s", "2"],
                 ["trop", "witness", "--instance", k4_instance_file, "--s", "2"]):
        data = json.loads(run_cli(tmp_path, argv + ["--max-vertices", "3"], expect_code=3))
        assert data == {"detail": "firing search parts: 4 exceeds budget 3",
                        "error": "budget exceeded"}
        run_cli(tmp_path, argv + ["--max-vertices", "4"])


BUDGET_SURFACE = {
    ("rgd", "--graph", "g.json", "--divisor", "K"): {"--max-lattice-candidates"},
    ("extremals", "--graph", "g.json", "--divisor", "K"):
        {"--max-vertices", "--max-lattice-candidates"},
    ("generators", "--graph", "g.json", "--divisor", "K"):
        {"--max-degree", "--max-lattice-candidates"},
    ("check-generated", "--graph", "g.json", "--divisor", "K", "--target", "t.json"):
        {"--max-degree", "--max-products", "--max-lattice-candidates"},
    ("verify-gn", "--n", "2"):
        {"--max-vertices", "--max-degree", "--max-products", "--max-lattice-candidates"},
    ("trop", "equiv", "--curve", "c.json", "--d1", "a.json", "--d2", "b.json"): set(),
    ("trop", "witness", "--instance", "i.json", "--s", "1"): {"--max-vertices"},
    ("trop", "complete-graph", "--n", "4"): {"--max-vertices"},
}
ALL_BUDGET_FLAGS = {"--max-vertices", "--max-degree", "--max-products",
                    "--max-lattice-candidates"}


def _leaf_parsers(parser=None, path=()):
    """(path, parser) for every subcommand that takes no further subcommand."""
    parser = parser or build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def _budget_flags(parser):
    return {opt for action in parser._actions for opt in action.option_strings
            if opt.startswith("--max-")}


@pytest.mark.parametrize("argv", sorted(BUDGET_SURFACE), ids=lambda argv: argv[0] + (
    f"-{argv[1]}" if argv[0] == "trop" else ""))
def test_each_subcommand_offers_only_the_caps_it_reads(tmp_path, capsys, argv):
    path = argv[:2] if argv[0] == "trop" else argv[:1]
    flags = _budget_flags(dict(_leaf_parsers())[path])
    assert flags == BUDGET_SURFACE[argv]
    for flag in sorted(ALL_BUDGET_FLAGS - flags):
        with pytest.raises(SystemExit) as exc:
            main(list(argv) + [flag, "5", "--output", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_budget_flags_fill_fourteen_slots_over_every_subcommand():
    leaves = dict(_leaf_parsers())
    assert len(leaves) == len(BUDGET_SURFACE) == 8
    assert sum(len(_budget_flags(parser)) for parser in leaves.values()) == 14



def test_every_leaf_registers_its_own_handler():
    # argparse routes each subcommand once, straight to the handler its
    # subparser registered
    leaves = dict(_leaf_parsers())
    handlers = {path: parser.get_default("run") for path, parser in leaves.items()}
    assert all(callable(run) for run in handlers.values()), handlers
    assert len(set(handlers.values())) == len(leaves)


@pytest.mark.parametrize("argv", [[], ["trop"]], ids=["top", "trop"])
def test_a_missing_subcommand_exits_2_in_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the following arguments are required" in captured.err

def test_trop_complete_graph_command(tmp_path):
    data = json.loads(run_cli(tmp_path, ["trop", "complete-graph", "--n", "4",
                                         "--s", "2"]))
    assert data["genus"] == 3
    assert data["n_param"] == 2
    assert data["hypotheses"]["all_pass"] is True
    cert = data["certificates"][0]
    assert cert["degree"] == 4
    assert cert["r"] == {"edge": 0, "offset": "8/15"}


def test_deterministic_output(tmp_path, theta_file):
    a = run_cli(tmp_path, ["rgd", "--graph", theta_file, "--divisor", "K", "--m", "2"])
    b = run_cli(tmp_path, ["rgd", "--graph", theta_file, "--divisor", "K", "--m", "2"])
    assert a == b


def test_input_error_exit_code(tmp_path, capsys):
    code = main(["rgd", "--graph", "/nonexistent.json", "--divisor", "K"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_non_numeric_json_integers_are_input_errors(tmp_path, theta_file, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(dumps({"vertices": "abc", "edges": [[0, 1]]}))
    values = tmp_path / "values.json"
    values.write_text(dumps({"degree": 3, "values": ["x", 1]}))
    degree = tmp_path / "degree.json"
    degree.write_text(dumps({"degree": "x", "values": [0, 1]}))
    instance = tmp_path / "instance.json"
    instance.write_text(dumps({**THETA_INSTANCE, "edge": "x"}))
    for argv in (["rgd", "--graph", str(graph), "--divisor", "K"],
                 ["check-generated", "--graph", theta_file, "--divisor", "K",
                  "--target", str(values)],
                 ["check-generated", "--graph", theta_file, "--divisor", "K",
                  "--target", str(degree)],
                 ["trop", "witness", "--instance", str(instance), "--s", "1"]):
        assert main(argv + ["--output", str(tmp_path / "out.json")]) == 2, argv
        assert "expected an integer" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


MALFORMED = {
    "coeffs-not-an-object": ("divisor", {"coeffs": [1, 1]}),
    "three-ended-edge": ("graph", {**THETA, "edges": [[0, 1, 2]]}),
    "labels-not-an-array": ("graph", {**THETA, "labels": 5}),
    "not-utf-8": ("graph", b'{"vertices": 2, "labels": ["\xff"]}'),
    "target-sized-to-another-graph": ("target", {"degree": 3, "values": [0]}),
    "is-refinement-not-a-boolean": (
        "instance", {**THETA_INSTANCE,
                     "curve": {**THETA_CURVE, "is_refinement": "no"}}),
    "length-a-boolean": (
        "instance", {**THETA_INSTANCE,
                     "curve": {**THETA_CURVE, "lengths": {"0": True, "1": "1", "2": "1"}}}),
    "length-in-exponent-notation": (
        "instance", {**THETA_INSTANCE,
                     "curve": {**THETA_CURVE, "lengths": {"0": "1e0", "1": "1", "2": "1"}}}),
    "edges-as-strings": ("graph", {**THETA, "edges": ["01", "01", "01"]}),
    "edges-as-an-object": ("graph", {**THETA, "edges": {"01": 0, "10": 0, "11": 0}}),
    "values-as-a-string": ("target", {"degree": 3, "values": "00"}),
    "points-as-a-string": ("instance", {**THETA_INSTANCE, "divisor": {"points": ""}}),
    "vertices-not-decimal": ("graph", {**THETA, "vertices": "0_2"}),
    "integer-past-the-digit-limit": ("graph", b'{"vertices": ' + b"9" * 5000 + b"}"),
    "arrays-nested-too-deeply": ("graph", b"[" * 100000 + b"]" * 100000),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_an_input_error(tmp_path, theta_file, capsys, case):
    # exits 0 and 1 are verdicts, so a malformed file must exit 2 before any
    slot, content = MALFORMED[case]
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(dumps(content))
    argv = {"divisor": ["rgd", "--graph", theta_file, "--divisor", str(bad)],
            "graph": ["rgd", "--graph", str(bad), "--divisor", "K"],
            "target": ["check-generated", "--graph", theta_file, "--divisor", "K",
                       "--target", str(bad)],
            "instance": ["trop", "witness", "--instance", str(bad), "--s", "1"]}[slot]
    assert main(argv + ["--output", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.json").exists()


@pytest.fixture
def rgd_calls(monkeypatch):
    """Degrees the generators module enumerates while the test runs."""
    calls = []
    original = tropdiv.generators.rgd_enumerate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("degree"))
        return original(*args, **kwargs)

    monkeypatch.setattr(tropdiv.generators, "rgd_enumerate", counted)
    return calls


def test_budget_exit_code(tmp_path, theta_file, rgd_calls):
    # the target's degree is checked before any lower degree is listed
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": 99, "values": [0, 1]}))
    code = main(["check-generated", "--graph", theta_file, "--divisor", "K",
                 "--target", str(target), "--max-degree", "10",
                 "--output", str(tmp_path / "out.json")])
    assert code == 3
    data = json.loads((tmp_path / "out.json").read_text())
    assert data == {"detail": "degree 99 exceeds budget 10", "error": "budget exceeded"}
    assert rgd_calls == []


def test_check_generated_lists_no_degree_above_the_target(tmp_path, rgd_calls):
    graph = tmp_path / "k4.json"
    graph.write_text(dumps({"vertices": 4,
                            "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}))
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": 1, "values": [0, 0, 0, 0]}))
    data = json.loads(run_cli(tmp_path, ["check-generated", "--graph", str(graph),
                                         "--divisor", "K", "--target", str(target),
                                         "--below-degree", "30"]))
    assert data["generated"] is True
    assert data["search_bound"] == 30
    assert rgd_calls == [1]



def test_budget_exit_writes_its_json_to_stdout_without_output(theta_file, capsys):
    code = main(["generators", "--graph", theta_file, "--divisor", "K",
                 "--certify-bound", "20", "--max-degree", "10"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ('{\n  "detail": "degree 20 exceeds budget 10",\n'
                            '  "error": "budget exceeded"\n}\n')
    assert captured.err == ""


def test_rgd_reads_the_candidate_budget(tmp_path):
    # R(G_4, 3K): 20 vertices and 6 chips give C(25, 6) = 177,100 candidates
    graph, _ = build_gn(4)
    path = tmp_path / "g4.json"
    path.write_text(dumps({"vertices": graph.vertex_count,
                           "edges": [list(e) for e in graph.edges]}))
    argv = ["rgd", "--graph", str(path), "--divisor", "K", "--m", "3"]
    data = json.loads(run_cli(tmp_path, argv + ["--max-lattice-candidates", "177099"],
                              expect_code=3))
    assert data == {"detail": "lattice candidates: 177100 exceeds budget 177099",
                    "error": "budget exceeded"}
    data = json.loads(run_cli(tmp_path, argv + ["--max-lattice-candidates", "177100"]))
    assert data["count"] == 1320


@pytest.mark.parametrize("argv, count", [
    (["extremals", "--graph", "THETA", "--divisor", "K"], 3),
    (["check-generated", "--graph", "THETA", "--divisor", "K", "--target", "TARGET"], 3),
    (["verify-gn", "--n", "2"], 36)], ids=lambda x: x[0] if isinstance(x, list) else str(x))
def test_each_enumerating_subcommand_reads_the_candidate_budget(tmp_path, theta_file,
                                                                argv, count):
    # each reaches rgd_enumerate, whose first linear system has count candidates
    target = tmp_path / "target.json"
    target.write_text(dumps({"degree": 3, "values": [0, 1]}))
    argv = [{"THETA": theta_file, "TARGET": str(target)}.get(x, x) for x in argv]
    data = json.loads(run_cli(tmp_path, argv + ["--max-lattice-candidates", str(count - 1)],
                              expect_code=3))
    assert data == {"detail": f"lattice candidates: {count} exceeds budget {count - 1}",
                    "error": "budget exceeded"}


def test_verify_gn_5_exceeds_the_candidate_budget(tmp_path):
    code = main(["verify-gn", "--n", "5", "--output", str(tmp_path / "out.json")])
    assert code == 3
    data = json.loads((tmp_path / "out.json").read_text())
    assert data["detail"] == "lattice candidates: 13884156 exceeds budget 2000000"


def test_unwritable_output_exits_2(tmp_path, theta_file, capsys):
    # a missing directory and a directory path, for a result and for the
    # budget-exceeded payload
    for argv in (["rgd", "--graph", theta_file, "--divisor", "K"],
                 ["generators", "--graph", theta_file, "--divisor", "K",
                  "--certify-bound", "20", "--max-degree", "10"]):
        for output in (tmp_path / "missing" / "out.json", tmp_path):
            assert main(argv + ["--output", str(output)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {output}: ")
    assert not (tmp_path / "missing").exists()


HUGE_GRAPH_CHECK = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tropdiv.cli import main
sys.exit(main(["rgd", "--graph", sys.argv[1], "--divisor", "K"]))
"""


def test_graph_with_too_few_edges_is_refused_before_allocating(tmp_path):
    # 10^12 vertices and no edge: a per-vertex allocation would need terabytes,
    # so the child's 1 GiB address-space cap turns one into a MemoryError
    graph = tmp_path / "huge.json"
    graph.write_text(dumps({"vertices": 10 ** 12, "edges": []}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_GRAPH_CHECK, str(graph)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr == "error: edge list does not connect all vertices\n"
    assert proc.stdout == ""


def test_import_leaves_numpy_unloaded():
    # numpy is a test-only dependency; the package must not import it
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tropdiv, tropdiv.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point(tmp_path, theta_file):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tropdiv.cli", "rgd", "--graph", theta_file,
         "--divisor", "K"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1


RGD_OPTIMIZED_CHECK = """
import sys
import tropdiv.linear_systems as linear_systems
from tropdiv.cli import build_parser, main

linear_systems.rgd_member = lambda *args: False
code = main(["rgd", "--graph", sys.argv[1], "--divisor", "K", "--m", "3",
             "--output", sys.argv[2]])
print(__debug__, code)
"""


def test_rgd_membership_replay_survives_optimized_mode(tmp_path, theta_file):
    # python -O strips assert statements; every element's replay must not be one
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RGD_OPTIMIZED_CHECK, theta_file,
         str(tmp_path / "out.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]
    assert "membership replay" in proc.stderr
    assert not (tmp_path / "out.json").exists()

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import tropdiv.metric
import tropdiv.witness
from tropdiv.errors import CertificateError, HypothesisFailure, InputError
from tropdiv.metric import (MetricDivisor, Point, build_metric_graph,
                            canonical_divisor_metric, linear_equiv_metric)
from tropdiv.witness import (WitnessInstance, build_witness, check_hypotheses,
                             complete_graph_instance, indecomposability_check,
                             nonfinite_certificate)

from oracles import value_at


@pytest.fixture
def theta_instance():
    graph = build_metric_graph(2, [(0, 1)] * 3, [1, 1, 1], labels=["p", "q"])
    return WitnessInstance(graph, canonical_divisor_metric(graph), edge=0, n=1)


def test_check_hypotheses_theta(theta_instance):
    report = check_hypotheses(theta_instance)
    assert report["all_pass"]
    assert report["checks"]["endpoint_equivalence"]
    # K equals [p]+[q] on the nose: the witness is a constant
    w = report["equivalence_witness"]
    assert w.div() == MetricDivisor.zero(theta_instance.graph)


def test_check_hypotheses_bridge_failure():
    # dumbbell: two loops joined by a bridge; divisor on the bridge endpoints
    graph = build_metric_graph(2, [(0, 0), (1, 1), (0, 1)], [1, 1, 1])
    div = MetricDivisor.of(graph, {Point.vertex(0): 1, Point.vertex(1): 1})
    inst = WitnessInstance(graph, div, edge=2, n=2)
    report = check_hypotheses(inst)
    assert report["checks"]["edge_not_bridge"] is False
    assert not report["all_pass"]
    with pytest.raises(HypothesisFailure):
        build_witness(inst, 2)


def test_build_witness_theta_s1(theta_instance):
    res = build_witness(theta_instance, 1)
    assert res.r == theta_instance.graph.point(0, F(2, 3))
    assert res.order_triple == (-1, -2, 3)
    assert value_at(res.ftilde, res.r) == F(-2, 3)
    assert res.degree == 2
    assert all(res.claims.values())


def test_build_witness_theta_s2(theta_instance):
    res = build_witness(theta_instance, 2)
    assert res.r == theta_instance.graph.point(0, F(4, 7))
    assert value_at(res.ftilde, res.r) == F(-12, 7)
    assert res.order_triple == (-3, -4, 7)
    assert res.degree == 4


def test_build_witness_rejects_bad_s(theta_instance):
    with pytest.raises(InputError):
        build_witness(theta_instance, 0)
    k4 = complete_graph_instance(4)
    with pytest.raises(InputError):
        build_witness(k4, 3)  # must be a multiple of n = 2


def test_witness_divisor_identity(theta_instance):
    for s in (1, 2):
        res = build_witness(theta_instance, s)
        lhs = res.degree * theta_instance.divisor + res.f.div()
        rhs = MetricDivisor.of(theta_instance.graph,
                               {Point.vertex(0): 1, res.r: 2 * res.big_n - 1})
        assert lhs == rhs
        assert lhs.degree() == 2 * res.big_n
        assert not theta_instance.graph.is_z_point(res.r)


def test_indecomposability_theta(theta_instance):
    for s in (1, 2):
        report = indecomposability_check(theta_instance, s)
        assert report["obstruction_holds"]
        assert all(report["rows"][k] is False for k in range(1, 2 * s))


def test_indecomposability_k4():
    inst = complete_graph_instance(4)
    report = indecomposability_check(inst, 2)
    assert report["degree"] == 4
    assert all(report["rows"][k] is False for k in (1, 2, 3))
    # first admissible degree is genuinely solvable here, which exercises
    # the divisibility assertion inside the check
    assert report["rows"][15] is True


def test_nonfinite_certificate_theta(theta_instance):
    report = nonfinite_certificate(theta_instance, [1, 2])
    degrees = [c.degree for c in report["certificates"]]
    assert degrees == [2, 4]
    assert all(c.obstruction["obstruction_holds"] for c in report["certificates"])


def test_nonfinite_certificate_empty_list(theta_instance):
    with pytest.raises(InputError):
        nonfinite_certificate(theta_instance, [])


def test_complete_graph_instances():
    k4 = complete_graph_instance(4)
    assert k4.genus == 3
    assert k4.d == 4
    assert k4.n == 2
    assert check_hypotheses(k4)["all_pass"]

    k5 = complete_graph_instance(5)
    assert k5.genus == 6
    assert k5.d == 10
    assert k5.n == 1
    rep = check_hypotheses(k5)
    assert rep["all_pass"]
    # odd case: K itself is equivalent to 5[v] + 5[w]
    w = rep["equivalence_witness"]
    assert w.div() == k5.endpoints_divisor(5) - canonical_divisor_metric(k5.graph)


def test_complete_graph_longer_edges():
    inst = complete_graph_instance(4, edge_len=2)
    assert inst.length == 2
    res = build_witness(inst, 2)
    # degree scales with the edge length: 2 * s * L
    assert res.degree == 8


def test_k4_witness_pipeline():
    inst = complete_graph_instance(4)
    res = build_witness(inst, 2)
    assert res.r == inst.graph.point(0, F(8, 15))
    assert res.order_triple == (-7, -8, 15)
    assert value_at(res.ftilde, res.r) == F(-56, 15)
    assert res.degree == 4


def test_rejects_small_complete_graphs():
    with pytest.raises(InputError):
        complete_graph_instance(3)


def test_obstruction_table_shares_one_refined_model(smith_calls):
    report = indecomposability_check(complete_graph_instance(4), 2)
    assert len(report["rows"]) == 4
    # every row lives on the 1/15 grid: one model of 4 + 6*14 vertices
    assert smith_calls == [88]


def test_obstruction_table_k6_s2(smith_calls):
    report = indecomposability_check(complete_graph_instance(6), 2)
    assert report["degree"] == 4 and report["first_admissible"] == 71
    assert all(report["rows"][k] is False for k in (1, 2, 3))
    assert report["obstruction_holds"]
    # the 1/71 grid on K_6: 6 + 15*70 vertices, factored once
    assert smith_calls == [1056]


def test_obstruction_table_k5_s4():
    report = indecomposability_check(complete_graph_instance(5), 4)
    assert report["degree"] == 8 and report["first_admissible"] == 79
    assert all(report["rows"][k] is False for k in range(1, 8))
    assert report["obstruction_holds"]


def test_certificate_decides_hypotheses_once(smith_calls):
    inst = complete_graph_instance(4)
    report = nonfinite_certificate(inst, [2, 4])
    assert report["hypotheses"] is check_hypotheses(inst)
    # one solve for the hypotheses, one refined model per obstruction table
    assert len(smith_calls) == 3


def test_s_witness_is_a_power_of_the_hypothesis_witness(theta_instance):
    k4 = complete_graph_instance(4)
    for inst, s in ((theta_instance, 2), (k4, 2), (k4, 4)):
        power = check_hypotheses(inst)["equivalence_witness"].power(s // inst.n)
        half = inst.endpoints_divisor(s * inst.d // 2)
        assert power == linear_equiv_metric(inst.graph, half, s * inst.divisor)
        assert power.min_value() == 0


def test_failed_extremality_voids_the_witness(theta_instance, monkeypatch):
    monkeypatch.setattr(tropdiv.witness, "is_extremal_metric",
                        lambda *args, **kwargs: False)
    with pytest.raises(CertificateError, match="extremal"):
        build_witness(theta_instance, 1)
    with pytest.raises(CertificateError):
        nonfinite_certificate(theta_instance, [1])


def test_failed_obstruction_voids_the_certificate(theta_instance, monkeypatch):
    real = indecomposability_check
    monkeypatch.setattr(tropdiv.witness, "indecomposability_check",
                        lambda inst, s: {**real(inst, s), "obstruction_holds": False})
    with pytest.raises(CertificateError, match="obstruction fails below degree 2"):
        build_witness(theta_instance, 1)
    with pytest.raises(CertificateError):
        nonfinite_certificate(theta_instance, [1])


def test_witness_carries_its_obstruction_table(theta_instance):
    res = build_witness(theta_instance, 2)
    assert res.obstruction == indecomposability_check(theta_instance, 2)
    assert res.obstruction["degree"] == res.degree


def test_failed_obstruction_row_voids_the_table(theta_instance, monkeypatch):
    # a solvable row below 2LN-1 contradicts the integrality argument
    monkeypatch.setattr(tropdiv.metric.Refinement, "linear_equiv",
                        lambda self, d1, d2: True)
    with pytest.raises(CertificateError, match="2LN-1"):
        indecomposability_check(theta_instance, 1)


OPTIMIZED_CHECK = """
import sys
import tropdiv.witness as witness
from tropdiv.cli import main
from tropdiv.errors import CertificateError
from tropdiv.metric import build_metric_graph, canonical_divisor_metric

witness.is_extremal_metric = lambda *args, **kwargs: False
graph = build_metric_graph(2, [(0, 1)] * 3, [1, 1, 1])
inst = witness.WitnessInstance(graph, canonical_divisor_metric(graph), edge=0, n=1)
try:
    witness.build_witness(inst, 1)
    raised = False
except CertificateError:
    raised = True
code = main(["trop", "witness", "--instance", sys.argv[1], "--s", "1",
             "--output", sys.argv[2]])
print(__debug__, raised, code)
"""


def test_proof_legs_survive_optimized_mode(tmp_path):
    # python -O strips assert statements; the legs must not depend on them
    instance = tmp_path / "instance.json"
    instance.write_text('{"curve": {"model": {"vertices": 2, "edges": '
                        '[[0, 1], [0, 1], [0, 1]]}, "lengths": {"0": "1", '
                        '"1": "1", "2": "1"}}, "divisor": "K", "edge": 0, "n": 1}')
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK, str(instance),
         str(tmp_path / "out.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "1"]
    assert "proof leg failed: extremal" in proc.stderr
    assert not (tmp_path / "out.json").exists()

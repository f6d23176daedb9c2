#!/usr/bin/env python3
"""Z-metric graphs: no finite generating set for the canonical semi-ring.

On a Z-metric graph satisfying the endpoint-equivalence hypothesis, every
multiple s of n yields an extremal element of degree 2sL whose defining
divisor [p] + (2LN-1)[r] pins r at a non-integral point; lower-degree
products would force an equivalence k*D ~ kd[r] that exact refined solves
refute.  The generator degrees 2sL are unbounded, so no finite set works.
"""

from tropdiv import (build_metric_graph, build_witness,
                     canonical_divisor_metric, check_hypotheses,
                     complete_graph_instance, metric_firing_subgraphs,
                     nonfinite_certificate, WitnessInstance)

# the metric theta with unit lengths: the smallest hyperelliptic example
theta = build_metric_graph(2, [(0, 1)] * 3, [1, 1, 1], labels=["p", "q"])
k = canonical_divisor_metric(theta)
print("K on the metric theta:", [(p.describe(theta), c) for p, c in k.items])

inst = WitnessInstance(theta, k, edge=0, n=1)
print("hypotheses:", check_hypotheses(inst)["checks"])

for s in (1, 2):
    res = build_witness(inst, s)
    print(f"s={s}: witness degree {res.degree}, r at {res.r.offset} "
          f"(not a Z-point), orders at (p, q, r): {res.order_triple}")
    print(f"  kK ~ 2k[r] solvable below degree {res.degree}?",
          {j: res.obstruction["rows"][j] for j in range(1, res.degree)})

# the firing family certifying extremality at s=1
res = build_witness(inst, 1)
family = metric_firing_subgraphs(theta, 2 * k + res.f.div())
print("firing subgraphs on [p] + 3[r]:")
for sub in family:
    print("   vertices", set(sub.vertices), "intervals", dict(sub.intervals))

# a bundle of certificates standing in for the unbounded induction
report = nonfinite_certificate(inst, [1, 2])
print("certificate degrees:", [c.degree for c in report["certificates"]])
print(report["conclusion"])

# complete graphs: K4 goes through n=2 (even), K5 through n=1 (odd)
for n in (4, 5):
    cg = complete_graph_instance(n)
    rep = check_hypotheses(cg)
    print(f"K{n}: genus {cg.genus}, deg K = {cg.d}, n_param = {cg.n}, "
          f"hypotheses pass: {rep['all_pass']}")

res4 = build_witness(complete_graph_instance(4), 2)
print("K4, s=2: r at", res4.r.offset, "orders", res4.order_triple)
print("ok")

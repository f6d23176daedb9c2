"""Command-line front door.

Exit codes: 0 computed/verified, 1 verified-false (an asked-for property
does not hold, or a certificate's proof leg failed with CertificateError),
2 input error, 3 budget exceeded.  Output is deterministic JSON on stdout
(DOT for `trop witness --format dot`); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .budget import DEFAULT_BUDGET, Budget
from .errors import (BudgetExceeded, CertificateError, HypothesisFailure,
                     InputError, NotMember, TropdivError)
from .generators import (certify_basis, decompose, elements_below, graded_cone,
                         hilbert_basis, verify_gn)
from .graphs import canonical_divisor
from .linear_systems import RgdElement, extremals, rgd_enumerate, rgd_member
from .metric import linear_equiv_metric
from .serialize import (divisor_from_json, dumps, element_to_json, frac_to_json,
                        graph_from_json, instance_from_json, load_json_file,
                        metric_divisor_from_json, metric_divisor_to_json,
                        metric_graph_from_json, pl_function_to_json, point_to_json,
                        target_from_json)
from .witness import build_witness, check_hypotheses, complete_graph_instance


# budget flag -> (Budget field, help); a subcommand offers only the caps its
# searches read
BUDGET_FLAGS = {
    "--max-vertices": ("max_firing_vertices",
                       "cap on support points plus zero-chip components "
                       "in an exhaustive firing-subset search (the replay "
                       "of an extremal answer, and the metric firing "
                       "search of trop witness and trop complete-graph)"),
    "--max-degree": ("max_degree", "largest graded degree searched or certified"),
    "--max-products": ("max_products",
                       "cap on degree-exact products per decomposition"),
    "--max-lattice-candidates": ("max_lattice_candidates",
                                 "cap on the lattice candidates of each linear "
                                 "system enumerated and on the parallelepiped "
                                 "classes of a Hilbert basis"),
}


# the "units" of a `generators` answer: a GeneratorSet lists degrees >= 1 only
UNITS = "constant functions at degree 0 (tropical units)"


def _add_common(parser, run, *flags):
    parser.set_defaults(run=run)
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")
    for flag in flags:
        field, text = BUDGET_FLAGS[flag]
        parser.add_argument(flag, type=int, dest=field,
                            default=getattr(DEFAULT_BUDGET, field), help=text)


def _add_graph_divisor(parser, divisor_help=None):
    parser.add_argument("--graph", required=True)
    parser.add_argument("--divisor", required=True, help=divisor_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropdiv",
        description="Divisor theory and canonical semi-rings of finite "
                    "graphs and Z-metric graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rgd", help="enumerate R(G, m*D) modulo constants")
    _add_graph_divisor(p, "path to divisor JSON, or 'K' for the canonical divisor")
    p.add_argument("--m", type=int, default=1)
    _add_common(p, _run_rgd, "--max-lattice-candidates")

    p = sub.add_parser("extremals", help="extremal representatives of R(G, m*D)")
    _add_graph_divisor(p)
    p.add_argument("--m", type=int, default=1)
    _add_common(p, _run_extremals, "--max-vertices", "--max-lattice-candidates")

    p = sub.add_parser("generators", help="Hilbert basis of the graded semi-ring")
    _add_graph_divisor(p)
    p.add_argument("--certify-bound", type=int, default=0,
                   help="also certify every degree up to this bound")
    _add_common(p, _run_generators, "--max-degree", "--max-lattice-candidates")

    p = sub.add_parser("check-generated",
                       help="decompose a target over lower-degree elements")
    _add_graph_divisor(p)
    p.add_argument("--target", required=True,
                   help="JSON with 'values' and 'degree'")
    p.add_argument("--below-degree", type=int, default=None,
                   help="use generators of degree <= this (default: degree-1)")
    _add_common(p, _run_check_generated, "--max-degree", "--max-products",
                "--max-lattice-candidates")

    p = sub.add_parser("verify-gn", help="unbounded generator degree certificate")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, _run_verify_gn, "--max-vertices", "--max-degree", "--max-products",
                "--max-lattice-candidates")

    trop = sub.add_parser("trop", help="Z-metric graph commands")
    tropsub = trop.add_subparsers(dest="trop_command", required=True)

    p = tropsub.add_parser("equiv", help="decide linear equivalence of metric divisors")
    p.add_argument("--curve", required=True)
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    _add_common(p, _run_trop_equiv)

    p = tropsub.add_parser("witness", help="build the non-generation witness")
    p.add_argument("--instance", required=True,
                   help="JSON with 'curve', 'divisor' ('K' allowed), 'edge', 'n'")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json", dest="fmt")
    _add_common(p, _run_trop_witness, "--max-vertices")

    p = tropsub.add_parser("complete-graph",
                           help="instance on the complete graph K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--len", type=int, default=1, dest="edge_len")
    p.add_argument("--s", type=int, nargs="*", default=[])
    _add_common(p, _run_trop_complete_graph, "--max-vertices")

    return parser


def _budget(args):
    caps = {field: getattr(args, field) for field, _ in BUDGET_FLAGS.values()
            if hasattr(args, field)}
    if any(cap <= 0 for cap in caps.values()):
        raise InputError("budgets must be positive")
    return Budget(**caps)


def _load_graph_divisor(args):
    graph = graph_from_json(load_json_file(args.graph))
    if args.divisor == "K":
        divisor = canonical_divisor(graph)
    else:
        divisor = divisor_from_json(load_json_file(args.divisor), graph)
    return graph, divisor


def _witness_payload(result):
    return {
        "s": result.s,
        "degree": result.degree,
        "N": result.big_n,
        "r": point_to_json(result.r),
        "order_triple": list(result.order_triple) if result.order_triple else None,
        "claims": result.claims,
        "ftilde": pl_function_to_json(result.ftilde),
        "f": pl_function_to_json(result.f),
        "obstruction": {str(k): v for k, v in result.obstruction["rows"].items()},
        "obstruction_holds": result.obstruction["obstruction_holds"],
    }


def _witness_dot(inst, result):
    """Model rendering with p, q highlighted and r spliced into its edge."""
    g = inst.graph
    lines = ["graph G {"]
    for x in range(g.model.vertex_count):
        label = g.model.label_of(x)
        extra = ""
        if x == inst.p:
            extra = ' color="red" xlabel="p"'
        elif x == inst.q:
            extra = ' color="red" xlabel="q"'
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {x} [label="{label}"{extra}];')
    lines.append(f'  r [label="r@{frac_to_json(result.r.offset)}" color="blue"];')
    for e, (u, v) in enumerate(g.model.edges):
        if e == inst.edge:
            off = frac_to_json(result.r.offset)
            rest = frac_to_json(g.lengths[e] - result.r.offset)
            lines.append(f'  {u} -- r [label="{off}"];')
            lines.append(f'  r -- {v} [label="{rest}"];')
        else:
            lines.append(f'  {u} -- {v} [label="{frac_to_json(g.lengths[e])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _hypotheses_payload(report):
    out = {"checks": dict(report["checks"]), "all_pass": report["all_pass"]}
    w = report.get("equivalence_witness")
    if w is not None:
        out["equivalence_witness"] = pl_function_to_json(w)
    return out


# One handler per leaf subcommand: (args, budget) -> (exit code, payload).
# Each reads the library through this module's globals at call time, so a
# rebinding of those names (as bench/tracing.py does) reaches every command.

def _elements_payload(command, degree, elements):
    return {"command": command, "degree": degree, "count": len(elements),
            "elements": [element_to_json(el) for el in elements]}


def _run_rgd(args, budget):
    graph, divisor = _load_graph_divisor(args)
    return 0, _elements_payload("rgd", args.m, rgd_enumerate(
        graph, args.m * divisor, degree=args.m, budget=budget))


def _run_extremals(args, budget):
    graph, divisor = _load_graph_divisor(args)
    return 0, _elements_payload("extremals", args.m, extremals(
        graph, args.m * divisor, degree=args.m, budget=budget))


def _run_generators(args, budget):
    graph, divisor = _load_graph_divisor(args)
    basis = hilbert_basis(graded_cone(graph, divisor), budget)
    payload = {"command": "generators",
               "degrees": basis.degrees(),
               "units": UNITS,
               "elements": [element_to_json(el) for el in basis.elements]}
    if args.certify_bound:
        report = certify_basis(basis, args.certify_bound, budget)
        payload["certified"] = {str(m): c for m, c in report.items()}
    return 0, payload


def _run_check_generated(args, budget):
    if args.below_degree is not None and args.below_degree < 0:
        raise InputError(f"below degree {args.below_degree} is negative")
    graph, divisor = _load_graph_divisor(args)
    degree, function = target_from_json(load_json_file(args.target), graph)
    target_f = function.normalized()
    if not rgd_member(graph, degree * divisor, target_f):
        raise NotMember(f"target is not in R(G, {degree}D)")
    budget.check_degree(degree)
    below = args.below_degree if args.below_degree is not None else degree - 1
    # decompose drops every element above the target's degree
    gens = elements_below(graph, divisor, min(below, degree), budget)
    cert = decompose(RgdElement(degree, target_f), gens, budget)
    payload = {"command": "check-generated",
               "generated": cert.generated,
               "generated_below": cert.generated,
               "search_bound": below,
               "products_checked": cert.products_checked,
               "search": cert.search_description,
               "terms": [{"shift": s, "product": list(prod)}
                         for s, prod in cert.terms]}
    return (0 if cert.generated else 1), payload


def _run_verify_gn(args, budget):
    try:
        report = verify_gn(args.n, budget)
    except CertificateError as exc:
        return 1, {"command": "verify-gn", "n": args.n,
                   "verified": False, "error": str(exc)}
    report = dict(report)
    if "obstruction" in report:
        report["obstruction"] = {str(k): v for k, v in report["obstruction"].items()}
    report["command"] = "verify-gn"
    report["verified"] = True
    return 0, report


def _run_trop_equiv(args, budget):
    curve = metric_graph_from_json(load_json_file(args.curve))
    d1 = metric_divisor_from_json(load_json_file(args.d1), curve)
    d2 = metric_divisor_from_json(load_json_file(args.d2), curve)
    w = linear_equiv_metric(curve, d1, d2)
    payload = {"command": "trop equiv",
               "equivalent": w is not None,
               "witness": pl_function_to_json(w) if w is not None else None}
    return (0 if w is not None else 1), payload


def _run_trop_witness(args, budget):
    inst = instance_from_json(load_json_file(args.instance))
    try:
        result = build_witness(inst, args.s, budget=budget)
    except HypothesisFailure as exc:
        return 1, {"command": "trop witness", "verified": False,
                   "error": str(exc),
                   "hypotheses": _hypotheses_payload(check_hypotheses(inst))}
    if args.fmt == "dot":
        return 0, _witness_dot(inst, result)
    payload = _witness_payload(result)
    payload["command"] = "trop witness"
    return 0, payload


def _run_trop_complete_graph(args, budget):
    inst = complete_graph_instance(args.n, args.edge_len)
    hypo = check_hypotheses(inst)
    payload = {"command": "trop complete-graph",
               "n": args.n,
               "edge_length": args.edge_len,
               "n_param": inst.n,
               "genus": inst.genus,
               "canonical_degree": inst.d,
               "divisor": metric_divisor_to_json(inst.divisor),
               "hypotheses": _hypotheses_payload(hypo)}
    certificates = [_witness_payload(build_witness(inst, s, budget=budget))
                    for s in args.s]
    if certificates:
        payload["certificates"] = certificates
    return (0 if hypo["all_pass"] else 1), payload


def _emit(payload, output):
    """Write the payload to stdout or to the file output; False, with the
    error on stderr, when that file cannot be written."""
    text = payload if isinstance(payload, str) else dumps(payload) + "\n"
    if not output:
        sys.stdout.write(text)
        return True
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.run(args, _budget(args))
    except BudgetExceeded as exc:
        code, payload = 3, {"error": "budget exceeded", "detail": str(exc)}
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TropdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code if _emit(payload, args.output) else 2


if __name__ == "__main__":
    sys.exit(main())

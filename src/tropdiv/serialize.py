"""JSON wire formats.

Integers are emitted as JSON numbers while they fit in 64 bits and as
decimal strings beyond; rationals are "p/q" strings ("p" when integral).
Parsers accept both forms everywhere, and read each document inside
reading(), the one place that turns a missing key or a wrong shape into
InputError.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction

from .errors import InputError, SizeMismatch
from .graphs import Divisor, RationalFunction, build_graph
from .metric import MetricDivisor, MetricGraph, canonical_divisor_metric
from .witness import WitnessInstance

_I64 = 2 ** 63
_DECIMAL = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


@contextmanager
def reading(document):
    """Report any shape error raised while reading a document as InputError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {document} JSON: {exc}") from exc


def int_to_json(x):
    x = int(x)
    return x if -_I64 <= x < _I64 else str(x)


def int_from_json(x):
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"expected an integer, got {x!r}")
    return x


def array_from_json(x):
    if not isinstance(x, list):
        raise InputError(f"expected an array, got {x!r}")
    return x


def frac_to_json(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_from_json(x):
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"expected a rational, got {x!r}")
    return Fraction(x)


# -- finite graphs --------------------------------------------------------------


def graph_from_json(data):
    with reading("graph"):
        n = int_from_json(data["vertices"])
        edges = [(int_from_json(u), int_from_json(v))
                 for u, v in map(array_from_json, array_from_json(data["edges"]))]
        labels = data.get("labels")
        if labels is not None and not all(isinstance(x, str) for x in array_from_json(labels)):
            raise InputError("graph 'labels' must be an array of strings")
    return build_graph(n, edges, labels)


def divisor_from_json(data, graph):
    with reading("divisor"):
        entries = {int_from_json(k): int_from_json(v) for k, v in data["coeffs"].items()}
    return Divisor.of(graph.vertex_count, entries)


def target_from_json(data, graph):
    """A check-generated target: its degree and its function on the graph."""
    with reading("target"):
        degree = int_from_json(data["degree"])
        values = tuple(map(int_from_json, array_from_json(data["values"])))
    if len(values) != graph.vertex_count:
        raise SizeMismatch(f"{len(values)} function values for {graph.vertex_count} vertices")
    return degree, RationalFunction(values)


def element_to_json(el):
    return {"degree": el.degree,
            "values": [int_to_json(v) for v in el.function.values]}


# -- metric graphs ---------------------------------------------------------------


def metric_graph_from_json(data):
    with reading("metric graph"):
        model = graph_from_json(data["model"])
        lengths = [frac_from_json(data["lengths"][str(e)])
                   for e in range(model.edge_count)]
        is_refinement = data.get("is_refinement", False)
    if not isinstance(is_refinement, bool):
        raise InputError("'is_refinement' must be true or false")
    return MetricGraph(model, tuple(lengths), is_refinement)


def point_to_json(p):
    if p.is_vertex:
        return {"vertex": p.index}
    return {"edge": p.index, "offset": frac_to_json(p.offset)}


def point_from_json(data, graph):
    with reading("point"):
        if "vertex" in data:
            return graph.vertex_point(int_from_json(data["vertex"]))
        return graph.point(int_from_json(data["edge"]), frac_from_json(data["offset"]))


def metric_divisor_to_json(d):
    return {"points": [{"point": point_to_json(p), "coeff": int_to_json(c)}
                       for p, c in d.items]}


def metric_divisor_from_json(data, graph):
    with reading("metric divisor"):
        items = tuple((point_from_json(row["point"], graph), int_from_json(row["coeff"]))
                      for row in array_from_json(data["points"]))
    return MetricDivisor(graph, items)


def instance_from_json(data):
    """A witness instance: 'curve', 'divisor' ("K" allowed), 'edge' and 'n'."""
    with reading("instance"):
        curve = metric_graph_from_json(data["curve"])
        divisor = data["divisor"]
        edge, n = int_from_json(data["edge"]), int_from_json(data["n"])
    divisor = (canonical_divisor_metric(curve) if divisor == "K"
               else metric_divisor_from_json(divisor, curve))
    return WitnessInstance(curve, divisor, edge=edge, n=n)


def pl_function_to_json(f):
    return {"edges": [{"edge": e,
                       "breakpoints": [[frac_to_json(o), frac_to_json(v)]
                                       for o, v in bps]}
                      for e, bps in enumerate(f.segs)]}


def dumps(obj):
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2)


def load_json_file(path):
    # ValueError covers bad UTF-8, bad JSON and integers past int()'s digit
    # limit; RecursionError covers arrays nested past the decoder's depth
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc

"""JSON wire formats.

Integers are emitted as JSON numbers while they fit in 64 bits and as
decimal strings beyond; rationals are "p/q" strings ("p" when integral).
Parsers accept both forms everywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError, SizeMismatch
from .graphs import Divisor, RationalFunction, build_graph
from .metric import MetricDivisor, MetricGraph

_I64 = 2 ** 63


def int_to_json(x):
    x = int(x)
    return x if -_I64 <= x < _I64 else str(x)


def int_from_json(x):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"expected an integer, got {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise InputError(f"expected an integer, got {x!r}") from exc


def frac_to_json(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_from_json(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {x!r}") from exc
    raise InputError(f"expected a rational, got {x!r}")


# -- finite graphs --------------------------------------------------------------


def graph_from_json(data):
    try:
        n = int_from_json(data["vertices"])
        edges = [(int_from_json(u), int_from_json(v)) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph JSON: {exc}") from exc
    labels = data.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise InputError("graph 'labels' must be an array of strings")
    return build_graph(n, edges, labels)


def divisor_from_json(data, graph):
    try:
        entries = {int(k): int_from_json(v) for k, v in data["coeffs"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad divisor JSON: {exc}") from exc
    return Divisor.of(graph.vertex_count, entries)


def function_from_json(data, graph):
    try:
        values = tuple(int_from_json(v) for v in data["values"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad function JSON: {exc}") from exc
    if len(values) != graph.vertex_count:
        raise SizeMismatch(f"{len(values)} function values for {graph.vertex_count} vertices")
    return RationalFunction(values)


def element_to_json(el):
    return {"degree": el.degree,
            "values": [int_to_json(v) for v in el.function.values]}


# -- metric graphs ---------------------------------------------------------------


def metric_graph_from_json(data):
    try:
        model = graph_from_json(data["model"])
        lengths = [frac_from_json(data["lengths"][str(e)])
                   for e in range(model.edge_count)]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad metric graph JSON: {exc}") from exc
    is_refinement = data.get("is_refinement", False)
    if not isinstance(is_refinement, bool):
        raise InputError("'is_refinement' must be true or false")
    return MetricGraph(model, tuple(lengths), is_refinement)


def point_to_json(p):
    if p.is_vertex:
        return {"vertex": p.index}
    return {"edge": p.index, "offset": frac_to_json(p.offset)}


def point_from_json(data, graph):
    if "vertex" in data:
        return graph.vertex_point(int_from_json(data["vertex"]))
    try:
        return graph.point(int_from_json(data["edge"]),
                           frac_from_json(data["offset"]))
    except KeyError as exc:
        raise InputError("point JSON needs 'vertex' or 'edge'+'offset'") from exc


def metric_divisor_to_json(d):
    return {"points": [{"point": point_to_json(p), "coeff": int_to_json(c)}
                       for p, c in d.items]}


def metric_divisor_from_json(data, graph):
    try:
        items = tuple((point_from_json(row["point"], graph),
                       int_from_json(row["coeff"]))
                      for row in data["points"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad metric divisor JSON: {exc}") from exc
    return MetricDivisor(graph, items)


def pl_function_to_json(f):
    return {"edges": [{"edge": e,
                       "breakpoints": [[frac_to_json(o), frac_to_json(v)]
                                       for o, v in bps]}
                      for e, bps in enumerate(f.segs)]}


def dumps(obj):
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2)


def load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc

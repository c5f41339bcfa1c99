"""Reading, writing and exporting schema instance files.

The on-disk format is JSON (see README).  Parsing validates the schema
and fails loudly; writing emits a canonical form: n-ary composition
lists, sorted object keys, authorization lists in user order, scopes in
workflow order, and exact rationals rendered as "p" or "p/q" strings.
One parse/write pass canonicalizes any valid file byte-stably.

The same canonical JSON form (two-space indent, sorted keys, ASCII
escapes) renders reports.  :func:`iter_canonical_json` streams it as
text pieces, at most about one per block of ``_BLOCK`` array elements,
so a report whose records are drawn lazily is written without ever
being held whole, and the writer is called once per block rather than
once per record.  An array that subclasses :class:`Prerendered` hands
over its elements already rendered, one text each, at the indent the
stream asks for; :func:`_render` remains the reference renderer that
such text must equal.

:func:`export_dot` draws the workflow DAG.  It builds the drawn graph
in one pass over the tree, with fork/join vertices only where a
composition branches and no intermediate vertices to contract away.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _quote

from .errors import SchemaSemanticError, SchemaSyntaxError
from .model import (
    ATLEAST,
    ATMOST,
    CONSTRAINT_KINDS,
    CompositionNode,
    Par,
    ReleaseLeaf,
    Schema,
    Seq,
    StepLeaf,
    WeightedConstraint,
    Xor,
    element_order,
    par,
    seq,
    validate_schema,
    xor,
)

# Array elements joined into one piece.  The writer and the generators
# above it then run once per block rather than once per element.  A block
# of report records is some tens of kilobytes, and up to three blocks are
# alive at once: the one the writer holds, the next one's texts and
# their join.
_BLOCK = 32

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_NODE_OPS = {"seq": seq, "par": par, "xor": xor}

_TOP_KEYS = {
    "workflow",
    "users",
    "authorizations",
    "default_unauth_penalty",
    "step_unauth_penalty",
    "constraints",
    "budget",
    "probability",
}


class Prerendered:
    """An array that renders its own elements.

    :func:`iter_canonical_json` writes ``texts(pad)`` as the array's
    elements instead of rendering what iterating it yields.  Each text
    must equal ``_render(element, pad)`` of the element it stands for, so
    the generic renderer, which iterates, gives the same bytes.
    """

    def texts(self, pad: str) -> Iterator[str]:
        """The canonical text of each element, nested at the indent ``pad`` ends with."""
        raise NotImplementedError


def canonical_json(payload) -> str:
    """The whole canonical text of ``payload`` as one string."""
    return "".join(iter_canonical_json(payload))


def iter_canonical_json(payload):
    """Yield the canonical JSON text of ``payload`` piece by piece.

    The pieces join to ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline, byte for byte.  Objects are streamed key by key and
    arrays in blocks of ``_BLOCK`` elements, each element rendered whole
    and each block joined into one piece, so records drawn from an
    iterator are built and written a block at a time.  The elements of a
    :class:`Prerendered` array come already rendered, from its ``texts``
    at the element indent.  Any non-dict iterable renders as an array,
    and a ``str`` of any type renders as a JSON string; a non-``str``
    key raises ``TypeError`` (``encode_basestring_ascii`` accepts
    nothing else).
    """
    yield from _stream(payload, "\n")
    yield "\n"


def _stream(value, pad: str):
    if value is None or isinstance(value, (str, int, float)):
        yield _render(value, pad)
        return
    inner = pad + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in sorted(value.items()):
            yield sep + _quote(key) + ": "
            yield from _stream(item, inner)
            sep = "," + inner
        yield "{}" if sep[0] == "{" else pad + "}"
    else:
        if isinstance(value, Prerendered):
            texts = value.texts(inner)
        else:
            texts = map(_render, _items(value), repeat(inner))
        sep, start = "," + inner, "[" + inner
        while block := list(islice(texts, _BLOCK)):
            block[0] = start + block[0]
            yield sep.join(block)
            start = sep
        yield "[]" if start[0] == "[" else pad + "]"


def _render(value, pad: str) -> str:
    """Canonical text of ``value`` nested at the indent ``pad`` ends with."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        parts = [
            _quote(k) + ": " + (_quote(v) if type(v) is str else _render(v, inner))
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        parts = [_quote(v) if type(v) is str else _render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    # Off the fast path, json writes the scalars: None, booleans, floats
    # and subclasses of str, int and float.
    if value is None or isinstance(value, (str, int, float)):
        return json.dumps(value)
    if isinstance(value, dict):
        return _render(dict(value), pad)
    return _render(list(_items(value)), pad)


def _items(value):
    try:
        return iter(value)
    except TypeError:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable") from None


def parse_ccws(text: str) -> Schema:
    """Parse an instance document into a validated Schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaSyntaxError(f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise SchemaSyntaxError("instance document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaSyntaxError(f"unknown keys: {', '.join(sorted(unknown))}")
    for key in ("workflow", "users", "authorizations", "default_unauth_penalty", "constraints"):
        if key not in doc:
            raise SchemaSyntaxError(f"missing required key {key!r}")

    workflow = _parse_node(doc["workflow"], "workflow")
    users = _parse_id_list(doc["users"], "users")
    authorizations = _parse_authorizations(doc["authorizations"])
    penalty = _parse_int(doc["default_unauth_penalty"], "default_unauth_penalty")
    step_penalty = {}
    for s, p in _expect(doc.get("step_unauth_penalty", {}), dict, "step_unauth_penalty").items():
        step_penalty[_parse_id(s, "step_unauth_penalty key")] = _parse_int(p, f"step_unauth_penalty.{s}")
    constraints = tuple(
        _parse_constraint(c, f"constraints[{i}]")
        for i, c in enumerate(_expect(doc["constraints"], list, "constraints"))
    )
    budget = _parse_rational(doc.get("budget"), "budget")
    probability = _parse_rational(doc.get("probability"), "probability")

    schema = Schema(
        workflow=workflow,
        users=users,
        authorizations=authorizations,
        default_unauth_penalty=penalty,
        step_unauth_penalty=step_penalty,
        constraints=constraints,
        budget=budget,
        probability=probability,
    )
    violations = validate_schema(schema)
    if violations:
        raise SchemaSemanticError(violations)
    return schema


def load_schema(path) -> Schema:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise SchemaSyntaxError("instance document is not UTF-8 text") from None
    return parse_ccws(text)


def write_ccws(schema: Schema) -> str:
    """Canonical serialization of a valid schema."""
    doc = {
        "workflow": _node_doc(schema.workflow),
        "users": list(schema.users),
        "authorizations": {
            s: sorted(granted, key=schema.user_index.__getitem__)
            for s, granted in schema.authorizations.items()
        },
        "default_unauth_penalty": schema.default_unauth_penalty,
        "constraints": [_constraint_doc(c, schema) for c in schema.constraints],
    }
    if schema.step_unauth_penalty:
        doc["step_unauth_penalty"] = dict(schema.step_unauth_penalty)
    if schema.budget is not None:
        doc["budget"] = str(schema.budget)
    if schema.probability is not None:
        doc["probability"] = str(schema.probability)
    return canonical_json(doc)


def save_schema(schema: Schema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_ccws(schema))


# -- parsing helpers --------------------------------------------------------


def _expect(value, kind, path: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaSyntaxError(f"expected {kind.__name__}", path)
    return value


def _parse_id(value, path: str) -> str:
    if not isinstance(value, str) or not _ID_RE.fullmatch(value):
        raise SchemaSyntaxError(f"not an ASCII identifier: {value!r}", path)
    return value


def _parse_id_list(value, path: str) -> tuple[str, ...]:
    return tuple(
        _parse_id(v, f"{path}[{i}]") for i, v in enumerate(_expect(value, list, path))
    )


def _parse_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaSyntaxError("expected an integer", path)
    return value


def _parse_rational(value, path: str) -> Fraction | None:
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaSyntaxError(f'not a rational "p" or "p/q": {value!r}', path) from exc
    raise SchemaSyntaxError("expected a rational string", path)


def _parse_node(obj, path: str) -> CompositionNode:
    obj = _expect(obj, dict, path)
    if len(obj) != 1:
        raise SchemaSyntaxError(
            "node must have exactly one of: step, release, seq, par, xor", path
        )
    ((kind, value),) = obj.items()
    if kind == "step":
        return StepLeaf(_parse_id(value, f"{path}.step"))
    if kind == "release":
        return ReleaseLeaf(_parse_id(value, f"{path}.release"))
    op = _NODE_OPS.get(kind)
    if op is None:
        raise SchemaSyntaxError(f"unknown node kind {kind!r}", path)
    items = _expect(value, list, f"{path}.{kind}")
    if not items:
        raise SchemaSyntaxError("composition list must be non-empty", f"{path}.{kind}")
    return op(*(_parse_node(v, f"{path}.{kind}[{i}]") for i, v in enumerate(items)))


def _parse_authorizations(obj) -> dict[str, frozenset[str]]:
    out = {}
    for s, granted in _expect(obj, dict, "authorizations").items():
        key = _parse_id(s, "authorizations key")
        out[key] = frozenset(_parse_id_list(granted, f"authorizations.{s}"))
    return out


_CONSTRAINT_KEYS = {"id", "kind", "scope", "release", "weight", "k"}


def _parse_constraint(obj, path: str) -> WeightedConstraint:
    obj = _expect(obj, dict, path)
    unknown = set(obj) - _CONSTRAINT_KEYS
    if unknown:
        raise SchemaSyntaxError(f"unknown keys: {', '.join(sorted(unknown))}", path)
    for key in ("id", "kind", "scope", "weight"):
        if key not in obj:
            raise SchemaSyntaxError(f"missing required key {key!r}", path)
    kind = obj["kind"]
    if kind not in CONSTRAINT_KINDS:
        raise SchemaSyntaxError(f"unknown constraint kind {kind!r}", f"{path}.kind")
    if kind in (ATMOST, ATLEAST):
        if "k" not in obj:
            raise SchemaSyntaxError(f"{kind} requires k", path)
        k = _parse_int(obj["k"], f"{path}.k")
    else:
        if "k" in obj:
            raise SchemaSyntaxError(f"{kind} does not take k", path)
        k = None
    return WeightedConstraint(
        id=_parse_id(obj["id"], f"{path}.id"),
        kind=kind,
        scope=_parse_id_list(obj["scope"], f"{path}.scope"),
        release=_parse_id_list(obj.get("release", []), f"{path}.release"),
        weight=_parse_int(obj["weight"], f"{path}.weight"),
        k=k,
    )


# -- writing helpers --------------------------------------------------------


def _node_doc(node: CompositionNode):
    if isinstance(node, StepLeaf):
        return {"step": node.step}
    if isinstance(node, ReleaseLeaf):
        return {"release": node.release}
    kind = {Seq: "seq", Par: "par", Xor: "xor"}[type(node)]
    return {kind: [_node_doc(child) for child in _flatten(node, type(node))]}


def _flatten(node: CompositionNode, op) -> list[CompositionNode]:
    if isinstance(node, op):
        return _flatten(node.left, op) + _flatten(node.right, op)
    return [node]


def _constraint_doc(c: WeightedConstraint, schema: Schema):
    doc = {
        "id": c.id,
        "kind": c.kind,
        "scope": list(schema.sort_canonical(c.scope)),
        "release": list(schema.sort_canonical(c.release)),
        "weight": c.weight,
    }
    if c.k is not None:
        doc["k"] = c.k
    return doc


# -- DOT export -------------------------------------------------------------


def export_dot(node: CompositionNode) -> str:
    """Workflow DAG in DOT form, orchestration points re-materialized.

    Mirrors the usual drawing convention: a distinguished ``alpha``/
    ``omega`` pair wraps the workflow and every parallel and xor
    composition keeps its fork/join pair ``alpha_<kind>_<n>``/
    ``omega_<kind>_<n>``, numbered per kind in depth-first order.  The
    graph is built directly: a step or release point is its own entry
    and exit, and a sequence is one edge from its left part's exit to
    its right part's entry, so no orchestration point with a single
    neighbor on each side is ever drawn.  A generated name that equals
    an element id takes trailing underscores until it is free.  Steps
    render as boxes, release points as circles, orchestration points
    unstyled.
    """
    vertices: list[tuple[str, str]] = []  # (name, style) in creation order
    edges: list[tuple[str, str]] = []
    counters = {"par": 0, "xor": 0}
    taken = set(element_order(node))

    def unique(name: str) -> str:
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    def build(nd: CompositionNode) -> tuple[str, str]:
        if isinstance(nd, StepLeaf):
            vertices.append((nd.step, " [shape=box]"))
            return nd.step, nd.step
        if isinstance(nd, ReleaseLeaf):
            vertices.append((nd.release, " [shape=circle]"))
            return nd.release, nd.release
        if isinstance(nd, Seq):
            i1, o1 = build(nd.left)
            i2, o2 = build(nd.right)
            edges.append((o1, i2))
            return i1, o2
        kind = "par" if isinstance(nd, Par) else "xor"
        counters[kind] += 1
        a = unique(f"alpha_{kind}_{counters[kind]}")
        o = unique(f"omega_{kind}_{counters[kind]}")
        vertices.append((a, ""))
        i1, o1 = build(nd.left)
        i2, o2 = build(nd.right)
        vertices.append((o, ""))
        edges.extend([(a, i1), (a, i2), (o1, o), (o2, o)])
        return a, o

    alpha, omega = unique("alpha"), unique("omega")
    vertices.append((alpha, ""))
    entry, exit_ = build(node)
    vertices.append((omega, ""))
    edges.extend([(alpha, entry), (exit_, omega)])

    order = {name: i for i, (name, _) in enumerate(vertices)}
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    lines = ["digraph workflow {"]
    lines += [f'  "{name}"{style};' for name, style in vertices]
    lines += [f'  "{src}" -> "{dst}";' for src, dst in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"

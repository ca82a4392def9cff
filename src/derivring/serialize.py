"""Canonical JSON for rings, values, matrices, and campaign reports.

Emission sorts keys and omits whitespace, so equal objects serialize to
equal bytes; parsing rejects anything non-canonical (residues out of
range, trailing zero coefficients), which makes round-trips bit-exact.
"""

from __future__ import annotations

import json

from .errors import DomainError, ParseError
from .matrices import Matrix
from .rings import PolyRing, RingElement, Zmod

__all__ = [
    "dumps_canonical",
    "loads_strict",
    "ring_to_obj",
    "ring_from_obj",
    "value_to_obj",
    "value_from_obj",
    "matrix_to_obj",
    "matrix_from_obj",
    "matrix_to_json",
    "matrix_from_json",
]


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads_strict(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:
        # integer literals over the interpreter's digit cap; too deep nesting
        raise ParseError(str(exc)) from exc


def ring_to_obj(ring):
    if isinstance(ring, Zmod):
        return {"ring": "zmod", "m": ring.modulus}
    if isinstance(ring, PolyRing):
        return {"ring": "poly", "base": ring_to_obj(ring.base)}
    raise ParseError(f"unknown ring type {ring!r}")


def ring_from_obj(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"ring descriptor must be an object, got {type(obj).__name__}")
    if "ring" not in obj:
        raise ParseError('missing "ring" key')
    kind = obj["ring"]
    if kind == "zmod":
        if "m" not in obj:
            raise ParseError('zmod descriptor is missing "m"')
        return Zmod(obj["m"])
    if kind == "poly":
        if "base" not in obj:
            raise ParseError('poly descriptor is missing "base"')
        base = obj["base"]
        # checked before recursing, so nesting cannot drive the recursion deep
        if not isinstance(base, dict) or base.get("ring") != "zmod":
            raise ParseError("poly base must be a zmod descriptor")
        return PolyRing(ring_from_obj(base))
    raise ParseError(f"unknown ring kind of type {type(kind).__name__}")


def value_to_obj(elem):
    return _payload_to_obj(elem.ring, elem.payload)


def _payload_to_obj(ring, payload):
    return payload if isinstance(ring, Zmod) else list(payload)


def value_from_obj(ring, obj):
    return ring.wrap(_payload_from_obj(ring, obj))


def _payload_from_obj(ring, obj):
    """The canonical payload that `obj` spells: `ring.element` reads it,
    and ParseError unless `obj` already spells what it reads."""
    poly = isinstance(ring, PolyRing)
    if poly and not isinstance(obj, list):
        raise ParseError(
            f"polynomial values are coefficient arrays, got {type(obj).__name__}"
        )
    try:
        payload = ring.element(obj).payload
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
    if payload == (tuple(obj) if poly else obj):
        return payload
    if poly and obj[-1] == 0:
        raise ParseError("non-canonical polynomial: trailing zero coefficient")
    m = ring.base.modulus if poly else ring.modulus
    raise ParseError(
        f"non-canonical value for {ring}: each integer must lie in [0, {m})"
    )


def _rows_obj(mat):
    n, ring, ent = mat.n, mat.ring, mat.entries
    return [
        [_payload_to_obj(ring, ent[i * n + j]) for j in range(n)] for i in range(n)
    ]


def _rows_from_obj(ring, n, rows):
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"matrix needs {n} rows")
    entries = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"matrix rows must each hold {n} values")
        entries.extend(_payload_from_obj(ring, v) for v in row)
    return Matrix(ring, n, tuple(entries))


def matrix_to_obj(mat):
    return {"n": mat.n, "ring": ring_to_obj(mat.ring), "rows": _rows_obj(mat)}


def matrix_from_obj(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"matrix must be an object, got {type(obj).__name__}")
    for key in ("n", "ring", "rows"):
        if key not in obj:
            raise ParseError(f'missing "{key}" key')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {type(n).__name__}')
    ring = ring_from_obj(obj["ring"])
    return _rows_from_obj(ring, n, obj["rows"])


def matrix_to_json(mat):
    return dumps_canonical(matrix_to_obj(mat))


def matrix_from_json(text):
    return matrix_from_obj(loads_strict(text))


def payload_to_obj(value):
    """Serialize a failure payload: a matrix, a ring value, or a string."""
    if isinstance(value, Matrix):
        return matrix_to_obj(value)
    if isinstance(value, RingElement):
        return value_to_obj(value)
    return str(value)

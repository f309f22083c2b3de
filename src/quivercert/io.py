"""JSON schemas for algebras, modules, and lattices.

Scalars are decimal strings ("3", "-7/2") everywhere.  Matrices are
row-major nested lists; a matrix for an arrow x -> y has dim(y) rows
and dim(x) columns.  Polynomial lattice entries are lists of
[coefficient, exponent list] terms.  Missing keys, unknown algebra keys
and wrongly typed values raise InputError.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import BasicAlgebra, Relation, build_algebra, tensor
from .fields import field_from_name, field_name
from .lattice import Lattice, LatticeError
from .matrix import Matrix
from .module import Module
from .quiver import Quiver


class InputError(ValueError):
    pass


def _int(value, what: str) -> int:
    """An integer count; a bool or a non-integral float is refused, not
    truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{what} is not an integer: {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not an integer: {value!r}") from exc


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# -- algebras ---------------------------------------------------------------

def algebra_to_json(algebra: BasicAlgebra) -> dict:
    payload = {
        "field": field_name(algebra.field),
        "vertices": list(algebra.quiver.vertices),
        "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                   for a in algebra.quiver.arrows],
        "relations": [[{"coeff": c, "path": list(p)} for c, p in rel.terms]
                      for rel in algebra.relations],
        "max_path_length": algebra.max_len,
    }
    if algebra.tensor_of is not None:
        payload["tensor_of"] = [algebra_to_json(f) for f in algebra.tensor_of]
    return payload


ALGEBRA_KEYS = {"field", "vertices", "arrows", "relations", "max_path_length", "tensor_of"}


def algebra_from_json(payload: dict, field_override=None) -> BasicAlgebra:
    """The algebra of an `algebra_to_json` payload; a key outside
    ALGEBRA_KEYS, here or in a `tensor_of` factor, raises InputError, so
    that the payload's hash is a function of the algebra it loads."""
    try:
        unknown = set(payload) - ALGEBRA_KEYS
        if unknown:
            raise InputError(f"unknown algebra keys: {sorted(unknown)}")
        field = field_from_name(field_override or payload["field"])
        if payload.get("tensor_of"):
            factors = [algebra_from_json(f, field_override=field_name(field))
                       for f in payload["tensor_of"]]
            out = factors[0]
            for f in factors[1:]:
                out = tensor(out, f)
            _check_names(out, payload)
            return out
        quiver = Quiver.build(
            payload["vertices"],
            [(a["name"], a["source"], a["target"]) for a in payload["arrows"]])
        relations = [Relation.build([(t["coeff"], tuple(t["path"])) for t in rel])
                     for rel in payload.get("relations", [])]
        return build_algebra(quiver, field, relations,
                             _int(payload.get("max_path_length", 30), "max_path_length"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed algebra payload: {exc}") from exc


def _check_names(algebra: BasicAlgebra, payload: dict):
    if list(algebra.quiver.vertices) != list(payload.get("vertices", [])):
        raise InputError("tensor_of factors disagree with the stored vertex list")


def load_algebra(path: str, field_override=None) -> tuple[BasicAlgebra, str]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read algebra file {path}: {exc}") from exc
    return algebra_from_json(payload, field_override), payload_hash(payload)


def save_algebra(algebra: BasicAlgebra, path: str):
    with open(path, "w") as fh:
        json.dump(algebra_to_json(algebra), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- modules -----------------------------------------------------------------

def module_to_json(m: Module) -> dict:
    return {
        "dims": {v: m.dims[v] for v in m.algebra.quiver.vertices},
        "action": {a.name: m.action[a.name].to_strings()
                   for a in m.algebra.quiver.arrows},
        "algebra_hash": payload_hash(algebra_to_json(m.algebra)),
        "content_hash": m.content_hash(),
        "dim_vector": list(m.dim_vector()),
    }


def module_from_json(payload: dict, algebra: BasicAlgebra) -> Module:
    try:
        dims = {v: _int(n, f"dims[{v}]") for v, n in payload["dims"].items()}
        action = {name: Matrix.from_rows(algebra.field, rows)
                  for name, rows in payload.get("action", {}).items() if rows is not None}
        return Module(algebra, dims, action)
    except (AttributeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed module payload: {exc}") from exc


def load_module(path: str, algebra: BasicAlgebra) -> tuple[Module, str]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read module file {path}: {exc}") from exc
    return module_from_json(payload, algebra), payload_hash(payload)


# -- lattices -----------------------------------------------------------------

def lattice_to_json(lat: Lattice) -> dict:
    fmt = lat.field.format
    action = {}
    for a in lat.algebra.quiver.arrows:
        coeffs = sorted(lat.action[a.name].items())
        action[a.name] = [[[[fmt(c[i, j]), list(e)] for e, c in coeffs if c[i, j]]
                           for j in range(lat.rank[a.source])]
                          for i in range(lat.rank[a.target])]
    return {
        "field": field_name(lat.field),
        "d": lat.d,
        "rank": {v: lat.rank[v] for v in lat.algebra.quiver.vertices},
        "action": action,
        "algebra": algebra_to_json(lat.algebra),
    }


def lattice_from_json(payload: dict, field_override=None) -> tuple[Lattice, BasicAlgebra]:
    try:
        algebra = algebra_from_json(payload["algebra"], field_override)
        d = _int(payload["d"], "d")
        rank = {v: _int(n, f"rank[{v}]") for v, n in payload["rank"].items()}
        field = algebra.field
        arrows = {a.name: a for a in algebra.quiver.arrows}
        action = {}
        for name, rows in payload["action"].items():
            if rows is None:
                continue
            a = arrows.get(name)
            if a is None:
                raise LatticeError(f"action names no arrow: {name!r}")
            shape = (rank.get(a.target, 0), rank.get(a.source, 0))
            if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
                raise LatticeError(f"arrow {a.name}: polynomial matrix shape mismatch")
            coeffs = action[a.name] = {}
            for i, row in enumerate(rows):
                for j, entry in enumerate(row):
                    for term in entry:
                        if not isinstance(term, list) or len(term) != 2:
                            raise InputError(f"arrow {a.name}: term {term!r} is not a "
                                             "[coefficient, exponents] pair")
                        c, e = term
                        e = tuple(_int(x, "exponent") for x in e)
                        if e not in coeffs:
                            coeffs[e] = Matrix.zero(field, *shape)
                        coeffs[e][i, j] = field.add(coeffs[e][i, j], field.element(c))
        return Lattice(algebra, d, rank, action), algebra
    except (AttributeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed lattice payload: {exc}") from exc


def load_lattice(path: str, field_override=None):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read lattice file {path}: {exc}") from exc
    lat, algebra = lattice_from_json(payload, field_override)
    return lat, algebra, payload_hash(payload)


def save_lattice(lat: Lattice, path: str):
    with open(path, "w") as fh:
        json.dump(lattice_to_json(lat), fh, indent=2, sort_keys=True)
        fh.write("\n")

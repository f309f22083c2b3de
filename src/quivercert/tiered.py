"""Socle truncations of projectives/injectives, the (P1)/(P2) brick and
embedding conditions, and the tier layering.

The layering follows the display: layer i collects the truncations
with projective index n+2-i and injective index i, on top of the lower
layers; a module meeting both families is placed at the earliest layer.

`truncations` computes the socle series of each projective and
injective once and takes its terms.  Each term soc^t M is read as
ann_M(J^t), the kernel at each vertex of the length-t path actions,
whose row-reduced rows come from the previous step's along each arrow
(`module.socle_series`), with no quotient module built.

The layering sets alpha N = rad N and checks nothing about it:
`endcat.layering_check` is the one place that decides whether alpha's
summands lie in the lower layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random

from .algebra import BasicAlgebra
from .decompose import Undecided, is_isomorphic
from .module import (
    Module, hom_basis, hom_dim, injectives, map_from_coordinates, projectives,
    radical, random_combination, socle_series,
)
from .quiver import NotTiered, nicely_tiered_check

P2_RANDOM_TRIALS = 64
P2_EXHAUSTIVE_LIMIT = 4096


class NotNicelyTiered(ValueError):
    pass


@dataclass
class Truncation:
    module: Module
    p_indices: list  # (vertex, t, LL(P) - t)
    q_indices: list  # (vertex, t)

    def describe(self) -> dict:
        return {
            "dims": list(self.module.dim_vector()),
            "p_indices": self.p_indices,
            "q_indices": self.q_indices,
        }


def require_nicely_tiered(algebra: BasicAlgebra) -> dict[str, int]:
    try:
        ok, tiers, witness = nicely_tiered_check(algebra.quiver)
    except NotTiered as exc:
        raise NotNicelyTiered(str(exc)) from None
    if not ok:
        raise NotNicelyTiered(witness)
    for rel in algebra.relations:
        if len(rel.terms) != 2:
            raise NotNicelyTiered(
                f"relation {rel.describe()} is not a commutativity relation")
        (c1, _), (c2, _) = rel.terms
        field = algebra.field
        if field.add(field.element(c1), field.element(c2)) != field.zero():
            raise NotNicelyTiered(
                f"relation {rel.describe()} is not a commutativity relation")
    return tiers


def truncations(algebra: BasicAlgebra) -> list[Truncation]:
    """All tP (t >= 2) and tQ (t >= 1), deduplicated by isomorphism and
    tagged with their layer indices."""
    require_nicely_tiered(algebra)
    entries: list[Truncation] = []

    def absorb(module: Module, p_idx, q_idx):
        for e in entries:
            if e.module.dim_vector() != module.dim_vector():
                continue
            ok, _ = is_isomorphic(e.module, module)
            if ok:
                if p_idx:
                    e.p_indices.append(p_idx)
                if q_idx:
                    e.q_indices.append(q_idx)
                return
        entries.append(Truncation(module, [p_idx] if p_idx else [],
                                  [q_idx] if q_idx else []))

    for x, p in zip(algebra.quiver.vertices, projectives(algebra)):
        series = socle_series(p)
        for t, (tp, _) in enumerate(series[1:], 2):
            absorb(tp, (x, t, len(series) - t), None)
    for x, q in zip(algebra.quiver.vertices, injectives(algebra)):
        for t, (tq, _) in enumerate(socle_series(q), 1):
            absorb(tq, None, (x, t))
    entries.sort(key=lambda e: (e.module.total_dim(), e.module.dim_vector(),
                                e.module.content_hash()))
    return entries


def p1_check(algebra: BasicAlgebra):
    """(P1): the second socle of every projective of Loewy length >= 3 is
    a brick.  Returns (ok, witnesses)."""
    require_nicely_tiered(algebra)
    witnesses = []
    for x, p in zip(algebra.quiver.vertices, projectives(algebra)):
        series = socle_series(p)
        if len(series) < 3:
            continue
        tp, _ = series[1]
        end_dim = hom_dim(tp, tp)
        if end_dim != 1:
            witnesses.append({"vertex": x, "end_dim": end_dim,
                              "dims": list(tp.dim_vector())})
    return not witnesses, witnesses


def find_embedding(p: Module, q: Module):
    """An injective ModuleMap p -> q, or None (certified when the field is
    small or a dimension obstruction exists); raises Undecided otherwise."""
    for v in p.algebra.quiver.vertices:
        if p.dims[v] > q.dims[v]:
            return None  # certified: no injective map can exist
    maps = hom_basis(p, q)
    if not maps:
        return None
    for f in maps:
        if f.is_injective():
            return f
    field = p.field
    rng = Random(0)
    for _ in range(P2_RANDOM_TRIALS):
        cand = random_combination(maps, rng, 8)
        if cand.is_injective():
            return cand
    if field.is_prime_field and field.p ** len(maps) <= P2_EXHAUSTIVE_LIMIT:
        for coeffs in product(range(field.p), repeat=len(maps)):
            cand = map_from_coordinates(coeffs, maps)
            if cand.is_injective():
                return cand
        return None  # exhaustive: certified absent
    raise Undecided("embedding search exhausted without certificate")


def p2_check(algebra: BasicAlgebra):
    """(P2): nonzero Hom between second socles forces an embedding of the
    projectives.  Returns (ok, witnesses)."""
    require_nicely_tiered(algebra)
    tall = []
    for x, p in zip(algebra.quiver.vertices, projectives(algebra)):
        series = socle_series(p)
        if len(series) >= 3:
            tall.append((x, p, series[1][0]))
    witnesses = []
    for x, p, tp in tall:
        for y, q, tq in tall:
            hom_dim_2p = hom_dim(tp, tq)
            if hom_dim_2p and find_embedding(p, q) is None:
                witnesses.append({"pair": [x, y], "hom_2p_dim": hom_dim_2p})
    return not witnesses, witnesses


# -- the layering -------------------------------------------------------------------

@dataclass
class Layering:
    objects: list  # Modules, the deduplicated truncations
    layers: list  # lists of object indices, layer 1 first
    alpha: dict  # object index -> (Module, inclusion)

    def layer_count(self) -> int:
        return len(self.layers)


def build_layering(algebra: BasicAlgebra, trunc: list[Truncation] | None = None) -> Layering:
    """Layers M_1 .. M_{n+2} with alpha N = rad N.

    Whether the summands of each alpha N lie in the strictly lower layers
    is checked once, by `endcat.layering_check`, which reports it in its
    certificate."""
    tiers = require_nicely_tiered(algebra)
    n = max(tiers.values()) if tiers else 0
    trunc = trunc if trunc is not None else truncations(algebra)
    objects = [e.module for e in trunc]
    layer_of = {}
    for idx, e in enumerate(trunc):
        candidates = []
        for (_, _, i) in e.p_indices:
            candidates.append(n + 2 - i)
        for (_, t) in e.q_indices:
            candidates.append(t)
        layer_of[idx] = min(candidates)
    layers = [[] for _ in range(n + 2)]
    for idx, level in layer_of.items():
        layers[level - 1].append(idx)
    alpha = {idx: radical(obj) for idx, obj in enumerate(objects)}
    return Layering(objects, layers, alpha)

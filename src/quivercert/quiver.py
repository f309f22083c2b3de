"""Quivers and tier functions.

A tier function assigns integers to vertices so that every arrow drops
the value by exactly one; "nicely tiered" additionally pins all sinks
at 0 and all sources at the top tier, which is equivalent to: no
oriented cycles and all maximal paths share one length.
"""

from __future__ import annotations

from dataclasses import dataclass


class NotTiered(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.name} references unknown vertex")

    @staticmethod
    def build(vertices, arrows) -> "Quiver":
        return Quiver(tuple(vertices), tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows))

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)

    def arrows_from(self, v: str):
        return [a for a in self.arrows if a.source == v]

    def arrows_to(self, v: str):
        return [a for a in self.arrows if a.target == v]

    def sources(self):
        return [v for v in self.vertices if not self.arrows_to(v)]

    def sinks(self):
        return [v for v in self.vertices if not self.arrows_from(v)]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for a in self.arrows:
                for w in ((a.target,) if a.source == v else ()) + ((a.source,) if a.target == v else ()):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        return len(seen) == len(self.vertices)

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, tuple(Arrow(a.name, a.target, a.source) for a in self.arrows))


def tier_function(q: Quiver) -> dict[str, int]:
    """The unique vertex labeling dropping by 1 along every arrow.

    Raises NotTiered on a parity/cycle conflict or a disconnected quiver.
    """
    if not q.is_connected():
        raise NotTiered("quiver is not connected")
    if not q.vertices:
        return {}
    level: dict[str, int] = {q.vertices[0]: 0}
    frontier = [q.vertices[0]]
    while frontier:
        v = frontier.pop()
        for a in q.arrows:
            if a.source == v or a.target == v:
                w, want = (a.target, level[v] - 1) if a.source == v else (a.source, level[v] + 1)
                if w not in level:
                    level[w] = want
                    frontier.append(w)
                elif level[w] != want:
                    raise NotTiered(f"arrow {a.name} violates the tier rule at {w}")
    low = min(level.values())
    return {v: level[v] - low for v in q.vertices}


def maximal_path_length_from(q: Quiver, v: str) -> int:
    """Length of the longest path starting at v (cycles raise NotTiered)."""
    memo: dict[str, int] = {}
    active: set[str] = set()

    def longest(u: str) -> int:
        if u in memo:
            return memo[u]
        if u in active:
            raise NotTiered("oriented cycle")
        active.add(u)
        best = 0
        for a in q.arrows_from(u):
            best = max(best, 1 + longest(a.target))
        active.discard(u)
        memo[u] = best
        return best

    return longest(v)


def nicely_tiered_check(q: Quiver):
    """Returns (ok, tiers, witness); witness names a violating vertex."""
    tiers = tier_function(q)
    n = max(tiers.values()) if tiers else 0
    for v in q.sinks():
        if tiers[v] != 0:
            return False, tiers, f"sink {v} has tier {tiers[v]}"
    for v in q.sources():
        if tiers[v] != n:
            return False, tiers, f"source {v} has tier {tiers[v]} != {n}"
    return True, tiers, None

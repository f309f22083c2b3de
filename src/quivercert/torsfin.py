"""Inventories of indecomposable torsionless/divisible modules, class
detection, sampling verification, and the gamma-bijection certificate.

Enumeration strategies: radical-square-zero and hereditary algebras get
certified complete lists (projectives plus torsionless simples, resp.
projectives alone); everything else runs a closure search seeded from
projectives, their radicals and principal submodules, extended by
kernels of approximations and seeded random submodules, and is reported
with status "bounded" -- the search has no general termination
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .algebra import BasicAlgebra
from .approx import (
    AddCategory, injectives, is_divisible, is_torsionless, right_add_approximation,
)
from .decompose import decompose, is_isomorphic
from .functors import gamma, is_injective_module, is_projective_module
from .matrix import Matrix
from .module import (
    Module, direct_sum, dual, projectives, radical, random_scalar, simple, socle,
    spanned_submodule, top,
)


class UnknownStrategy(ValueError):
    pass


class IncompleteInventory(ValueError):
    pass


# -- class detection ------------------------------------------------------------

def detect_class(algebra: BasicAlgebra) -> set[str]:
    tags = set()
    if algebra.loewy_length <= 2:
        tags.add("rad_square_zero")
    hereditary = True
    for p in projectives(algebra):
        rad, _ = radical(p)
        if not rad.is_zero() and not is_projective_module(rad):
            hereditary = False
            break
    if hereditary:
        tags.add("hereditary")
    if "special_biserial" in algebra.flags:
        tags.add("special_biserial_input")
    return tags


# -- inventory bookkeeping --------------------------------------------------------

class ClassList:
    """Isomorphism classes of indecomposable modules, deduplicated."""

    def __init__(self):
        self.members: list[Module] = []
        self._by_dim: dict[tuple, list[int]] = {}
        self._hashes: set[str] = set()

    def lists_content(self, m: Module) -> bool:
        """Is a module with m's content hash already listed?"""
        return m.content_hash() in self._hashes

    def contains(self, m: Module) -> bool:
        if self.lists_content(m):
            return True
        for idx in self._by_dim.get(m.dim_vector(), []):
            ok, _ = is_isomorphic(self.members[idx], m, assume_indecomposable=True)
            if ok:
                return True
        return False

    def add(self, m: Module) -> bool:
        if self.contains(m):
            return False
        self._by_dim.setdefault(m.dim_vector(), []).append(len(self.members))
        self.members.append(m)
        self._hashes.add(m.content_hash())
        return True

    def sorted_members(self) -> list[Module]:
        return sorted(self.members,
                      key=lambda m: (m.total_dim(), m.dim_vector(), m.content_hash()))


@dataclass
class TorsionlessInventory:
    algebra: BasicAlgebra
    torsionless: list[Module]
    divisible: list[Module]
    status: str  # "complete" or "bounded"
    strategy: str
    bound: int = 0
    seed: int = 0

    def non_projective_torsionless(self) -> list[Module]:
        return [m for m in self.torsionless if not is_projective_module(m)]

    def non_injective_divisible(self) -> list[Module]:
        return [m for m in self.divisible if not is_injective_module(m)]

    def summary(self) -> dict:
        return {
            "status": self.status,
            "strategy": self.strategy,
            "bound": self.bound,
            "seed": self.seed,
            "torsionless": [{"dims": list(m.dim_vector()), "hash": m.content_hash()}
                            for m in self.torsionless],
            "divisible": [{"dims": list(m.dim_vector()), "hash": m.content_hash()}
                          for m in self.divisible],
        }


def _torsionless_closure(algebra: BasicAlgebra, bound: int, seed: int,
                         rounds: int = 8, samples_per_round: int = 24) -> ClassList:
    """Closure search for the indecomposable torsionless classes.

    `absorb` decomposes a module and lists its torsionless summands.  A
    module whose content hash it has already absorbed in this call is
    skipped before `decompose` runs, and this cannot change the list:
    `decompose` is a function of the module's content, so a repeat yields
    the same parts, which the first absorb has already offered to
    `classes`, and `classes` only grows.  `absorb` draws nothing from
    `rng`, so every later step sees the same state.
    """
    rng = Random(seed)
    classes = ClassList()
    projs = projectives(algebra)
    absorbed: set[str] = set()

    def absorb(module: Module) -> bool:
        added = False
        if module.is_zero():
            return False
        key = module.content_hash()
        if key in absorbed:
            return False
        absorbed.add(key)
        dec = decompose(module)
        for part in dec.parts:
            # a listed content hash is refused by `classes.add` anyway
            if classes.lists_content(part):
                continue
            if is_torsionless(part) and classes.add(part):
                added = True
        return added

    for p in projs:
        classes.add(p)
    # deterministic generators: radicals and principal submodules
    for p in projs:
        rad, _ = radical(p)
        absorb(rad)
        for v in algebra.quiver.vertices:
            for col in range(p.dims[v]):
                gen = Matrix.zero(algebra.field, p.dims[v], 1)
                gen[col, 0] = algebra.field.one()
                sub, _ = spanned_submodule(p, {v: gen})
                absorb(sub)
    stable = 0
    for _ in range(rounds):
        added = False
        # kernels of approximations of the simples by the current list
        current = classes.sorted_members()
        cat = AddCategory(current)
        for x in algebra.quiver.vertices:
            res = right_add_approximation(current, simple(algebra, x), cat=cat)
            if absorb(res.kernel):
                added = True
        # seeded random submodules of sums of current members
        current = classes.sorted_members()
        for _ in range(samples_per_round):
            t = rng.randrange(1, bound + 1)
            chosen = [current[rng.randrange(len(current))] for _ in range(t)]
            big = direct_sum(chosen)[0]
            gens = _random_generators(big, rng, 2)
            if not gens:
                continue
            sub, _ = spanned_submodule(big, gens)
            if absorb(sub):
                added = True
        stable = 0 if added else stable + 1
        if stable >= 2:
            break
    return classes


def _random_generators(big: Module, rng: Random, max_count: int) -> dict:
    """Random generator columns of big at 1..max_count random vertices;
    a vertex with a zero fiber draws no column."""
    verts = big.algebra.quiver.vertices
    gens = {}
    for _ in range(rng.randrange(1, max_count + 1)):
        v = verts[rng.randrange(len(verts))]
        if big.dims[v] == 0:
            continue
        col = Matrix.column(big.field, [random_scalar(big.field, rng, 3)
                                         for _ in range(big.dims[v])])
        gens[v] = Matrix.hstack([gens[v], col]) if v in gens else col
    return gens


def enumerate_torsionless(algebra: BasicAlgebra, strategy: str = "auto",
                          bound: int = 3, seed: int = 0) -> TorsionlessInventory:
    """Torsionless and divisible inventories; the divisible side is always
    obtained by dualizing the enumeration over the opposite algebra."""
    if strategy not in ("auto", "rad_square_zero", "hereditary", "bounded_search"):
        raise UnknownStrategy(strategy)
    tags = detect_class(algebra)
    chosen = strategy
    if strategy == "auto":
        if "rad_square_zero" in tags:
            chosen = "rad_square_zero"
        elif "hereditary" in tags:
            chosen = "hereditary"
        else:
            chosen = "bounded_search"
    elif strategy == "rad_square_zero" and "rad_square_zero" not in tags:
        raise UnknownStrategy("algebra is not radical-square-zero")
    elif strategy == "hereditary" and "hereditary" not in tags:
        raise UnknownStrategy("algebra is not hereditary")

    tors = _torsionless_side(algebra, chosen, bound, seed)
    op = algebra.opposite()
    op_strategy = chosen  # the class tags are opposite-invariant for these two
    op_tors = _torsionless_side(op, op_strategy, bound, seed)
    divis = ClassList()
    for m in op_tors.sorted_members():
        divis.add(dual(m))
    status = "complete" if chosen in ("rad_square_zero", "hereditary") else "bounded"
    return TorsionlessInventory(
        algebra, tors.sorted_members(), divis.sorted_members(),
        status, chosen, bound, seed)


def _torsionless_side(algebra: BasicAlgebra, strategy: str, bound: int, seed: int) -> ClassList:
    classes = ClassList()
    if strategy == "rad_square_zero":
        for p in projectives(algebra):
            classes.add(p)
        for x in algebra.quiver.vertices:
            s = simple(algebra, x)
            if is_torsionless(s):
                classes.add(s)
        return classes
    if strategy == "hereditary":
        for p in projectives(algebra):
            classes.add(p)
        return classes
    return _torsionless_closure(algebra, bound, seed)


# -- verification -----------------------------------------------------------------

def verify_inventory(algebra: BasicAlgebra, inv: TorsionlessInventory,
                     samples: int = 200, seed: int = 0) -> dict:
    """Checks the listed classes and samples random submodules of
    projective powers for unlisted torsionless summands."""
    failures = []
    tors = ClassList()
    for m in inv.torsionless:
        if not is_torsionless(m):
            failures.append({"kind": "not_torsionless", "dims": list(m.dim_vector())})
        from .decompose import is_indecomposable
        if not is_indecomposable(m):
            failures.append({"kind": "not_indecomposable", "dims": list(m.dim_vector())})
        if not tors.add(m):
            failures.append({"kind": "duplicate_class", "dims": list(m.dim_vector())})
    for m in inv.divisible:
        if not is_divisible(m):
            failures.append({"kind": "not_divisible", "dims": list(m.dim_vector())})
    for p in projectives(algebra):
        if not tors.contains(p):
            failures.append({"kind": "projective_missing",
                             "dims": list(p.dim_vector())})
    divis = ClassList()
    for m in inv.divisible:
        divis.add(m)
    for q in injectives(algebra):
        if not divis.contains(q):
            failures.append({"kind": "injective_missing",
                             "dims": list(q.dim_vector())})
    rng = Random(seed)
    projs = projectives(algebra)
    tested = 0
    for s in range(samples):
        if s % 2 == 0:
            t = rng.randrange(1, 4)
            parts = [projs[rng.randrange(len(projs))] for _ in range(t)]
        else:
            parts = projs  # regular module: full coverage
        big = direct_sum(parts)[0]
        gens = _random_generators(big, rng, 3)
        if not gens:
            continue
        sub, _ = spanned_submodule(big, gens)
        if sub.is_zero():
            continue
        tested += 1
        dec = decompose(sub)
        for part in dec.parts:
            if not tors.contains(part):
                failures.append({
                    "kind": "unlisted_torsionless_class",
                    "dims": list(part.dim_vector()),
                    "hash": part.content_hash(),
                    "sample": s,
                })
    return {
        "pass": not failures,
        "failures": failures,
        "samples_tested": tested,
        "seed": seed,
        "status": inv.status,
    }


def gamma_bijection_check(algebra: BasicAlgebra, inv: TorsionlessInventory,
                          assume_complete: bool = False, seed: int = 0) -> dict:
    """Certifies that gamma maps non-projective torsionless classes
    bijectively onto non-injective divisible classes with top/soc match.

    `seed` has no effect: gamma and its decompositions take no seed.  The
    parameter stays for callers that still pass it."""
    if inv.status != "complete" and not assume_complete:
        raise IncompleteInventory(
            "gamma bijection needs a complete inventory (or assume_complete)")
    sources = inv.non_projective_torsionless()
    targets = inv.non_injective_divisible()
    remaining = list(range(len(targets)))
    pairs = []
    failures = []
    for u in sources:
        g = gamma(u)
        from .decompose import is_indecomposable
        if g.is_zero() or not is_indecomposable(g):
            failures.append({"kind": "gamma_not_indecomposable",
                             "source_dims": list(u.dim_vector())})
            continue
        if not is_divisible(g):
            failures.append({"kind": "gamma_not_divisible",
                             "source_dims": list(u.dim_vector())})
            continue
        if is_injective_module(g):
            failures.append({"kind": "gamma_injective",
                             "source_dims": list(u.dim_vector())})
            continue
        hit = None
        for idx in remaining:
            ok, _ = is_isomorphic(targets[idx], g, assume_indecomposable=True)
            if ok:
                hit = idx
                break
        if hit is None:
            failures.append({"kind": "gamma_misses_inventory",
                             "source_dims": list(u.dim_vector()),
                             "gamma_dims": list(g.dim_vector())})
            continue
        remaining.remove(hit)
        t, _ = top(u)
        s, _ = socle(g)
        if t.dim_vector() != s.dim_vector():
            failures.append({"kind": "top_socle_mismatch",
                             "source_dims": list(u.dim_vector())})
        pairs.append({"source": list(u.dim_vector()),
                      "target": list(targets[hit].dim_vector())})
    if remaining:
        failures.append({"kind": "divisible_classes_unmatched",
                         "count": len(remaining)})
    return {
        "pass": not failures,
        "pairs": pairs,
        "failures": failures,
        "non_projective_torsionless": len(sources),
        "non_injective_divisible": len(targets),
        "assumed_complete": inv.status != "complete",
    }

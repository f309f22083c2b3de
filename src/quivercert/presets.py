"""Programmatic builders for the named example algebras.

Each returns a fresh BasicAlgebra over the given field (Q by default);
`io.algebra_to_json` serializes any of them.
"""

from __future__ import annotations

from .algebra import BasicAlgebra, build_algebra, tensor
from .fields import QQ, Field
from .quiver import Quiver


def a3_rad_square(field: Field = QQ) -> BasicAlgebra:
    """Linear A3 quiver 3 -> 2 -> 1 modulo the square of the radical."""
    q = Quiver.build(["1", "2", "3"], [("a32", "3", "2"), ("a21", "2", "1")])
    return build_algebra(q, field, [[("1", ("a32", "a21"))]])


def kronecker(field: Field = QQ) -> BasicAlgebra:
    """Double arrow 1 => 2, no relations."""
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return build_algebra(q, field, [])


def a2(field: Field = QQ) -> BasicAlgebra:
    q = Quiver.build(["1", "2"], [("a", "1", "2")])
    return build_algebra(q, field, [])


def commutative_square_plus(field: Field = QQ) -> BasicAlgebra:
    """Five-vertex quiver: a square e->c->a / e->d->a that commutes,
    plus an extra arrow d -> b."""
    q = Quiver.build(
        ["a", "b", "c", "d", "e"],
        [("ca", "c", "a"), ("da", "d", "a"), ("db", "d", "b"),
         ("ec", "e", "c"), ("ed", "e", "d")],
    )
    rel = [[("1", ("ec", "ca")), ("-1", ("ed", "da"))]]
    return build_algebra(q, field, rel)


def local_xy(field: Field = QQ) -> BasicAlgebra:
    """Local algebra on loops x, y with x^2 = y^2 and x-then-y = 0."""
    q = Quiver.build(["*"], [("x", "*", "*"), ("y", "*", "*")])
    rel = [
        [("1", ("x", "x")), ("-1", ("y", "y"))],
        [("1", ("x", "y"))],
    ]
    return build_algebra(q, field, rel, max_len=8)


def kronecker_tensor_a2(field: Field = QQ) -> BasicAlgebra:
    return tensor(kronecker(field), a2(field))


def kronecker_squared(field: Field = QQ) -> BasicAlgebra:
    return tensor(kronecker(field), kronecker(field))


def full_commutative_square(field: Field = QQ) -> BasicAlgebra:
    """Four-vertex commutative square; its P(top) is projective-injective."""
    q = Quiver.build(
        ["t", "m1", "m2", "b"],
        [("p", "t", "m1"), ("q", "t", "m2"), ("r", "m1", "b"), ("s", "m2", "b")],
    )
    rel = [[("1", ("p", "r")), ("-1", ("q", "s"))]]
    return build_algebra(q, field, rel)


def ex84_left(field: Field = QQ) -> BasicAlgebra:
    """Two disjoint length-2 chains hanging off one source c."""
    q = Quiver.build(
        ["c", "b1", "b2", "a1", "a2"],
        [("cb1", "c", "b1"), ("cb2", "c", "b2"), ("b1a1", "b1", "a1"), ("b2a2", "b2", "a2")],
    )
    return build_algebra(q, field, [])


def ex84_middle(field: Field = QQ) -> BasicAlgebra:
    """Two sources a, a2; the two paths a2 -> c commute."""
    q = Quiver.build(
        ["a", "a2", "b", "b2", "c", "c2"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("a2b", "a2", "b"),
         ("a2b2", "a2", "b2"), ("b2c", "b2", "c"), ("b2c2", "b2", "c2")],
    )
    rel = [[("1", ("a2b", "bc")), ("-1", ("a2b2", "b2c"))]]
    return build_algebra(q, field, rel)


def ex84_right(field: Field = QQ) -> BasicAlgebra:
    """Sources a, a2 sharing the chain b -> c."""
    q = Quiver.build(
        ["a", "a2", "b", "c"],
        [("ab", "a", "b"), ("a2b", "a2", "b"), ("bc", "b", "c")],
    )
    return build_algebra(q, field, [])


def semisimple(field: Field = QQ, n: int = 2) -> BasicAlgebra:
    q = Quiver.build([str(i) for i in range(1, n + 1)], [])
    return build_algebra(q, field, [])


def one_vertex(field: Field = QQ) -> BasicAlgebra:
    return semisimple(field, 1)


def truncated_polynomial(field: Field, power: int) -> BasicAlgebra:
    """k[t]/(t^power) as a one-loop quiver algebra."""
    q = Quiver.build(["*"], [("t", "*", "*")])
    rel = [[("1", ("t",) * power)]] if power >= 2 else []
    return build_algebra(q, field, rel, max_len=power + 2)

import pytest

from quivercert import GF, QQ
from quivercert import presets
from quivercert.module import projective
from quivercert.torsfin import (
    IncompleteInventory, TorsionlessInventory, detect_class,
    enumerate_torsionless, gamma_bijection_check, verify_inventory,
)


def test_detect_class_tags():
    assert detect_class(presets.a3_rad_square(QQ)) == {"rad_square_zero"}
    assert detect_class(presets.kronecker(QQ)) == {"rad_square_zero", "hereditary"}
    assert detect_class(presets.commutative_square_plus(QQ)) == set()


def test_inventory_a3rad2_counts():
    alg = presets.a3_rad_square(QQ)
    inv = enumerate_torsionless(alg)
    assert inv.status == "complete"
    assert inv.strategy == "rad_square_zero"
    assert len(inv.torsionless) == 4
    assert len(inv.divisible) == 4
    assert len(inv.non_projective_torsionless()) == 1
    assert len(inv.non_injective_divisible()) == 1


def test_inventory_hereditary_kronecker():
    alg = presets.kronecker(GF(3))
    inv = enumerate_torsionless(alg)
    # rad-square-zero wins in auto; torsionless = projectives + torsionless simples
    assert inv.status == "complete"
    simples_t = [m for m in inv.torsionless if m.total_dim() == 1]
    assert len(inv.torsionless) == 2  # P(1), P(2) = S(2); S(2) dedups with P(2)
    # hereditary but not radical-square-zero: the projectives alone
    alg = presets.ex84_left(GF(3))
    inv = enumerate_torsionless(alg)
    assert (inv.status, inv.strategy) == ("complete", "hereditary")
    assert len(inv.torsionless) == len(alg.quiver.vertices)


def test_inventory_commutative_square_counts():
    alg = presets.commutative_square_plus(GF(3))
    inv = enumerate_torsionless(alg, seed=0)
    assert inv.status == "bounded"
    assert len(inv.torsionless) == 6
    assert len(inv.divisible) == 6


def test_inventory_local_xy_counts():
    alg = presets.local_xy(GF(3))
    inv = enumerate_torsionless(alg, seed=0)
    assert inv.status == "bounded"
    assert len(inv.torsionless) == 5
    assert len(inv.divisible) == 5


def test_verify_inventory_passes_on_fixtures():
    for maker, field in ((presets.a3_rad_square, QQ),
                         (presets.commutative_square_plus, GF(3)),
                         (presets.local_xy, GF(3))):
        alg = maker(field)
        inv = enumerate_torsionless(alg, seed=0)
        cert = verify_inventory(alg, inv, samples=40, seed=1)
        assert cert["pass"], cert["failures"]


def test_verify_inventory_fails_on_empty():
    alg = presets.a3_rad_square(QQ)
    empty = TorsionlessInventory(alg, [], [], "complete", "rad_square_zero")
    cert = verify_inventory(alg, empty, samples=5, seed=0)
    assert not cert["pass"]
    kinds = {f["kind"] for f in cert["failures"]}
    assert "projective_missing" in kinds


def test_verify_inventory_flags_a_repeated_divisible_class():
    alg = presets.a3_rad_square(QQ)
    inv = enumerate_torsionless(alg)
    repeated = TorsionlessInventory(alg, inv.torsionless, inv.divisible + inv.divisible[:1],
                                    inv.status, inv.strategy)
    cert = verify_inventory(alg, repeated, samples=5, seed=0)
    assert cert["failures"] == [{"kind": "duplicate_divisible_class",
                                 "dims": list(inv.divisible[0].dim_vector())}]


def test_verify_inventory_fails_on_truncated_kron_a2():
    # listing only the projectives plus eta(I) misses torsionless classes
    alg = presets.kronecker_tensor_a2(GF(5))
    from quivercert.module import injective, quotient, radical, socle
    projs = [projective(alg, x) for x in alg.quiver.vertices]
    eta_i, _ = radical(projective(alg, "1.1"))
    injs = [injective(alg, x) for x in alg.quiver.vertices]
    q4 = injective(alg, "2.2")
    _, incl = socle(q4)
    eta_t, _ = quotient(q4, incl)
    short = TorsionlessInventory(alg, projs + [eta_i], injs + [eta_t],
                                 "bounded", "bounded_search")
    cert = verify_inventory(alg, short, samples=200, seed=3)
    assert not cert["pass"]
    assert any(f["kind"] == "unlisted_torsionless_class" for f in cert["failures"])


def test_gamma_bijection_a3rad2():
    alg = presets.a3_rad_square(QQ)
    inv = enumerate_torsionless(alg)
    cert = gamma_bijection_check(alg, inv)
    assert cert["pass"], cert["failures"]
    assert cert["non_projective_torsionless"] == 1
    assert cert["pairs"][0]["source"] == [0, 1, 0]
    assert cert["pairs"][0]["target"] == [0, 1, 0]


def test_gamma_bijection_needs_complete():
    alg = presets.commutative_square_plus(GF(3))
    inv = enumerate_torsionless(alg, seed=0)
    with pytest.raises(IncompleteInventory):
        gamma_bijection_check(alg, inv)
    cert = gamma_bijection_check(alg, inv, assume_complete=True)
    assert cert["pass"], cert["failures"]
    assert cert["assumed_complete"]
    assert cert["non_projective_torsionless"] == 1
    assert cert["non_injective_divisible"] == 1


def test_gamma_bijection_local_xy():
    alg = presets.local_xy(GF(3))
    inv = enumerate_torsionless(alg, seed=0)
    cert = gamma_bijection_check(alg, inv, assume_complete=True)
    assert cert["pass"], cert["failures"]
    assert cert["non_projective_torsionless"] == 4
    assert cert["non_injective_divisible"] == 4


def test_cor21_torsionless_counts_match_opposite():
    # |torsionless over A| = |torsionless over A^op| for complete inventories
    alg = presets.a3_rad_square(QQ)
    inv = enumerate_torsionless(alg)
    inv_op = enumerate_torsionless(alg.opposite())
    assert len(inv.torsionless) == len(inv_op.torsionless)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
def test_e1_auslander_generator_gldim_a3rad2(field):
    # radical-square-zero: the inventory is complete, so the Auslander
    # generator is exact and gl.dim End = 2 (within the paper's bound 3)
    from quivercert.endcat import CatAlgebra, auslander_generator, global_dimension
    alg = presets.a3_rad_square(field)
    inv = enumerate_torsionless(alg)
    assert inv.status == "complete"
    generator = auslander_generator(alg, inv)
    value, pds, _ = global_dimension(CatAlgebra(generator))
    assert value == 2
    assert len(pds) == len(generator)


def test_e1_auslander_generator_gldim_commutative_square_plus():
    # bounded search: the bound 3 is asserted where the gamma check
    # confirms the inventory
    from quivercert.endcat import CatAlgebra, auslander_generator, global_dimension
    alg = presets.commutative_square_plus(GF(5))
    inv = enumerate_torsionless(alg)
    assert inv.status == "bounded"
    assert gamma_bijection_check(alg, inv, assume_complete=True)["pass"]
    generator = auslander_generator(alg, inv, assume_complete=True)
    value, _, _ = global_dimension(CatAlgebra(generator))
    assert value is not None and value <= 3


@pytest.mark.parametrize("name", ["local_xy", "full_commutative_square"])
def test_e1_auslander_generator_gldim_at_most_three_over_gf3(name):
    from quivercert.endcat import CatAlgebra, auslander_generator, global_dimension
    alg = getattr(presets, name)(GF(3))
    inv = enumerate_torsionless(alg)
    assert gamma_bijection_check(alg, inv, assume_complete=True)["pass"]
    generator = auslander_generator(alg, inv, assume_complete=True)
    value, _, _ = global_dimension(CatAlgebra(generator))
    assert value is not None and value <= 3


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=str)
@pytest.mark.parametrize("name", ["ex84_left", "ex84_middle", "ex84_right"])
def test_e1_auslander_generator_gldim_at_most_three_on_ex84(name, field):
    from quivercert.endcat import CatAlgebra, auslander_generator, global_dimension
    alg = getattr(presets, name)(field)
    inv = enumerate_torsionless(alg)
    assert gamma_bijection_check(alg, inv, assume_complete=True)["pass"]
    generator = auslander_generator(alg, inv, assume_complete=True)
    value, _, _ = global_dimension(CatAlgebra(generator))
    assert value is not None and value <= 3


@pytest.mark.parametrize("field, digest", [
    pytest.param(GF(2), "8b9d0a89b7c51788f450a9dc4dd9a2f3b91e8166c7850c5aa19cb4149fc07e7f",
                 id="GF(2)"),
    pytest.param(GF(3), "f4c32bbd663ef1a0313f44dcf6a23f4fec16cb4b60fb5a71da3d2fed68d6addf",
                 id="GF(3)"),
])
def test_e1_kronecker_squared_gldim_is_four(field, digest):
    # K x K is not torsionless-finite and its rep.dim is 4, so the bounded
    # inventory misses classes, the gamma check says so, and the generator
    # from it has gl.dim End = 4, above the bound 3 of torsionless-finite
    # algebras; the digest is `io.payload_hash` of (value, pds, betti tables),
    # and `auslander_generator` has already kept one module per class
    from quivercert.endcat import CatAlgebra, auslander_generator, global_dimension
    from quivercert.io import payload_hash
    alg = presets.kronecker_squared(field)
    inv = enumerate_torsionless(alg)
    assert inv.status == "bounded"
    gamma = gamma_bijection_check(alg, inv, assume_complete=True)
    assert not gamma["pass"]
    assert {f["kind"] for f in gamma["failures"]} == {
        "divisible_classes_unmatched", "gamma_misses_inventory"}
    generator = auslander_generator(alg, inv, assume_complete=True)
    result = global_dimension(CatAlgebra(generator, verify=False))
    assert result[0] == 4
    assert payload_hash(result) == digest


def test_closure_decomposes_each_content_once(monkeypatch):
    # the opposite side can produce equal content hashes, so contents are
    # grouped by algebra; a repeated content cannot add a class
    from quivercert import torsfin
    original = torsfin.decompose
    seen: dict[int, list[str]] = {}

    def counting(m):
        seen.setdefault(id(m.algebra), []).append(m.content_hash())
        return original(m)

    monkeypatch.setattr(torsfin, "decompose", counting)
    enumerate_torsionless(presets.local_xy(GF(3)), seed=0)
    assert seen
    for hashes in seen.values():
        assert len(hashes) == len(set(hashes))


# full inventory digests, `io.payload_hash(inv.summary())`, recorded
# before the closure skipped repeated contents
E1_INVENTORY_DIGESTS = [
    ("local_xy", GF(3), 0,
     "0c5fbdfa99e997f10da1ab961eb0911f945b49016a300f68e45c5c00017eb61f"),
    ("local_xy", GF(3), 1,
     "78a207bfc69b699c7b873065f933a636053dfe9096d8e4a6343ea64b0f50779e"),
    ("local_xy", GF(3), 2,
     "11abdcad35adfa4cdbea6fc8ff9347f55fd589ff66e1b875747cd7e75e69e0e5"),
    ("commutative_square_plus", GF(5), 0,
     "d03a4ca05a14c61c41735c6cbbb204b779b468dcfaa6820471b3f70541fe7fe3"),
    ("kronecker_tensor_a2", GF(5), 0,
     "6d3dd06000d3d418d6e38d99aa0bdb03d870db0885a002885758b8cd07f8645c"),
    ("a3_rad_square", GF(5), 0,
     "cdb381c20726ebd389f78f845f1eb8b449523ad32d7c82935199bc4f51be44ad"),
    ("commutative_square_plus", QQ, 0,
     "d03a4ca05a14c61c41735c6cbbb204b779b468dcfaa6820471b3f70541fe7fe3"),
    ("kronecker_tensor_a2", QQ, 0,
     "d9dc5fb99ee7a86b313b1758af3c68977ea871bf78a5c5c009bc1faa0e98a083"),
    ("a3_rad_square", QQ, 0,
     "cdb381c20726ebd389f78f845f1eb8b449523ad32d7c82935199bc4f51be44ad"),
]


@pytest.mark.parametrize("name, field, seed, digest", E1_INVENTORY_DIGESTS,
                         ids=lambda v: str(v)[:24])
def test_e1_inventory_digests_are_pinned(name, field, seed, digest):
    from quivercert.io import payload_hash
    inv = enumerate_torsionless(getattr(presets, name)(field), seed=seed)
    assert payload_hash(inv.summary()) == digest


@pytest.mark.parametrize("name, field", [("local_xy", GF(3)), ("kronecker_tensor_a2", GF(5))],
                         ids=str)
def test_closure_repeats_no_approximation_and_no_hom_basis(monkeypatch, name, field):
    # one AddCategory per closure, keyed by module object, and no
    # approximation step on a class list that has not grown; modules hash
    # by identity, so the keys below hold the objects themselves
    from quivercert import approx, torsfin
    from quivercert.io import payload_hash
    approximations, pairs = [], []
    original_approx, original_hom = torsfin.right_add_approximation, approx.hom_basis

    def counting_approx(summands, x, cat=None):
        approximations.append((tuple(summands), x.content_hash()))
        return original_approx(summands, x, cat=cat)

    def counting_hom(m, n):
        pairs.append((m, n))
        return original_hom(m, n)

    monkeypatch.setattr(torsfin, "right_add_approximation", counting_approx)
    monkeypatch.setattr(approx, "hom_basis", counting_hom)
    inv = enumerate_torsionless(getattr(presets, name)(field), seed=0)
    assert approximations and pairs
    assert len(approximations) == len(set(approximations))
    assert len(pairs) == len(set(pairs))
    pinned = {(n, str(f), s): d for n, f, s, d in E1_INVENTORY_DIGESTS}
    assert payload_hash(inv.summary()) == pinned[name, str(field), 0]


@pytest.mark.parametrize("name, field", [("local_xy", GF(3)), ("commutative_square_plus", GF(5))],
                         ids=str)
def test_closure_reads_coordinates_it_already_holds(monkeypatch, name, field):
    # spanned_submodule reads its action off the saturation, minpoly_matrix
    # its annihilators off the Krylov echelon, and End/rad its structure
    # constants off the End basis's free columns: none of them solves
    import sys
    from quivercert import decompose, torsfin, upoly
    from quivercert.matrix import Matrix
    original_solve = Matrix.solve
    solving = []

    def watched_solve(self, b):
        frame, callers = sys._getframe(1), []
        while frame is not None:
            code = frame.f_code
            callers.append((code.co_filename.rsplit("/", 1)[-1], code.co_name))
            frame = frame.f_back
        solving.append(callers)
        return original_solve(self, b)

    calls = {"spanned_submodule": 0, "minpoly_matrix": 0, "QuotientAlgebra": 0}

    def counted(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    monkeypatch.setattr(Matrix, "solve", watched_solve)
    counted(torsfin, "spanned_submodule", "spanned_submodule")
    counted(upoly, "minpoly_matrix", "minpoly_matrix")
    counted(decompose.QuotientAlgebra, "__init__", "QuotientAlgebra")
    enumerate_torsionless(getattr(presets, name)(field), seed=0)  # fresh: no caches
    assert all(calls.values()), calls
    assert solving
    for callers in solving:
        assert ("module.py", "spanned_submodule") not in callers
        assert ("upoly.py", "minpoly_matrix") not in callers
        from_decompose = any(f == "decompose.py" for f, _ in callers)
        assert not (from_decompose and ("module.py", "map_coordinates") in callers)

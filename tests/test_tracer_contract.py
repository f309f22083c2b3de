"""The benchmark tracer (`qcbench/tracer.py`) wraps named functions and
methods of `quivercert`; this checks that every name it targets still
exists, that one traced decomposition records spans and restores every
original, and that a traced gl.dim computes Gamma's composition tensor
once per triple of objects, that a traced torsionless closure
decomposes few modules, and that a traced Kuenneth witness builds each
tensor term of its total complexes once and one tensored sequence per
coordinate value of a lattice its factors share, or that an Odim witness
on the same lattice shares, and that traced socle truncations solve no
linear system.  The tracer file is only read, never
changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

from quivercert import GF, endcat, presets
from quivercert import decompose as decompose_module
from quivercert import lattice as lattice_module
from quivercert.algebra import tensor
from quivercert.tiered import build_layering, truncations
from quivercert.torsfin import enumerate_torsionless
from quivercert.module import projective, simple, sum_module

TRACER = Path(__file__).resolve().parents[1] / "qcbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qcbench_tracer_contract", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up here
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        *cls_path, attr = target.qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{target.module}.{target.qualname}"


def test_traced_decompose_records_spans_and_restores():
    tracer = _load_tracer()
    originals = {
        "decompose": decompose_module.decompose,
        "radical_coords": vars(decompose_module.EndAlgebra)["radical_coords"],
    }
    alg = presets.a3_rad_square(GF(3))
    m = sum_module(alg, [projective(alg, "2"), simple(alg, "3"), simple(alg, "3")])
    t = tracer.Tracer()
    with t:
        assert decompose_module.decompose.qcbench_traced
        dec = decompose_module.decompose(m)
    assert dec.witness.is_isomorphism()
    metrics = t.layer_metrics()
    assert metrics["decompose.decompose.calls"][0] == 1
    assert metrics["decompose.end_radical.calls"][0] >= 1
    assert metrics["decompose.end_radical.distinct_ratio"][0] > 0
    for owner, attr, original in t.patches:
        assert vars(owner)[attr] is original
    assert decompose_module.decompose is originals["decompose"]
    assert vars(decompose_module.EndAlgebra)["radical_coords"] is originals["radical_coords"]


def test_traced_global_dimension_composes_once_per_triple():
    tracer = _load_tracer()
    original = vars(endcat.CatAlgebra)["compose_into"]
    cat = endcat.CatAlgebra(build_layering(presets.kronecker_squared(GF(2))).objects,
                            verify=False)
    t = tracer.Tracer()
    with t:
        assert endcat.CatAlgebra.compose_into.qcbench_traced
        value, _, _ = endcat.global_dimension(cat)
    assert value == 4
    calls = t.layer_metrics()["endcat.compose_into.calls"][0]
    assert 0 < calls <= len(cat) ** 3
    for owner, attr, original_obj in t.patches:
        assert vars(owner)[attr] is original_obj
    assert vars(endcat.CatAlgebra)["compose_into"] is original


def test_traced_closure_decomposes_each_content_once():
    # the closure on local_xy@GF(3) and its opposite meets 104 modules of
    # 44 distinct contents (counted per side) and decomposes each once
    tracer = _load_tracer()
    t = tracer.Tracer()
    with t:
        inv = enumerate_torsionless(presets.local_xy(GF(3)), seed=0)
    assert len(inv.torsionless) == 5
    calls = t.layer_metrics()["decompose.decompose.calls"][0]
    assert 0 < calls <= 44
    for owner, attr, original in t.patches:
        assert vars(owner)[attr] is original


def test_traced_kunneth_witness_builds_each_term_once():
    # K (x) K over GF(7): four shared X_i (x) P_j and one end per point,
    # 4 + 49 tensor modules, not five per point
    tracer = _load_tracer()
    original = lattice_module.tensor_module
    field = GF(7)
    lat = lattice_module.kronecker_family(presets.kronecker(field))
    t = tracer.Tracer()
    with t:
        assert lattice_module.tensor_module.qcbench_traced
        cert = lattice_module.kunneth_witness(presets.kronecker_squared(field), lat, lat)
    assert cert["passed"] == 49
    calls = t.layer_metrics()["lattice.tensor_module.calls"][0]
    assert 0 < calls <= 53
    for owner, attr, original_obj in t.patches:
        assert vars(owner)[attr] is original_obj
    assert lattice_module.tensor_module is original


def test_traced_kunneth_witness_builds_each_sequence_once():
    # K (x) K over GF(7) with one lattice for both factors: one tensored
    # sequence per coordinate value, 7, not one per factor and value
    tracer = _load_tracer()
    field = GF(7)
    lat = lattice_module.kronecker_family(presets.kronecker(field))
    t = tracer.Tracer()
    with t:
        assert lattice_module.tensor_sequence.qcbench_traced
        cert = lattice_module.kunneth_witness(presets.kronecker_squared(field), lat, lat)
    assert cert["passed"] == 49
    assert t.layer_metrics()["lattice.tensor_sequence.calls"][0] == field.p
    for owner, attr, original in t.patches:
        assert vars(owner)[attr] is original


def test_traced_odim_and_kunneth_witnesses_build_each_sequence_once():
    # an odim_witness and a kunneth_witness on one lattice over GF(7): the
    # sequences and resolutions live in the lattice algebra's memo, so the
    # pair builds 7 tensored sequences, not 7 per witness
    tracer = _load_tracer()
    field = GF(7)
    lat = lattice_module.kronecker_family(presets.kronecker(field))
    t = tracer.Tracer()
    with t:
        assert lattice_module.odim_witness(lat)["passed"] == 7
        assert lattice_module.kunneth_witness(
            presets.kronecker_squared(field), lat, lat)["passed"] == 49
    assert t.layer_metrics()["lattice.tensor_sequence.calls"][0] == field.p
    for owner, attr, original in t.patches:
        assert vars(owner)[attr] is original


def test_traced_truncations_solve_for_nothing():
    # K (x) K (x) K over GF(2): every socle term's action is read off its
    # saturation's echelon form, so no `Matrix.solve` runs
    tracer = _load_tracer()
    alg = tensor(presets.kronecker_squared(GF(2)), presets.kronecker(GF(2)))
    t = tracer.Tracer()
    with t:
        assert truncations(alg)
    metrics = t.layer_metrics()
    assert metrics["matrix.rref.calls"][0] > 0
    assert metrics["matrix.solve.calls"][0] == 0
    for owner, attr, original in t.patches:
        assert vars(owner)[attr] is original

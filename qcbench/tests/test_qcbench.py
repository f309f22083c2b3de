"""Tests of the benchmark itself: span arithmetic, patch restoration,
the correctness gates and the seed handling.

Run from the root of the repository:

    python3 -m pytest -q qcbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from quivercert import endcat, module  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, "c"],
        ["a", 1.0, 4.0, 0, "c"],
        ["b", 3.0, 6.0, 0, "c"],  # overlaps a: covered time is 1..6
        ["leaf", 2.0, 3.0, 1, "c"],
        ["c", 8.0, 12.0, 0, "c"],  # sticks out of root: clipped at 10
    ]
    assert tracer.self_times(spans) == [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 1.0, 4.0]


def test_layer_metrics_from_synthetic_spans():
    t = tracer.Tracer()
    t.spans = [
        ["torsfin.verify_inventory", 0.0, 2.0, -1, "x"],
        ["upoly.charpoly", 0.5, 1.0, 0, "x"],
        ["upoly.charpoly", 1.0, 1.25, 0, "x"],
        [tracer.PROBE, 1.5, 2.0, 0, "x"],
    ]
    m = t.layer_metrics()
    assert m["upoly.charpoly.calls"] == (2, "count")
    assert m["upoly.charpoly.self_s"] == (0.75, "s")
    assert m["torsfin.verify_inventory.s"] == (2.0, "s")
    assert m["endcat.compose_into.calls"] == (0, "count")


def _wrapped_leftovers():
    """Names in quivercert modules or classes that still hold a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "quivercert" or name.startswith("quivercert.")):
            continue
        for attr, value in vars(mod).items():
            members = vars(value).items() if isinstance(value, type) else ()
            for where, obj in [(attr, value)] + [(f"{attr}.{m}", v) for m, v in members]:
                if getattr(obj, "qcbench_traced", False):
                    found.append(f"{name}.{where}")
    return found


def test_traced_round_restores_every_name():
    originals = {
        "module.hom_basis": module.hom_basis,
        "endcat.hom_basis": endcat.hom_basis,
        "CatAlgebra.compose_into": endcat.CatAlgebra.__dict__["compose_into"],
    }
    assert endcat.hom_basis is module.hom_basis
    t = tracer.Tracer()
    with t:
        # the alias imported into endcat is wrapped too, not only module.hom_basis
        assert endcat.hom_basis.qcbench_traced and module.hom_basis.qcbench_traced
        wl = workloads.WORKLOADS["e2_layering"](0)
        wl.inputs = wl.inputs[:1]
        ledger = run.Ledger(t)
        wl.run_round(ledger, 0)
    assert not ledger.failures
    assert t.patches
    for owner, attr, original in t.patches:
        assert vars(owner)[attr] is original
    assert _wrapped_leftovers() == []
    assert module.hom_basis is originals["module.hom_basis"]
    assert endcat.hom_basis is originals["endcat.hom_basis"]
    assert endcat.CatAlgebra.__dict__["compose_into"] is originals["CatAlgebra.compose_into"]
    names = {span[0] for span in t.spans}
    assert {"endcat.compose_into", "module.hom_basis", "tiered.truncations"} <= names
    assert {span[4] for span in t.spans} >= {"KxK/truncations", "KxK/gldim"}


def test_forked_round_leaves_the_parent_untouched():
    class Counting:
        calls = 0

        def run_round(self, cert, round_no):
            self.calls += 1
            cert(f"round{round_no}", lambda: round_no, lambda v: {"round": v})

    wl = Counting()
    out = run._forked_round(wl, 4)
    assert wl.calls == 0
    assert out["attempted"] == 1 and out["failures"] == []
    assert [c[0] for c in out["certificates"]] == ["round4"]
    assert out["wall_s"] >= 0 and out["peak_rss_mb"] > 0


def test_gates_trip_on_wrong_values():
    assert workloads.check_e1_gldim(([], (3, [], [])), gamma_ok=True) is None
    assert workloads.check_e1_gldim(([], (4, [], [])), gamma_ok=True)
    assert workloads.check_e1_gldim(([], (None, [], [])), gamma_ok=True)
    # the bound is not asserted for a module list the gamma check rejected
    assert workloads.check_e1_gldim(([], (4, [], [])), gamma_ok=False) is None
    good = {"points": 49, "passed": 49, "witness_for_odim_ge": 2}
    assert workloads.check_kunneth(good, 7) is None
    assert workloads.check_kunneth(dict(good, points=48, passed=48), 7)
    assert workloads.check_kunneth(dict(good, witness_for_odim_ge=0), 7)
    assert workloads.check_odim({"witness_for_odim_ge": 0})
    assert workloads.check_gldim_equals((5, [], []), 4)
    assert workloads.check_layering({"pass": True, "bound": 4}, 5)

    ledger = run.Ledger()
    ledger("wrong", lambda: ([], (4, [], [])), workloads._gldim_payload,
           check=lambda r: workloads.check_e1_gldim(r, True))
    ledger("raises", lambda: 1 / 0, dict)
    assert ledger.attempted == 2
    assert [f[0] for f in ledger.failures] == ["wrong", "raises"]


def _e1_digests(seed, round_no=0):
    wl = workloads.E1((("commutative_square_plus", 5),), seed)
    ledger = run.Ledger()
    wl.run_round(ledger, round_no)
    assert not ledger.failures
    return {label: digest for label, digest, _ in ledger.certificates()}


def test_seed_changes_e1_inputs():
    one, again, two, later = _e1_digests(1), _e1_digests(1), _e1_digests(2), _e1_digests(1, 1)
    assert one == again
    verify = "commutative_square_plus@F5/verify"
    assert one[verify] != two[verify]
    assert one[verify] != later[verify]


def test_reference_kernel_is_fixed_work():
    import ref
    assert ref.kernel() == ref.kernel()
    wall, cpu = run._reference()
    assert wall > 0 and cpu > 0

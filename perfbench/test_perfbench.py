"""Tests of the benchmark itself: its output, its oracles and its tracer.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int)
    return doc


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_short_run_reads_back_with_spec_names():
    doc = _last_json(_run("structure-qq", 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    # one round; the depth-zero op fails every time (a program fault)
    per_round = (len(workloads._read_corpus()) + len(workloads.MONOMIAL_TEMPLATES)
                 + len(workloads.DEPTH_ZERO) + len(workloads.LINEAR_TEMPLATES))
    assert doc["attempted"] == per_round
    assert doc["correct"] and doc["failed"] == len(workloads.DEPTH_ZERO)


def test_traced_run_reads_back_with_spec_names():
    doc = _last_json(_run("fresh-coefficients", 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert doc["correct"] and doc["failed"] == 0
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    selfs = sum(v for k, v in m.items()
                if k.endswith(".self_s") and k != "bench.self_s")
    assert selfs + m["bench.self_s"] == pytest.approx(m["bench.traced_wall_s"])
    assert m["hilbert.coefficients_calls"] > 0
    assert m["hilbert.coefficients_repeat_calls"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("check-corpus", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- oracles -----------------------------------------------------------------


def test_quotient_length_and_rank():
    x2, y3 = {(2, 0): 1}, {(0, 3): 1}
    vecs = [{(0, m): c for m, c in p.items()} for p in (x2, y3)]
    assert oracles.quotient_length(32003, 2, [0], vecs) == 6
    assert oracles.quotient_length(32003, 2, [0], vecs[:1]) is None
    matrix = [[{(1, 0): 1}, {(0, 1): 1}], [{(1, 0): 2}, {(0, 1): 2}]]
    assert oracles.rank_at_points(matrix, 2) == 1


def test_parse_and_groebner_agree_with_hand_values():
    assert oracles.parse_polys(["x^2 - 3*x*y"], ["x", "y"]) == [
        {(2, 0): 1, (1, 1): -3}]
    basis = oracles.sympy_groebner(["x*y", "x^2 - y^2"], ["x", "y"])
    assert basis == {oracles.monic(p) for p in (
        {(1, 1): 1}, {(2, 0): 1, (0, 2): -1}, {(0, 3): 1})}


def _hilbert(**change):
    args = dict(name="two-plane", degrees=(1, 2), e=[4, -1, 0], chi1=1, h0=5,
                colength=5, length=5, cm=False, e1_constant=-1)
    args.update(change)
    return oracles.hilbert_errors(**args)


@pytest.mark.parametrize("change", [
    {"e": [3, -1, 0]},                                  # e0 != e(M)*prod(deg)
    {"e": [4, 0, 0]},                                   # e1 off the constant
    {"name": "hypersurface", "e": [4, -1, 0], "e1_constant": None,
     "cm": True},                                       # e1 != 0 on CM
    {"chi1": 2},                                        # chi1 != length - e0
    {"colength": 6},                                    # program colength
    {"h0": 4},                                          # H0 length
    {"chi1": -1, "length": 3, "colength": 3, "h0": 3},  # chi1 < 0
])
def test_hilbert_oracle_rejects_wrong_values(change):
    assert _hilbert() == []
    assert _hilbert(**change)


def _brim(**change):
    args = dict(base_multiplicity=2, base_dim=2, cm=True, e1_constant=None,
                r=2, br=6, br1=0, degree=3)
    args.update(change)
    return oracles.brim_errors(**args)


@pytest.mark.parametrize("change", [
    {"br": 5}, {"br1": -1}, {"degree": 2},
    {"r": 1, "br": 2, "br1": 0, "degree": 2, "cm": False, "e1_constant": -1},
])
def test_brim_oracle_rejects_wrong_values(change):
    assert _brim() == []
    assert _brim(r=1, br=2, br1=-1, degree=2, cm=False, e1_constant=-1) == []
    assert _brim(**change)


def _structure(res_change=(), facts_change=()):
    x, y = {(1, 0): 1}, {(0, 1): 1}
    res = {"betti": [1, 2, 1], "ab_depth": 2, "ext_depth": 2, "depth": 2,
           "resolution": [[[x, y]], [[y], [{(1, 0): -1}]]],
           "groebner": {oracles.monic(x), oracles.monic(y)},
           "unmixed": True, "cm": True, "dim": 0, "h": [],
           "koszul": {"lengths": [1], "chi1": 0, "colength": 1}}
    facts = {"rank": 0, "groebner": {oracles.monic(x), oracles.monic(y)},
             "length": 1, "claims": {"depth": 2}}
    res.update(dict(res_change))
    facts.update(dict(facts_change))
    return oracles.structure_errors(res, facts)


@pytest.mark.parametrize("res_change,facts_change", [
    ({"ab_depth": 1}, ()),                               # depth disagreement
    ({"betti": [1, 2, 2]}, ()),                          # alternating sum
    ({"resolution": [[[{(1, 0): 1}, {(0, 1): 1}]],
                     [[{(0, 1): 1}], [{(1, 0): 1}]]]}, ()),  # d o d != 0
    ({"groebner": set()}, ()),                           # sympy disagrees
    ({"koszul": {"lengths": [2], "chi1": 0, "colength": 1}}, ()),  # H0
    ({"koszul": {"lengths": [1], "chi1": 1, "colength": 1,
                 "recursion": (1, 0, 0)}}, ()),          # recursion
    ({"unmixed": False}, ()),                            # CM not unmixed
    ((), {"claims": {"depth": 1}}),                      # corpus claim
])
def test_structure_oracle_rejects_wrong_values(res_change, facts_change):
    assert _structure() == []
    assert _structure(res_change, facts_change)


def test_check_rows_oracle_rejects_failed_or_changed_rows():
    row = {"instance": "a", "check": "c", "passed": True, "detail": "d"}
    assert oracles.check_rows_errors([row], [row]) == []
    assert oracles.check_rows_errors([dict(row, passed=False)],
                                     [dict(row, passed=False)])
    assert oracles.check_rows_errors([dict(row, detail="e")], [row])


# -- tracer ------------------------------------------------------------------


def test_tracer_patches_every_importer_and_restores():
    from gradedca import gb, hilbert
    from gradedca.jobio import build_job
    original = gb.reduce_vector
    tr = tracing.Tracer()
    tr.install()
    try:
        assert gb.reduce_vector is not original
        assert hilbert.reduce_vector is gb.reduce_vector
        job = build_job({"ring": {"variables": ["x", "y"]},
                         "module": {"twists": [0], "relations": [["x^2"]]}})
        gens = [job.ring.poly("y")]
        hilbert.hilbert_coefficients(job.module, gens)
        hilbert.hilbert_coefficients(job.module, gens)
    finally:
        tr.uninstall()
    assert gb.reduce_vector is original and hilbert.reduce_vector is original
    assert tr.calls("hilbert.hilbert_coefficients") == 2
    assert tr.repeat_coefficients == 1
    assert tr.calls("gb.reduce_vector") > 0
    assert sum(tr.layer_self().values()) == pytest.approx(tr.root_time())


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "gb", ["no_such_function",
                                              "SubmoduleGB.no_such_method"])
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["gb.no_such_function", "gb.SubmoduleGB.no_such_method"]
    assert tr.calls("gb.no_such_function") == 0

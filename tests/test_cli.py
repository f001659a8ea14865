import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from gradedca.cli import main
from gradedca.gb import GBError

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def write_job(tmp_path, raw, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


BASIC_JOB = {
    "name": "basic",
    "ring": {"variables": ["x", "y"]},
    "module": {"twists": [0], "relations": []},
    "ideals": {"Q": ["x", "y"]},
    "ops": [{"op": "hilbert-coefficients", "ideal": "Q"},
            {"op": "dim"}],
}


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_report(tmp_path, capsys):
    path = write_job(tmp_path, BASIC_JOB)
    code, out, _ = run_main(["compute", path, "--no-timings"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "basic"
    assert report["results"][0]["result"]["e"] == [1, 0, 0]
    assert report["results"][1]["result"] == 2
    assert "timings" not in report
    assert report["versions"]["gradedca"]


def test_compute_reads_rational_coefficients_over_q(tmp_path, capsys):
    job = copy.deepcopy(BASIC_JOB)
    job["ring"]["characteristic"] = None
    job["ideals"] = {"Q": ["1/2*x", "y - 2/3*x"]}
    path = write_job(tmp_path, job)
    code, out, _ = run_main(["compute", path, "--no-timings"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["result"]["e"] == [1, 0, 0]


def test_compute_is_reproducible(tmp_path, capsys):
    job = copy.deepcopy(BASIC_JOB)
    job["ops"] = [{"op": "estimate-lambda"}]
    job["sample"] = {"seed": 5, "count": 4}
    path = write_job(tmp_path, job)
    outs = []
    for _ in range(2):
        code, out, _ = run_main(
            ["compute", path, "--no-timings"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seed_override_echoed(tmp_path, capsys):
    job = copy.deepcopy(BASIC_JOB)
    job["sample"] = {"seed": 5}
    path = write_job(tmp_path, job)
    code, out, _ = run_main(
        ["compute", path, "--seed", "99", "--no-timings"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 99


def test_csv_output(tmp_path, capsys):
    job = copy.deepcopy(BASIC_JOB)
    job["ops"] = [{"op": "hilbert-samuel", "ideal": "Q", "N": 4}]
    path = write_job(tmp_path, job)
    code, out, _ = run_main(
        ["compute", path, "--format", "csv", "--no-timings"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#") and "op" in lines[0]
    assert len(lines) >= 5


def test_malformed_polynomial_exits_2(tmp_path, capsys):
    job = copy.deepcopy(BASIC_JOB)
    job["ideals"] = {"Q": ["x +* y", "y"]}
    path = write_job(tmp_path, job)
    code, _, err = run_main(["compute", path], capsys)
    assert code == 2 and err.count("position") == 1


@pytest.mark.parametrize("extra", [{"unknown_key": 1},
                                   {"sample": {"retry_limit": 50}}],
                         ids=["unknown_key", "sample.retry_limit"])
def test_unknown_field_exits_2(tmp_path, capsys, extra):
    job = dict(copy.deepcopy(BASIC_JOB), **extra)
    path = write_job(tmp_path, job)
    code, _, err = run_main(["compute", path], capsys)
    assert code == 2


def test_env_characteristic(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRADEDCA_CHAR", "0")
    path = write_job(tmp_path, BASIC_JOB)
    code, out, _ = run_main(["compute", path, "--no-timings"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["ring"].get("characteristic") is None \
        or json.loads(out)["results"][0]["e"] == [1, 0, 0]


@pytest.mark.parametrize("char", [2, 4, -7])
def test_bad_characteristic_exits_2(tmp_path, capsys, char):
    raw = json.loads(open(os.path.join(CORPUS, "free-plane.json")).read())
    raw["ring"]["characteristic"] = char
    path = write_job(tmp_path, raw)
    code, _, err = run_main(["compute", path], capsys)
    assert code == 2 and "invalid job" in err
    code, _, err = run_main(["check", str(tmp_path)], capsys)
    assert code == 2 and "invalid job" in err


def test_bad_env_characteristic_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRADEDCA_CHAR", "4")
    path = write_job(tmp_path, BASIC_JOB)
    code, _, err = run_main(["compute", path], capsys)
    assert code == 2 and "4 is not prime" in err


def test_check_corpus_passes(tmp_path, capsys):
    # a small corpus: copy two fast instances
    for name in ("free-plane.json", "ci-points.json"):
        shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
    code, out, _ = run_main(["check", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["passed"] > 0
    assert "timings" not in report


def test_check_negative_control(tmp_path, capsys):
    # corrupt a claimed value: the check must fail, exit code 1
    raw = json.loads(
        open(os.path.join(CORPUS, "free-plane.json")).read())
    raw["claims"]["dim"] = 7
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    code, out, _ = run_main(["check", str(tmp_path)], capsys)
    assert code == 1
    report = json.loads(out)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and all(c["check"].startswith("claim") for c in failing)


def test_check_full_corpus_matches_recorded_matrix(capsys, monkeypatch):
    monkeypatch.delenv("GRADEDCA_CHAR", raising=False)
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "check_matrix.json")
    with open(path) as fh:
        recorded = fh.read()
    code, out, _ = run_main(["check", CORPUS], capsys)
    assert code == 0
    assert out == recorded


def test_check_empty_corpus(tmp_path, capsys):
    code, out, _ = run_main(["check", str(tmp_path)], capsys)
    assert code == 0 and json.loads(out)["passed"] == 0


def test_check_zero_module(tmp_path, capsys):
    raw = {"name": "zero",
           "ring": {"characteristic": 32003, "variables": ["x", "y"]},
           "module": {"twists": [0], "relations": [["1"]]},
           "claims": {"dim": "-infinite"}}
    (tmp_path / "zero.json").write_text(json.dumps(raw))
    code, out, _ = run_main(["check", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] == 1 and report["failed"] == 0
    assert [c["check"] for c in report["checks"]] == ["claim:dim"]


def test_check_deterministic(tmp_path, capsys):
    shutil.copy(os.path.join(CORPUS, "ci-points.json"),
                tmp_path / "ci-points.json")
    outs = []
    for _ in range(2):
        code, out, _ = run_main(["check", str(tmp_path)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "gradedca.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and "compute" in proc.stdout


def _top_level_packages_after(module):
    """The top-level packages in sys.modules of a fresh interpreter that
    has imported module."""
    script = ("import json, sys, %s\n"
              "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
              % module)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout))


def test_cli_import_loads_only_stdlib_and_gradedca():
    # startup cost: beyond what the interpreter loads before any import
    # (__main__, site hooks), importing the CLI may load the standard
    # library and gradedca, nothing else: jobs are validated in the repo
    extra = (_top_level_packages_after("gradedca.cli")
             - _top_level_packages_after("sys")
             - set(sys.stdlib_module_names) - {"gradedca"})
    assert not extra


@pytest.mark.parametrize("error", [GBError("no basis"),
                                   AssertionError("e1 must be <= 0")])
def test_check_isolates_a_failing_instance(tmp_path, capsys, monkeypatch, error):
    import gradedca.cli as cli
    raw = json.loads(open(os.path.join(CORPUS, "ci-points.json")).read())
    (tmp_path / "good.json").write_text(json.dumps(raw))
    raw["name"] = "broken-instance"
    (tmp_path / "broken.json").write_text(json.dumps(raw))
    battery = cli.check_instance

    def check_instance(job):
        if job.name == "broken-instance":
            raise error
        return battery(job)
    monkeypatch.setattr(cli, "check_instance", check_instance)
    code, out, _ = run_main(["check", str(tmp_path)], capsys)
    assert code == 1
    report = json.loads(out)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing == [{"instance": "broken",
                        "check": "error:%s" % type(error).__name__,
                        "passed": False, "detail": str(error)}]
    assert report["passed"] > 0
    assert all(c["instance"] == "ci-points" for c in report["checks"]
               if c["passed"])


def test_check_invalid_instance_exits_2(tmp_path, capsys):
    # the brim columns are parsed inside the battery, which must still
    # treat a malformed polynomial as invalid input
    shutil.copy(os.path.join(CORPUS, "ci-points.json"), tmp_path / "good.json")
    raw = json.loads(open(os.path.join(CORPUS, "brim-line.json")).read())
    raw["brim"]["columns"] = [["x +* x", "0"], ["0", "x"]]
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    code, _, err = run_main(["check", str(tmp_path)], capsys)
    assert code == 2 and err.count("position") == 1


def test_check_unreadable_json_exits_2(tmp_path, capsys):
    shutil.copy(os.path.join(CORPUS, "ci-points.json"), tmp_path / "good.json")
    (tmp_path / "bad.json").write_text('{"name": ')
    code, _, err = run_main(["check", str(tmp_path)], capsys)
    assert code == 2 and "bad.json" in err


@pytest.mark.parametrize("relations,unmixed", [([["x"]], True),
                                               ([["x^2"], ["x*y"]], False)])
def test_unmixed_op_reads_its_component(monkeypatch, relations, unmixed):
    # the op reads U's dimension and length off HS(U); dim M/U = dim M
    from gradedca import gb, homology, jobio
    raw = {"name": "unmixed", "ring": {"variables": ["x", "y"]},
           "module": {"twists": [0], "relations": relations},
           "ops": [{"op": "unmixed"}]}
    result = jobio.run_job(raw, with_timings=False)["results"][0]["result"]
    assert result["unmixed"] is unmixed
    assert result["component_dim"] == ("-infinite" if unmixed else 0)
    assert result["quotient_dim"] == 1
    # each fact once: with the profile built, an unmixed module's component
    # needs no further Groebner basis
    with open(os.path.join(CORPUS, "two-plane.json")) as fh:
        module = jobio.build_job(json.load(fh)).module
    homology.local_cohomology_lengths(module)

    def no_groebner(*args, **kwargs):
        raise AssertionError("the profile already says U = 0")
    monkeypatch.setattr(gb, "_groebner", no_groebner)
    assert homology.unmixed_component(module) == {}


def _break_leading_coefficient(*args):
    """A fit whose e₀ = 0 violates the invariant e₀ ≥ 1."""
    return [0, 0, 0], [0, 0, 0, 0], 0


def test_invariant_violation_exits_3_under_O(tmp_path):
    # under -O an assert would vanish and the job would exit 0
    path = write_job(tmp_path, BASIC_JOB)
    script = (
        "import sys\n"
        "from gradedca import cli, hilbert\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "hilbert.fit_binomial = lambda *args: ([0, 0, 0], [0, 0, 0, 0], 0)\n"
        "sys.exit(cli.main(['compute', sys.argv[1]]))\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script, path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert "computation error [InvariantViolation]: leading Hilbert " \
        "coefficient must be positive" in proc.stderr


def test_check_reports_an_invariant_violation_as_a_row(tmp_path, capsys,
                                                        monkeypatch):
    import gradedca.hilbert as hilbert
    shutil.copy(os.path.join(CORPUS, "free-plane.json"), tmp_path / "a.json")
    monkeypatch.setattr(hilbert, "fit_binomial", _break_leading_coefficient)
    code, out, _ = run_main(["check", str(tmp_path)], capsys)
    assert code == 1
    failing = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert failing == [{"instance": "a", "check": "error:InvariantViolation",
                        "passed": False,
                        "detail": "leading Hilbert coefficient must be positive"}]


def _mixed_line(ideals=None, ops=()):
    raw = json.loads(open(os.path.join(CORPUS, "mixed-line.json")).read())
    if ideals is not None:
        raw["ideals"] = ideals
    raw["ops"] = list(ops)
    return raw


BAD_INPUTS = [
    ({"U": ["1"]}, {"op": "hilbert-coefficients", "ideal": "U"}),
    ({"U": ["1"]}, {"op": "hdeg", "ideal": "U"}),
    ({"U": ["1"]}, {"op": "hilbert-samuel", "ideal": "U"}),
    ({"U": ["1"]}, {"op": "koszul-homology", "ideal": "U"}),
    ({"U": ["0", "y"]}, {"op": "hilbert-coefficients", "ideal": "U"}),
    ({"U": ["x+y^2"]}, {"op": "koszul-homology", "ideal": "U"}),
    ({"U": ["x+y^2"]}, {"op": "hilbert-coefficients", "ideal": "U"}),
    (None, {"op": "lambda-sweep", "ideal": "Q", "powers": [0]}),
    (None, {"op": "lambda-sweep", "ideal": "Q", "powers": [-1]}),
    (None, {"op": "buchsbaum-rim", "columns": [["x", "y"], ["y"]]}),
    (None, {"op": "buchsbaum-rim", "columns": [["1"], ["y"]]}),
    (None, {"op": "superficial-check", "ideal": "Q", "h": "0"}),
    (None, {"op": "superficial-check", "ideal": "Q", "h": "x+y^2"}),
    (None, {"op": "superficial-check", "ideal": "Q", "h": "1"}),
    (None, {"op": "d-sequence", "ideal": "Q", "forms": ["x", "y"]}),
    (None, {"op": "buchsbaum-rim", "columns": [["x"], ["y"]],
            "ring_relations": ["x+x^2"]}),
    (None, {"op": "probe-9-5", "columns": [["x"], ["y"]],
            "ring_relations": ["x+x^2"]}),
    ({"U": ["x", "y"]}, {"op": "koszul-homology", "ideal": "U"}),
    ({"U": ["x", "y"]}, {"op": "chi1-recursion", "ideal": "U"}),
    ({"U": ["x"]}, {"op": "koszul-homology", "ideal": "U"}),
    ({"U": ["x"]}, {"op": "chi1-recursion", "ideal": "U"}),
]


@pytest.mark.parametrize("ideals,op", BAD_INPUTS)
def test_bad_ideal_or_matrix_exits_2(tmp_path, capsys, ideals, op):
    # a unit, zero or inhomogeneous ideal generator or h, Koszul forms that
    # are not a system of parameters of M (dim M = 1 here), a power below 1,
    # a malformed column matrix and an op field no op reads are invalid
    # input, not computation errors
    path = write_job(tmp_path, _mixed_line(ideals, [op]))
    code, out, err = run_main(["compute", path, "--no-timings"], capsys)
    assert code == 2 and "invalid job" in err and out == ""


@pytest.mark.parametrize("columns", [[["x", "x"], ["x"]], [["1"], ["x"]]])
def test_check_bad_brim_columns_exits_2(tmp_path, capsys, columns):
    shutil.copy(os.path.join(CORPUS, "ci-points.json"), tmp_path / "good.json")
    raw = json.loads(open(os.path.join(CORPUS, "brim-line.json")).read())
    raw["brim"]["columns"] = columns
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    code, _, err = run_main(["check", str(tmp_path)], capsys)
    assert code == 2 and "invalid Buchsbaum-Rim columns" in err


BAD_JOBS = [
    ("mixed-line", {"ring": {"variables": ["x", "x"]}}),
    ("mixed-line", {"module": {"twists": [0], "relations": [["x+y^2"]]}}),
    ("mixed-line", {"module": {"twists": [0, 1], "relations": [["x", "x"]]}}),
    ("brim-line", {"ops": [{"op": "buchsbaum-rim", "columns": [["x"]],
                            "ring_relations": ["x+x^2"]}],
                   "brim": {"columns": [["x"]], "ring_relations": ["x+x^2"]}}),
    ("mixed-line", {"sample": {"seed": 19, "degree_bounds": []}}),
]


@pytest.mark.parametrize("command", ["compute", "check"])
@pytest.mark.parametrize("name,edit", BAD_JOBS)
def test_bad_ring_or_relations_exits_2(tmp_path, capsys, command, name, edit):
    # duplicate variable names, a module relation that is not homogeneous
    # for the twists, an inhomogeneous Buchsbaum-Rim ring relation and no
    # degree bound to sample parameter ideals from are invalid input, from
    # compute and from check alike
    raw = json.loads(open(os.path.join(CORPUS, name + ".json")).read())
    raw.update(edit)
    path = write_job(tmp_path, raw)
    code, _, err = run_main([command, path if command == "compute"
                             else str(tmp_path)], capsys)
    assert code == 2 and "invalid job" in err


def test_check_bad_ideal_exits_2(tmp_path, capsys):
    shutil.copy(os.path.join(CORPUS, "ci-points.json"), tmp_path / "good.json")
    raw = _mixed_line({"U": ["1"]}, [{"op": "hdeg", "ideal": "U"}])
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    code, _, err = run_main(["check", str(tmp_path)], capsys)
    assert code == 2 and "ideal 'U'" in err

import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kampe.cli import canonical_dumps, main


def run_cli(capsys, monkeypatch, job, argv=()):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_canonical_round_trip():
    report = {"b": [1.0, 0.3333333333333333, 2], "a": {"y": 1e-300, "x": "s"},
              "flag": True, "none": None}
    text = canonical_dumps(report)
    again = canonical_dumps(json.loads(text))
    assert text == again


def test_eval_origin(capsys, monkeypatch):
    job = {"command": "eval", "function": "F0211",
           "params": {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 1.5},
           "points": [[0, 0]]}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["value"] == 1
    assert report["results"][0]["status"] == "converged"


def test_eval_report_round_trips(capsys, monkeypatch):
    job = {"command": "eval", "function": "XI2",
           "params": {"b": 0.7, "c": 1.1, "e": 1.4},
           "points": [[0.3, 0.4], [0.1, -0.2]]}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    assert out == canonical_dumps(json.loads(out)) + "\n"


def test_eval_grid_csv(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "grid.csv"
    job = {"command": "eval", "function": "F0211",
           "params": {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 1.5},
           "grid": {"x_min": 0.0, "x_max": 0.4, "nx": 3,
                    "y_min": 0.0, "y_max": 0.4, "ny": 2}}
    code, _ = run_cli(capsys, monkeypatch, job, ["--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value,status"
    assert len(lines) == 1 + 6
    assert all(line.endswith("converged") for line in lines[1:])


def test_csv_to_unwritable_path_is_an_io_error(tmp_path, capsys, monkeypatch):
    # the CSV is written before the report, so stdout holds only the error
    job = {"command": "eval", "function": "F0211",
           "params": {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 1.5},
           "points": [[0.1, 0.2]]}
    code, out = run_cli(capsys, monkeypatch, job,
                        ["--csv", str(tmp_path / "missing" / "out.csv")])
    assert code == 2
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "io"


def test_raw_shape_eval(capsys, monkeypatch):
    job = {"command": "eval",
           "shape": {"upper_joint": [0.75]},
           "points": [[0.3, 0.4]]}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    assert value == pytest.approx(0.3 ** -0.75, rel=1e-12)


def test_solutions_command(capsys, monkeypatch):
    job = {"command": "solutions", "function": "F1211",
           "params": {"a": 1, "b": 1, "c": 1, "d": 1, "e": 2, "f": 2, "g": 0.3}}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    report = json.loads(out)
    sols = report["solutions"]
    assert [s["tau"] for s in sols] == [0, 0]
    assert sols[0]["nu"] == 0
    assert sols[1]["nu"] == pytest.approx(0.7)
    assert sols[1]["shape"]["lower_y"] == [pytest.approx(1.7)]
    assert sols[1]["shape"]["upper_x"] == [1, 1]


def test_solutions_degenerate(capsys, monkeypatch):
    job = {"command": "solutions", "function": "F0211",
           "params": {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 2.0}}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is True
    assert len(report["solutions"]) == 1


def test_residual_command(capsys, monkeypatch):
    job = {"command": "residual", "function": "F0211", "solution": "u2",
           "params": {"b": 0.3, "c": 0.7, "d": 0.7, "e": 1.2, "g": 0.4},
           "grid": {"x_min": 0.1, "x_max": 0.4, "nx": 3,
                    "y_min": 0.1, "y_max": 0.4, "ny": 3}}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 18  # 9 points x 2 equations
    assert all(row["ratio"] <= 1e-8 for row in rows)


def test_cauchy_command(capsys, monkeypatch):
    job = {"command": "cauchy",
           "problem": {"alpha": -0.1, "beta": -0.1, "lambda": 0.0,
                       "tau": [2.5], "nu": []},
           "points": [[0.3, 0.6]], "nodes": 64}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == pytest.approx(2.5, abs=1e-6)


def test_cauchy_grid_rows_are_its_one_point_jobs(capsys, monkeypatch):
    job = {"command": "cauchy", "nodes": 64,
           "problem": {"alpha": -0.1, "beta": -0.2, "lambda": 0.8,
                       "tau": [1.0, 0.5, -0.3], "nu": [0.4, 0.2]},
           "grid": {"x_min": 0.13, "x_max": 0.28, "nx": 4,
                    "y_min": 0.57, "y_max": 0.92, "ny": 5}}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 20
    one_point = {k: v for k, v in job.items() if k != "grid"}
    for row in rows:
        code, out = run_cli(capsys, monkeypatch, {**one_point, "points": [[row["x"], row["y"]]]})
        assert code == 0
        assert canonical_dumps(json.loads(out)["results"][0]) == canonical_dumps(row)


def test_check_subset_deterministic(capsys, monkeypatch):
    job = {"command": "check",
           "checks": ["indicial_roots", "quadrature_moments", "origin_normalization"]}
    code1, out1 = run_cli(capsys, monkeypatch, job, ["--seed", "42"])
    code2, out2 = run_cli(capsys, monkeypatch, job, ["--seed", "42"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_passed"] is True


def test_schema_errors(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, {"command": "bogus"})
    assert code == 2
    assert json.loads(out)["error"] == "schema"

    job = {"command": "eval", "function": "F0211",
           "params": {"b": 0.5}, "points": [[0, 0]]}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 2
    assert "params.c" in json.loads(out)["message"]

    job = {"command": "eval", "function": "F0211",
           "params": {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 1.5}}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 2
    assert "points" in json.loads(out)["message"]

    # bad integer fields, non-finite numbers and an oversized node count are
    # schema errors; each job fails validation before any series is summed
    cauchy = {"command": "cauchy", "problem": {"alpha": -0.1, "beta": -0.1, "tau": [1.0]}}
    grid = {"x_min": 0.1, "x_max": 0.2, "nx": "a", "y_min": 0.1, "y_max": 0.2, "ny": 2}
    for job, path in (
            ({**job, "grid": grid}, "grid.nx"),
            ({**job, "points": [[0.1, 0.1]], "policy": {"max_diagonal": None}},
             "policy.max_diagonal"),
            ({**job, "points": [[0.1, 0.1]], "policy": {"consecutive_small": 1.5}},
             "policy.consecutive_small"),
            ({**job, "points": [[math.nan, 0.1]]}, "points[0][0]"),
            ({**job, "points": [[0.1, 0.1]], "params": {**job["params"], "b": math.inf}},
             "params.b"),
            ({**cauchy, "nodes": "x"}, "nodes"),
            ({**cauchy, "nodes": 4097}, "nodes"),
            ({"command": "check", "nodes": 0}, "nodes"),
            ({"command": "check", "checks": [[1]]}, "checks"),
            ({"command": "check", "checks": [{}]}, "checks"),
            ({"command": "check", "checks": []}, "checks"),
            ({"command": "eval", "points": [[0.1, 0.1]],
              "shape": {"upper_x": [0.5] * 9}}, "shape")):
        code, out = run_cli(capsys, monkeypatch, job)
        assert code == 2, job
        assert json.loads(out)["message"].startswith(path + ":"), out
    monkeypatch.setattr("sys.stdin", io.StringIO('{"command": "check", "seed": 1.5e400}'))
    assert main([]) == 2
    assert json.loads(capsys.readouterr().out)["message"].startswith("seed:")


def test_unknown_keys_are_schema_errors(capsys, monkeypatch):
    named = {"command": "eval", "function": "F0211",
             "params": {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 1.5}}
    job = {**named, "points": [[0.3, 0.4]]}
    grid = {"x_min": 0.1, "x_max": 0.2, "nx": 2, "y_min": 0.1, "y_max": 0.2, "ny": 2}
    cauchy = {"command": "cauchy", "points": [[0.3, 0.6]],
              "problem": {"alpha": -0.1, "beta": -0.1, "tau": [1.0]}}
    for bad, path in (
            ({**job, "nodes": 64}, "nodes"),
            ({**job, "polcy": {"max_diagonal": 1}}, "polcy"),
            ({**job, "policy": {"max_diagonals": 1}}, "policy.max_diagonals"),
            ({**named, "grid": {**grid, "nz": 2}}, "grid.nz"),
            ({**job, "params": {**job["params"], "z": 1.0}}, "params.z"),
            ({"command": "eval", "shape": {"upper_x": [0.5], "lowerx": [1.5]},
              "points": [[0.3, 0.4]]}, "shape.lowerx"),
            ({**cauchy, "problem": {**cauchy["problem"], "mu": 0.5}}, "problem.mu"),
            ({"command": ["x"]}, "command"),
            ({**job, "function": {"a": 1}}, "function")):
        code, out = run_cli(capsys, monkeypatch, bad)
        assert code == 2, bad
        assert len(out.splitlines()) == 1
        report = json.loads(out)
        assert report["error"] == "schema" and report["message"].startswith(path + ":"), out


def test_keys_that_exclude_each_other_are_schema_errors(capsys, monkeypatch):
    params = {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 1.5}
    grid = {"x_min": 0.1, "x_max": 0.2, "nx": 2, "y_min": 0.1, "y_max": 0.2, "ny": 2}
    shape = {"upper_x": [0.5], "lower_joint": [1.5]}
    problem = {"alpha": -0.1, "beta": -0.1, "tau": [1.0]}
    for bad, path in (
            ({"command": "eval", "function": "F0211", "params": params,
              "points": [[0.3, 0.4]], "grid": grid}, "grid"),
            ({"command": "cauchy", "problem": problem, "points": [[0.3, 0.6]],
              "grid": grid}, "grid"),
            ({"command": "eval", "shape": shape, "function": "F0211",
              "points": [[0.3, 0.4]]}, "function"),
            ({"command": "eval", "shape": shape, "params": params,
              "points": [[0.3, 0.4]]}, "params"),
            ({"command": "convergence", "shape": shape, "function": "F0211",
              "params": params}, "function")):
        code, out = run_cli(capsys, monkeypatch, bad)
        assert code == 2, bad
        report = json.loads(out)
        assert report["error"] == "schema" and report["message"].startswith(path + ":"), out


def test_cauchy_data_that_is_not_a_list_names_its_key(capsys, monkeypatch):
    problem = {"alpha": -0.1, "beta": -0.1, "tau": [1.0], "nu": [0.5]}
    for key in ("tau", "nu"):
        job = {"command": "cauchy", "problem": {**problem, key: 5}, "points": [[0.3, 0.6]]}
        code, out = run_cli(capsys, monkeypatch, job)
        assert code == 2
        assert json.loads(out)["message"].startswith(f"problem.{key}:"), out


def test_grid_limit(capsys, monkeypatch):
    job = {"command": "eval", "function": "XI2",
           "params": {"b": 0.7, "c": 1.1, "e": 1.4},
           "grid": {"x_min": 0, "x_max": 0.1, "nx": 2000,
                    "y_min": 0, "y_max": 0.1, "ny": 2000}}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 2
    assert "grid" in json.loads(out)["message"]


def test_unknown_check_name(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, {"command": "check", "checks": ["nope"]})
    assert code == 2
    assert "nope" in json.loads(out)["message"]


def test_math_error_exit_code(capsys, monkeypatch):
    # beta = 0 is a kernel pole: domain/math error, exit 1
    job = {"command": "cauchy",
           "problem": {"alpha": 0.0, "beta": 0.0, "tau": [1.0], "nu": []},
           "points": [[0.3, 0.6]]}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 1
    assert json.loads(out)["error"] == "PoleError"


def test_eval_pole_ends_the_job_and_divergence_stays_per_point(capsys, monkeypatch):
    # (-1)_r in the x-denominator vanishes at r = 2 for every point
    job = {"command": "eval", "shape": {"upper_x": [1], "lower_x": [-1]},
           "points": [[0.1, 0.1]]}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 1
    assert json.loads(out) == {"error": "PoleError",
                               "message": "undefined: denominator pole in x-group at r = 2"}
    # outside the unit x-radius the diagonals grow: a row of its own
    job = {"command": "eval", "function": "F0211",
           "params": {"b": 0.8, "c": 0.5, "d": 0.9, "e": 1.3, "g": 1.1},
           "points": [[0.3, 0.4], [1.4, 0.2]]}
    code, out = run_cli(capsys, monkeypatch, job)
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows[0]["status"] == "converged"
    assert rows[1]["status"] == "diverged" and "growing diagonals" in rows[1]["error"]


def test_policy_flag_override(capsys, monkeypatch):
    job = {"command": "eval", "function": "F0211",
           "params": {"b": 0.5, "c": 0.5, "d": 0.5, "e": 1.5, "g": 1.5},
           "points": [[0.45, 0.3]]}
    code, out = run_cli(capsys, monkeypatch, job, ["--tol", "1e-6", "--max-diagonal", "50"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["status"] == "converged"
    code, out2 = run_cli(capsys, monkeypatch, job, ["--tol", "1e-14"])
    row2 = json.loads(out2)["results"][0]
    assert row2["diagonals"] > row["diagonals"]


def test_deeply_nested_job_is_a_schema_error(capsys, monkeypatch):
    depth = 100_000
    for text in ("[" * depth + "]" * depth, '{"a":' * depth + "1" + "}" * depth):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "schema" and report["message"].startswith("$:")


# --- fuzzing -------------------------------------------------------------------
# Job documents mixing valid and invalid fields.  Each job's optional keys are
# drawn from those its command reads, and a minority of jobs carry one key it
# does not read.  The check command and large grids are left out to keep the
# run short, and --max-diagonal bounds each sum.

_odd = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                 st.integers(-10**400, 10**400), st.text(max_size=3), st.none(),
                 st.booleans(), st.lists(st.integers(-2, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_num = st.one_of(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.integers(-3, 3), _odd)
_count = st.one_of(st.integers(-1, 3), _odd)


def _maybe(strategy):
    """The valid strategy in about half of the draws, else an odd value.  Not
    one_of(strategy, _odd): it flattens _odd's seven branches into its own,
    so the valid strategy would win about one draw in eight."""
    return st.booleans().flatmap(lambda valid: strategy if valid else _odd)


_params = _maybe(st.dictionaries(st.sampled_from("abcdefgz"), _num, max_size=8))
_grid = _maybe(st.fixed_dictionaries(
    {"x_min": _num, "x_max": _num, "nx": _count, "y_min": _num, "y_max": _num, "ny": _count}))
_points = _maybe(st.lists(_maybe(st.lists(_num, min_size=2, max_size=2)), max_size=3))
_policy = _maybe(st.fixed_dictionaries({}, optional={
    "rel_tol": _num, "max_diagonal": _count, "consecutive_small": _count}))
_shape = _maybe(st.fixed_dictionaries({}, optional={
    key: _maybe(st.lists(_num, max_size=2))
    for key in ("upper_joint", "upper_x", "upper_y", "lower_joint", "lower_x", "lower_y")}))
_problem = _maybe(st.fixed_dictionaries({}, optional={
    "alpha": _num, "beta": _num, "lambda": _num,
    "tau": _maybe(st.lists(_num, max_size=3)), "nu": _maybe(st.lists(_num, max_size=3))}))
_fields = {"function": _maybe(st.sampled_from(["F1211", "F0211", "XI2"])),
           "params": _params, "grid": _grid, "points": _points, "policy": _policy,
           "shape": _shape, "problem": _problem, "nodes": _maybe(st.integers(1, 6)),
           "solution": _maybe(st.sampled_from(["u1", "u2"]))}
_reads = {"eval": ("function", "params", "shape", "points", "grid", "policy"),
          "convergence": ("function", "params", "shape"),
          "residual": ("function", "params", "solution", "points", "grid", "policy"),
          "solutions": ("function", "params"),
          "cauchy": ("problem", "nodes", "points", "grid", "policy")}


@st.composite
def _jobs(draw):
    command = draw(_maybe(st.sampled_from([*_reads, "bogus"])))
    reads = _reads.get(command, tuple(_fields)) if isinstance(command, str) else tuple(_fields)
    job = draw(st.fixed_dictionaries({"command": st.just(command)},
                                     optional={key: _fields[key] for key in reads}))
    if draw(st.integers(0, 7)) == 0:
        stray = [key for key in _fields if key not in reads] + ["polcy", "seed"]
        job[draw(st.sampled_from(stray))] = draw(_num)
    return job


@given(_jobs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_jobs_exit_cleanly(capsys, monkeypatch, job):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main(["--max-diagonal", "60"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    lines = captured.out.splitlines()
    assert len(lines) == 1 and captured.out.endswith("\n"), captured.out
    json.loads(lines[0])
    assert "Traceback" not in captured.err

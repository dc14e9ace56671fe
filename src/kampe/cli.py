"""Job-driven command line: reads one JSON job document, emits one JSON report.

Commands: eval, convergence, residual, solutions, cauchy, check; a key that
the command does not read, at any level of the job, is a schema error.
Exit codes: 0 ok (and all checks passed), 1 domain/math error, 2 schema error.
Reports serialize canonically (sorted keys, %.17g floats) so parse -> emit
round-trips byte-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import cauchy, checks, frobenius, named, pde, series
from .errors import DegenerateError, DivergenceError, KampeError, SchemaError

# function -> (parameter dataclass, shape, solution pair, expanded system)
_FAMILIES = {
    "F1211": (named.ParamsF1211, named.shape_f1211, frobenius.solution_pair_f1211,
              pde.expanded_system_f1211),
    "F0211": (named.ParamsF0211, named.shape_f0211, frobenius.solution_pair_f0211,
              pde.expanded_system_f0211),
    "XI2": (named.ParamsXi2, named.shape_xi2, None, None)}
_GROUPS = tuple(field.name for field in dataclasses.fields(series.KdFShape))
_GRID = ("x_min", "x_max", "nx", "y_min", "y_max", "ny")
_PROBLEM = ("alpha", "beta", "lambda", "tau", "nu")
_GRID_LIMIT = 10**6
_NODES_LIMIT = 4096


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, compact separators."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(f"{obj:.17g}" if math.isfinite(obj) else json.dumps(repr(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def _fail(path: str, expected: str):
    raise SchemaError(f"{path}: {expected}")


def _object(path: str, value, known, required=()) -> dict:
    """`value` as a JSON object with no key outside `known` and every key in
    `required`; a key of the job document ("$") is named without a prefix."""
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    prefix = "" if path == "$" else path + "."
    for key in value:
        if key not in known:
            _fail(prefix + key, "unknown key")
    for key in required:
        if key not in value:
            _fail(prefix + key, "missing")
    return value


def _number(path: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        _fail(path, "expected a finite number")
    return value


def _numbers(path: str, value) -> tuple[float, ...]:
    if not isinstance(value, list):
        _fail(path, "expected a list of numbers")
    return tuple(_number(f"{path}[{i}]", v) for i, v in enumerate(value))


def _integer(path: str, value, low: int | None = None, high: int | None = None) -> int:
    """An integer (or integral float) field, optionally within [low, high]."""
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, "expected an integer")
    if (low is not None and value < low) or (high is not None and value > high):
        _fail(path, f"expected an integer in [{low}, {high}]")
    return value


def _exclusive(job, key: str, others) -> None:
    """A schema error where the job gives `key` and one of `others`, so that
    no given key goes unread."""
    for other in others:
        if key in job and other in job:
            _fail(other, f"not allowed with {key}; give one of them")


def _points(job) -> list[tuple[float, float]]:
    _exclusive(job, "points", ("grid",))
    if "points" in job:
        pts = job["points"]
        if not isinstance(pts, list) or not pts:
            _fail("points", "expected a non-empty list of [x, y] pairs")
        out = []
        for i, p in enumerate(pts):
            if not isinstance(p, list) or len(p) != 2:
                _fail(f"points[{i}]", "expected [x, y]")
            out.append((_number(f"points[{i}][0]", p[0]),
                        _number(f"points[{i}][1]", p[1])))
        return out
    if "grid" in job:
        g = _object("grid", job["grid"], _GRID, _GRID)
        nx = _integer("grid.nx", g["nx"], 1, _GRID_LIMIT)
        ny = _integer("grid.ny", g["ny"], 1, _GRID_LIMIT)
        if nx * ny > _GRID_LIMIT:
            _fail("grid", f"grid size must be in [1, {_GRID_LIMIT}]")
        x0, x1 = _number("grid.x_min", g["x_min"]), _number("grid.x_max", g["x_max"])
        y0, y1 = _number("grid.y_min", g["y_min"]), _number("grid.y_max", g["y_max"])
        xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
        ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
        return [(x, y) for x in xs for y in ys]
    _fail("points", "missing (provide points or grid)")


_POLICY = {"rel_tol": _number, "max_diagonal": _integer, "consecutive_small": _integer}


def _policy(job, args) -> series.TruncationPolicy:
    raw = _object("policy", job.get("policy", {}), _POLICY)
    kwargs = {key: check(f"policy.{key}", raw[key])
              for key, check in _POLICY.items() if key in raw}
    if args.tol is not None:
        kwargs["rel_tol"] = args.tol
    if args.max_diagonal is not None:
        kwargs["max_diagonal"] = args.max_diagonal
    try:
        return series.TruncationPolicy(**kwargs)
    except KampeError as exc:
        raise SchemaError(f"policy: {exc}") from exc


def _nodes(job, args) -> int:
    nodes = args.nodes if args.nodes is not None else job.get("nodes", 64)
    return _integer("nodes", nodes, 1, _NODES_LIMIT)


def _function(job, command: str | None = None):
    """Parameters of the job's function, then its shape, pair and system makers."""
    fn = job.get("function")
    if not isinstance(fn, str) or fn not in _FAMILIES:
        _fail("function", f"expected one of {tuple(_FAMILIES)}")
    cls, shape, pair, system = _FAMILIES[fn]
    if command and pair is None:
        paired = " and ".join(name for name, (_, _, has, _) in _FAMILIES.items() if has)
        _fail("function", f"{command} supports {paired}")
    # letter by letter, so that the first missing or bad letter is the one named
    names = [field.name for field in dataclasses.fields(cls)]
    raw = _object("params", job.get("params"), names)
    vals = {}
    for key in names:
        if key not in raw:
            _fail(f"params.{key}", "missing")
        vals[key] = _number(f"params.{key}", raw[key])
    return cls(**vals), shape, pair, system


def _shape_from_job(job) -> series.KdFShape:
    _exclusive(job, "shape", ("function", "params"))
    if "shape" in job:
        raw = _object("shape", job["shape"], _GROUPS)
        groups = {key: _numbers(f"shape.{key}", raw.get(key, [])) for key in _GROUPS}
        try:
            return series.KdFShape(**groups)
        except KampeError as exc:
            raise SchemaError(f"shape: {exc}") from exc
    params, shape, _, _ = _function(job)
    return shape(params)


def _shape_dict(shape: series.KdFShape) -> dict:
    return {key: list(getattr(shape, key)) for key in _GROUPS}


def _cmd_eval(job, args):
    shape = _shape_from_job(job)
    policy = _policy(job, args)
    rows = []
    for (x, y) in _points(job):
        # a divergence belongs to its point; a pole of the shape ends the job
        try:
            res = series.kdf_eval(shape, (x, y), policy)
            rows.append({"x": x, "y": y, "value": res.value,
                         "status": res.status.value, "diagonals": res.diagonals_used,
                         "tail": res.tail_estimate})
        except DivergenceError as exc:
            rows.append({"x": x, "y": y, "value": math.nan,
                         "status": series.SeriesStatus.DIVERGED.value,
                         "diagonals": 0, "tail": math.inf, "error": str(exc)})
    return {"command": "eval", "results": rows}


def _cmd_convergence(job, args):
    shape = _shape_from_job(job)
    region = series.classify_convergence(shape)

    def radius(rad: float):
        return "inf" if math.isinf(rad) else rad

    return {"command": "convergence",
            "region": {"x_radius": radius(region.x_radius),
                       "y_radius": radius(region.y_radius),
                       "coupled_exponent_base": region.coupled}}


def _cmd_solutions(job, args):
    params, _, solution_pair, _ = _function(job, "solutions")
    try:
        pair = solution_pair(params)
    except DegenerateError as exc:
        u1 = exc.first_solution
        return {"command": "solutions", "degenerate": True, "message": str(exc),
                "solutions": [{"tau": u1.exponents.tau, "nu": u1.exponents.nu,
                               "shape": _shape_dict(u1.shape)}]}
    return {"command": "solutions", "degenerate": False,
            "solutions": [{"tau": s.exponents.tau, "nu": s.exponents.nu,
                           "shape": _shape_dict(s.shape)} for s in pair]}


def _cmd_residual(job, args):
    params, _, solution_pair, expanded_system = _function(job, "residual")
    which = job.get("solution", "u1")
    if which not in ("u1", "u2"):
        _fail("solution", "expected 'u1' or 'u2'")
    sol = solution_pair(params)[0 if which == "u1" else 1]
    system = expanded_system(params)
    policy = _policy(job, args)
    ev = frobenius.solution_evaluator(sol, policy)
    rows = []
    for pt in _points(job):
        for i, res in enumerate(pde.residual(system, ev, pt)):
            rows.append({"x": pt[0], "y": pt[1], "equation": i + 1,
                         "residual": res.value, "scale": res.scale,
                         "ratio": abs(res.value) / max(res.scale, 1e-300)})
    return {"command": "residual", "solution": which, "results": rows}


def _cmd_cauchy(job, args):
    raw = _object("problem", job.get("problem"), _PROBLEM, ("alpha", "beta"))
    fields = {"alpha": _number("problem.alpha", raw["alpha"]),
              "beta": _number("problem.beta", raw["beta"]),
              "lam": _number("problem.lambda", raw.get("lambda", 0.0)),
              "tau_data": _numbers("problem.tau", raw.get("tau", [])),
              "nu_data": _numbers("problem.nu", raw.get("nu", []))}
    try:
        problem = cauchy.CauchyProblem(**fields)
    except KampeError as exc:
        raise SchemaError(f"problem: {exc}") from exc
    nodes = _nodes(job, args)
    policy = _policy(job, args)
    points = _points(job)
    values = cauchy.solve_points(problem, points, nodes, policy).tolist()
    rows = [{"x": xi, "y": eta, "value": v} for (xi, eta), v in zip(points, values)]
    return {"command": "cauchy", "nodes": nodes, "results": rows}


def _cmd_check(job, args):
    seed = args.seed if args.seed is not None else _integer("seed", job.get("seed", 42))
    nodes = _nodes(job, args)
    names = job.get("checks")
    if names is not None:
        if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
            _fail("checks", "expected a non-empty list of check names")
        unknown = [n for n in names if n not in checks.ALL_CHECKS]
        if unknown:
            _fail("checks", f"unknown names {unknown}; available: {sorted(checks.ALL_CHECKS)}")
    results = checks.run_checks(names, seed=seed, nodes=nodes)
    return {"command": "check", "seed": seed,
            "all_passed": all(r.passed for r in results),
            "results": [{"name": r.name, "passed": r.passed, "worst": r.worst,
                         "tolerance": r.tolerance, "detail": r.detail}
                        for r in results]}


# command -> (handler, the keys of the job that it reads besides "command")
_COMMANDS = {
    "eval": (_cmd_eval, ("function", "params", "shape", "points", "grid", "policy")),
    "convergence": (_cmd_convergence, ("function", "params", "shape")),
    "residual": (_cmd_residual,
                 ("function", "params", "solution", "points", "grid", "policy")),
    "solutions": (_cmd_solutions, ("function", "params")),
    "cauchy": (_cmd_cauchy, ("problem", "nodes", "points", "grid", "policy")),
    "check": (_cmd_check, ("seed", "nodes", "checks"))}
_JOB_KEYS = {"command"}.union(*(keys for _, keys in _COMMANDS.values()))


def run(job: dict, args) -> dict:
    # a key that no command reads is named before the command is looked up
    command = _object("$", job, _JOB_KEYS).get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        _fail("command", f"expected one of {tuple(_COMMANDS)}")
    handler, keys = _COMMANDS[command]
    return handler(_object("$", job, ("command", *keys)), args)


def _write_csv(report: dict, path: str) -> None:
    rows = report.get("results", [])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value,status\n")
        for row in rows:
            if "x" not in row:
                continue
            value = row.get("value", row.get("ratio", math.nan))
            status = row.get("status", "ok")
            fh.write(f"{row['x']:.17g},{row['y']:.17g},{value:.17g},{status}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kampe",
        description="Evaluate double hypergeometric series, verify their PDE systems, "
                    "and solve the associated degenerate hyperbolic Cauchy problem.")
    parser.add_argument("--job", help="path to the JSON job document (default: stdin)")
    parser.add_argument("--tol", type=float, help="override series relative tolerance")
    parser.add_argument("--max-diagonal", type=int, help="override series diagonal cap")
    parser.add_argument("--nodes", type=int, help="override quadrature node count")
    parser.add_argument("--seed", type=int, help="seed for randomized checks (default 42)")
    parser.add_argument("--csv", help="also write per-point results as CSV")
    args = parser.parse_args(argv)

    try:
        if args.job:
            with open(args.job, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        try:
            job = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"$: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise SchemaError("$: invalid JSON (nested too deeply)") from exc
        report = run(job, args)
        if args.csv:
            _write_csv(report, args.csv)
    except SchemaError as exc:
        sys.stdout.write(canonical_dumps({"error": "schema", "message": str(exc)}) + "\n")
        return 2
    except KampeError as exc:
        sys.stdout.write(canonical_dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stdout.write(canonical_dumps({"error": "io", "message": str(exc)}) + "\n")
        return 2

    sys.stdout.write(canonical_dumps(report) + "\n")
    if report.get("command") == "check" and not report["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

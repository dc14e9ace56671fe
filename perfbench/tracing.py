"""Span recorder for the traced run, and the per-layer metrics it yields.

The library is not changed.  `Tracer.install` rebinds each traced public
function in every `kampe` module that holds a reference to it (so
`kampe.cauchy`'s own `kdf_eval` is traced too) and wraps each `check` suite
in `kampe.checks.ALL_CHECKS`.  Each call records a span
[name, start, end, parent span, op id, info] in memory.  A span's self time
is its duration minus the durations of its direct children; a layer's self
time is the sum over the spans of its module.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

TRACED = {
    "series": ("kdf_eval", "kdf_eval_derivative", "validate_shape",
               "classify_convergence", "kdf_derivative_shape"),
    "core": ("gamma_ratio",),
    "named": ("shape_f0211", "shape_f1211", "shape_xi2"),
    "pde": ("residual",),
    "frobenius": ("eval_solution", "solution_derivative"),
    "cauchy": ("solve_point", "jacobi_rule"),
    "cli": ("main", "canonical_dumps"),
}
OVERHEAD = ("series.validate_shape", "series.classify_convergence",
            "series.kdf_derivative_shape")
LAYERS = tuple(TRACED) + ("checks",)
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.derivative_requests = 0
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        series_eval = name == "series.kdf_eval"

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if series_eval:
                rec[INFO] = (args[0], out.diagonals_used, out.status.value)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_residual(self, fn):
        def residual(system, u, point, *rest, **kwargs):
            def counted(*a, **k):
                self.derivative_requests += 1
                return u(*a, **k)
            return fn(system, counted, point, *rest, **kwargs)
        return self._wrap("pde.residual", residual)

    def install(self) -> None:
        """Rebind every traced name in every loaded kampe module."""
        wrappers = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"kampe.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[fn] = (self._wrap_residual(fn) if fname == "residual"
                                else self._wrap(f"{layer}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "kampe" and not modname.startswith("kampe."):
                continue
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        suites = sys.modules["kampe.checks"].ALL_CHECKS
        for key, fn in list(suites.items()):
            self._restore.append((suites, key, fn))
            suites[key] = self._wrap(f"checks.{key}", fn)

    def uninstall(self) -> None:
        for target, key, val in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = val
            else:
                setattr(target, key, val)
        self._restore.clear()

    def run_op(self, fn):
        """Run one benchmark op as a root span named 'op', with a new op id."""
        self.op += 1
        return self._wrap("op", fn)()


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def _under(spans: list[list], idx: int, ancestor: str) -> int:
    """Index of the nearest enclosing span called `ancestor`, or -1."""
    p = spans[idx][PARENT]
    while p >= 0 and spans[p][NAME] != ancestor:
        p = spans[p][PARENT]
    return p


def layer_metrics(tracer: Tracer, suites) -> tuple[dict, dict]:
    """(per-layer metrics averaged per op, invariant check results).

    `suites` names the check suites; each gets its mean time per run."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = [i for i, s in enumerate(spans) if s[NAME] == "op"]
    n_ops = max(len(ops), 1)
    op_wall = sum(spans[i][END] - spans[i][START] for i in ops)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_name: dict = {}
    for rec, st in zip(spans, selfs):
        layer = rec[NAME].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += st
        agg = by_name.setdefault(rec[NAME], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += st
        agg[2] += rec[END] - rec[START]

    def calls(name):
        return by_name.get(name, [0, 0.0, 0.0])[0]

    def self_of(name):
        return by_name.get(name, [0, 0.0, 0.0])[1]

    evals = [i for i, s in enumerate(spans) if s[NAME] == "series.kdf_eval"]
    diagonals = sum(spans[i][INFO][1] for i in evals if spans[i][INFO])
    terms = sum((n + 1) * (n + 2) // 2 for n in
                (spans[i][INFO][1] for i in evals if spans[i][INFO]))
    shapes = {spans[i][INFO][0] for i in evals if spans[i][INFO]}
    shapes_in_op = {(spans[i][OP], spans[i][INFO][0]) for i in evals if spans[i][INFO]}
    bad = sum(1 for i in evals
              if not spans[i][INFO] or spans[i][INFO][2] not in ("converged", "terminating"))
    n_eval = len(evals)
    solves = calls("cauchy.solve_point")
    derivs = calls("frobenius.solution_derivative")
    rules = [s for s in spans if s[NAME] == "cauchy.jacobi_rule"]

    m = {
        "series.eval_calls": n_eval / n_ops,
        "series.derivative_calls": calls("series.kdf_eval_derivative") / n_ops,
        "series.diagonals": diagonals / n_ops,
        "series.terms": terms / n_ops,
        "series.self_s": layer_self["series"] / n_ops,
        "series.ns_per_term": self_of("series.kdf_eval") / terms * 1e9 if terms else 0.0,
        "series.overhead_s": sum(self_of(n) for n in OVERHEAD) / n_ops,
        "series.shape_reuse": 1.0 - len(shapes) / n_eval if n_eval else 0.0,
        "series.shape_reuse_in_op": 1.0 - len(shapes_in_op) / n_eval if n_eval else 0.0,
        "series.not_converged": bad / n_eval if n_eval else 0.0,
        "series.share": layer_self["series"] / op_wall if op_wall else 0.0,
        "core.gamma_ratio_calls": calls("core.gamma_ratio") / n_ops,
        "core.self_s": layer_self["core"] / n_ops,
        "named.shape_calls": sum(calls(f"named.{n}") for n in TRACED["named"]) / n_ops,
        "named.self_s": layer_self["named"] / n_ops,
        "pde.residual_calls": calls("pde.residual") / n_ops,
        "pde.derivative_requests": tracer.derivative_requests / n_ops,
        "pde.self_s": layer_self["pde"] / n_ops,
        "frobenius.derivative_calls": derivs / n_ops,
        "frobenius.series_per_derivative":
            sum(1 for i in evals if _under(spans, i, "frobenius.solution_derivative") >= 0)
            / derivs if derivs else 0.0,
        "frobenius.self_s": layer_self["frobenius"] / n_ops,
        "cauchy.solve_calls": solves / n_ops,
        "cauchy.series_calls_per_solve":
            sum(1 for i in evals if _under(spans, i, "cauchy.solve_point") >= 0)
            / solves if solves else 0.0,
        "cauchy.self_s": layer_self["cauchy"] / n_ops,
        "cauchy.rule_calls": len(rules) / n_ops,
        "cauchy.rule_s": sum(s[END] - s[START] for s in rules) / n_ops,
        "cli.main_s": by_name.get("cli.main", [0, 0.0, 0.0])[2] / n_ops,
        "cli.emit_s": by_name.get("cli.canonical_dumps", [0, 0.0, 0.0])[2] / n_ops,
    }
    for suite in suites:
        count, _st, total = by_name.get(f"checks.{suite}", [0, 0.0, 0.0])
        m[f"checks.{suite}_s"] = total / count if count else 0.0

    layer_sum = sum(layer_self.values())
    worst_op = 0.0
    per_op_self: dict = {}
    for rec, st in zip(spans, selfs):
        if rec[NAME] != "op":
            per_op_self[rec[OP]] = per_op_self.get(rec[OP], 0.0) + st
    for i in ops:
        wall = spans[i][END] - spans[i][START]
        worst_op = max(worst_op, per_op_self.get(spans[i][OP], 0.0) - wall)
    checks = {"layer_self_s": layer_sum, "op_wall_s": op_wall,
              "self_within_wall": layer_sum <= op_wall and worst_op <= 0.0,
              "spans": len(spans), "ops": len(ops)}
    return m, checks

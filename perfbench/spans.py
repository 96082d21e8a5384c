"""Span tracing of padicdyn from outside the package.

Every public function of padic, dynamics, criteria, odometer, sweep and
cli is wrapped, and the wrapper replaces the original under every name
that binds it in any padicdyn module (criteria's `full_cycle_check`,
cli's `minimal_general`, ...), so calls between modules are seen too.
`IntPolynomial.eval_mod` only gets a call counter.

A span is (function, start, end, parent, op id) in flat arrays; spans
stay in memory and are reduced to per-layer metrics when the run ends.
A span's self time is its duration minus its direct children's, so the
self times of one op add up to the duration of its root, `cli.main`.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

MODULES = ("padic", "dynamics", "criteria", "odometer", "sweep", "cli")
CLOSED_FORMS = ("criteria.minimal_z2", "criteria.minimal_z2_larin_form",
                "criteria.minimal_z3", "criteria.minimal_degree5_z3")

# extra number stored with a span, read off the function's result
EXTRA = {
    "dynamics.reduced_map_table": lambda r: len(r.entries),
    "dynamics.full_cycle_check": lambda r: int(r.strategy == "orbit"),
    "sweep.run_sweep": lambda r: r.total,
    "odometer.verify_conjugacy_tower": lambda r: r.n_max,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")
        self.stack = [-1]
        self.op_id = 0
        self.eval_mod_calls = 0
        self.residues = 0
        self.patches = []  # (owner, attribute, original, replacement)
        self._collect()

    def _collect(self) -> None:
        package = importlib.import_module("padicdyn")
        modules = [importlib.import_module(f"padicdyn.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self.patches.append((ns, attr, obj, wrappers[id(obj)]))
        poly = importlib.import_module("padicdyn.dynamics").IntPolynomial
        original = poly.eval_mod

        @functools.wraps(original)
        def eval_mod(f, x, modulus):
            self.eval_mod_calls += 1
            return original(f, x, modulus)

        self.patches.append((poly, "eval_mod", original, eval_mod))

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        extra = EXTRA.get(name)
        counts_residues = name == "odometer.full_cycle_stream"
        clock = time.perf_counter_ns
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.fn)
            self.fn.append(fid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.extra.append(0)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if extra is not None:
                self.extra[i] = extra(result)
            if counts_residues:
                result = self._count(result)
            return result

        return traced

    def _count(self, values):
        for v in values:
            self.residues += 1
            yield v

    def install(self) -> None:
        for owner, attr, _, replacement in self.patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def summarize(self, ops: int, stdout_bytes: int, overhead_ratio: float) -> tuple[dict, dict]:
        """Per-layer metrics (means per op unless the unit says otherwise)
        and a diagnostics record for the report."""
        n = len(self.fn)
        dur = array("q", (self.end[i] - self.start[i] for i in range(n)))
        child = array("q", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls, self_ns, incl_ns, extra_sum = Counter(), Counter(), Counter(), Counter()
        layer_ns, op_self, op_root = Counter(), Counter(), {}
        max_entries = tower_tables = 0
        tower = self.names.index("odometer.verify_conjugacy_tower")
        table = self.names.index("dynamics.reduced_map_table")
        stray_roots = 0
        for i in range(n):
            name = self.names[self.fn[i]]
            own = dur[i] - child[i]
            calls[name] += 1
            self_ns[name] += own
            incl_ns[name] += dur[i]
            extra_sum[name] += self.extra[i]
            layer_ns[name.split(".", 1)[0]] += own
            op_self[self.op[i]] += own
            if self.parent[i] < 0:
                if name != "cli.main" or self.op[i] in op_root:
                    stray_roots += 1
                op_root[self.op[i]] = dur[i]
            if self.fn[i] == table:
                max_entries = max(max_entries, self.extra[i])
                j = self.parent[i]
                while j >= 0 and self.fn[j] != tower:
                    j = self.parent[j]
                tower_tables += j >= 0
        closure_ns = max((abs(op_self[k] - v) for k, v in op_root.items()), default=0)

        def per_op(x):
            return x / ops

        def ratio(a, b):
            return a / b if b else 0.0

        closed_calls = sum(calls[c] for c in CLOSED_FORMS)
        closed_self = sum(self_ns[c] for c in (*CLOSED_FORMS, "criteria.coefficient_sums"))
        entries = extra_sum["dynamics.reduced_map_table"]
        tuples = extra_sum["sweep.run_sweep"]
        ms = 1e6
        metrics = {
            "cli.main.calls": per_op(calls["cli.main"]),
            "cli.main.self_ms": per_op(layer_ns["cli"]) / ms,
            "cli.stdout_bytes": per_op(stdout_bytes),
            "criteria.closed_form.calls": per_op(closed_calls),
            "criteria.closed_form.self_us_per_call": ratio(closed_self, closed_calls) / 1e3,
            "criteria.minimal_general.calls": per_op(calls["criteria.minimal_general"]),
            "criteria.minimal_general.self_ms":
                per_op(self_ns["criteria.minimal_general"]) / ms,
            "dynamics.reduced_map_table.calls": per_op(calls["dynamics.reduced_map_table"]),
            "dynamics.reduced_map_table.entries": per_op(entries),
            "dynamics.reduced_map_table.self_ms":
                per_op(self_ns["dynamics.reduced_map_table"]) / ms,
            "dynamics.reduced_map_table.ns_per_entry":
                ratio(self_ns["dynamics.reduced_map_table"], entries),
            "dynamics.max_table_entries": max_entries,
            "dynamics.tables_per_op": per_op(calls["dynamics.reduced_map_table"]),
            "dynamics.full_cycle_check.calls": per_op(calls["dynamics.full_cycle_check"]),
            "dynamics.full_cycle_check.self_ms":
                per_op(self_ns["dynamics.full_cycle_check"]) / ms,
            "dynamics.full_cycle_check.orbit_strategy_calls":
                per_op(extra_sum["dynamics.full_cycle_check"]),
            "dynamics.cycle_decomposition.self_ms":
                per_op(self_ns["dynamics.cycle_decomposition"]) / ms,
            "dynamics.eval_mod.calls": per_op(self.eval_mod_calls),
            "dynamics.taylor_data.calls": per_op(calls["dynamics.taylor_data"]),
            "dynamics.lift_check.calls": per_op(calls["dynamics.lift_check"]),
            "dynamics.lift_check.self_ms": per_op(self_ns["dynamics.lift_check"]) / ms,
            "padic.canonicalize.calls": per_op(calls["padic.canonicalize"]),
            "odometer.build_psi.calls": per_op(calls["odometer.build_psi"]),
            "odometer.build_psi.self_ms": per_op(self_ns["odometer.build_psi"]) / ms,
            "odometer.verify_conjugacy_tower.self_ms":
                per_op(self_ns["odometer.verify_conjugacy_tower"]) / ms,
            "odometer.tower.tables_per_level":
                ratio(tower_tables, extra_sum["odometer.verify_conjugacy_tower"]),
            "odometer.full_cycle_stream.check_ms":
                ratio(incl_ns["odometer.full_cycle_stream"],
                      calls["odometer.full_cycle_stream"]) / ms,
            "odometer.stream.residues": per_op(self.residues),
            "sweep.run_sweep.calls": per_op(calls["sweep.run_sweep"]),
            "sweep.run_sweep.tuples": per_op(tuples),
            "sweep.run_sweep.us_per_tuple": ratio(incl_ns["sweep.run_sweep"], tuples) / 1e3,
            "sweep.run_sweep.self_ms": per_op(self_ns["sweep.run_sweep"]) / ms,
            "trace.overhead_ratio": overhead_ratio,
        }
        diagnostics = {
            "spans": n,
            "traced_ops": len(op_root),
            "layer_self_ms_per_op": {k: round(per_op(v) / ms, 4)
                                     for k, v in sorted(layer_ns.items())},
            "self_time_closure_max_error_ns": closure_ns,
            "stray_root_spans": stray_roots,
        }
        return metrics, diagnostics

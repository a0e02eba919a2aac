"""Span tracing of the dsmflow layers from outside the package.

`Tracer.install()` wraps the public functions of every layer module, the
operator methods, and `GridFunction.__post_init__` (one call per
constructed grid function). The package imports with `from .x import y`,
so a function is bound in several module dicts (`dsmflow.operators.derivative`
is `dsmflow.scale.derivative`); every binding of the original function
object in a `dsmflow.*` module dict, or in a dict stored there such as
`flow._STEPPERS`, is replaced by the wrapper.

Each call records a span: name, start, end, parent span and operation id,
in flat arrays that stay in memory until `save`. A layer's self time is
its span time minus the time of its child spans. Exact work counts that a
span cannot carry (stop reasons, bytes written, guard trips) are added to
per-operation counters by hooks on the wrapped calls.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import dsmflow
from dsmflow.operators import DegenerateCoefficient
from dsmflow.sampling import MAX_FREQUENCY

LAYERS = ("scale", "sampling", "operators", "flow", "conditions", "newton_lab", "cli")
OPERATOR_METHODS = ("eval", "apply_derivative", "solve_derivative")
# Functions that write the CLI's output files, with the index of their path argument.
WRITERS = {
    "scale.write_grid_csv": 1,
    "flow.write_trajectory_csv": 1,
    "newton_lab.write_iteration_csv": 1,
    "newton_lab.write_loss_probe_csv": 1,
    "cli._write_json": 0,
}
STEPS = ("flow.rk4_step", "flow.euler_step")
# O(1) grid validators, left unwrapped: they are a quarter of all calls and
# carry no metric, so their time stays in their callers' self time.
UNWRAPPED = ("scale.require_same_grid", "scale.check_scale_index")
STOP_REASONS = ("converged", "horizon", "ball_exit", "degenerate")
EXIT_CODES = (0, 1, 2)
# Length-n arrays each kernel's algorithm reads or writes per call (input
# and output; for trig_polynomial the 2K + 1 basis rows and the output).
# bytes_computed is 8 * n times this, computed from array sizes, not measured.
KERNEL_ARRAYS = {
    "scale.derivative": lambda args, kw: (args[0].n, 2),
    "scale.integrate_from_zero": lambda args, kw: (args[0].n, 2),
    "sampling.trig_polynomial": lambda args, kw: (
        args[1], 2 * _max_frequency(args, kw) + 2),
}

NO_OP = -1
SETUP_OP = -2


def _max_frequency(args, kw) -> int:
    if len(args) > 2:
        return args[2]
    return kw.get("max_frequency", MAX_FREQUENCY)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = NO_OP
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.op][key] += value

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = _HOOKS.get(name)
        if name in KERNEL_ARRAYS:
            hook = _kernel_hook(name)
        elif name in WRITERS:
            hook = _writer_hook(WRITERS[name])
        guard = name == "operators.solve_derivative"
        tracer = self
        stack = self.stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.name_of.append, self.parent.append
        add_op, add_start, add_end = self.op_of.append, self.start.append, self.end.append
        end = self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(end)
            add_name(name_id)
            add_parent(stack[-1])
            add_op(tracer.op)
            add_end(0.0)
            push(sid)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except DegenerateCoefficient:
                if guard:
                    tracer.count("operators.guard_trips")
                raise
            finally:
                end[sid] = perf_counter()
                pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function at every place it is bound."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"dsmflow.{layer}"]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and (not attr.startswith("_") or f"{layer}.{attr}" in WRITERS)
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    replacements[value] = self.wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != "dsmflow" and not name.startswith("dsmflow."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    setattr(module, attr, replacements[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in replacements:
                            value[key] = replacements[item]
        for cls in (dsmflow.QuadraticVolterra, dsmflow.LinearSmoothing):
            for method in OPERATOR_METHODS:
                setattr(cls, method, self.wrap(f"operators.{method}", vars(cls)[method]))
        GridFunction = dsmflow.GridFunction
        GridFunction.__post_init__ = self.wrap("scale.GridFunction", GridFunction.__post_init__)

    # -- reduction -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {"name": name_of, "parent": parent,
                "op": np.frombuffer(self.op_of, dtype=np.int32),
                "start": start, "end": end, "self": dur - child}

    def per_op(self) -> dict[int, dict[str, float]]:
        """Calls, self seconds and counters of each operation, by name."""
        a = self.arrays()
        names, name_of, parent = self.names, a["name"], a["parent"]
        ops, op_idx = np.unique(a["op"], return_inverse=True)
        width = len(names)
        key = op_idx * width + name_of
        size = ops.size * width
        calls = np.bincount(key, minlength=size).reshape(ops.size, width)
        self_s = np.bincount(key, weights=a["self"], minlength=size).reshape(ops.size, width)
        total_s = np.bincount(key, weights=a["end"] - a["start"],
                              minlength=size).reshape(ops.size, width)

        def ids(wanted):
            return [self._index[n] for n in wanted if n in self._index]

        parent_name = np.where(parent >= 0, name_of[np.maximum(parent, 0)], -1)
        flow_step = (np.isin(name_of, ids(STEPS))
                     & (parent_name == self._index.get("flow.integrate_flow", -2)))
        step_vf = (np.isin(name_of, ids(["operators.dsm_vector_field"]))
                   & flow_step[np.maximum(parent, 0)] & (parent >= 0))
        writer = np.isin(name_of, ids(WRITERS))

        def per_op_sum(mask, weights=None):
            w = None if weights is None else weights[mask]
            return np.bincount(op_idx[mask], weights=w, minlength=ops.size)

        derived = {
            "flow.steps": per_op_sum(flow_step),
            "flow.step.self_s": per_op_sum(flow_step, a["self"]),
            "flow.step.vf_calls": per_op_sum(step_vf),
            "cli.write.self_s": per_op_sum(writer, a["self"]),
        }
        out: dict[int, dict[str, float]] = {}
        for row, op in enumerate(ops.tolist()):
            rec = defaultdict(float)
            for col, name in enumerate(names):
                rec[f"{name}.calls"] = float(calls[row, col])
                rec[f"{name}.self_s"] = float(self_s[row, col])
                rec[f"{name}.total_s"] = float(total_s[row, col])
                rec[f"{name.split('.')[0]}.self_s"] += float(self_s[row, col])
            for key_name, values in derived.items():
                rec[key_name] = float(values[row])
            out[op] = rec
        for op, counters in self.counters.items():
            rec = out.setdefault(op, defaultdict(float))
            for key_name, value in counters.items():
                rec[key_name] += value
        return out

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **a)


def _kernel_hook(name):
    size = KERNEL_ARRAYS[name]

    def hook(tracer, args, kwargs, result):
        n, arrays_per_call = size(args, kwargs)
        tracer.count(f"{name}.bytes_computed", 8.0 * n * arrays_per_call)

    return hook


def _writer_hook(path_index):
    def hook(tracer, args, kwargs, result):
        tracer.count("cli.write.bytes", os.path.getsize(args[path_index]))
        tracer.count("cli.write.calls")

    return hook


def _flow_hook(tracer, args, kwargs, traj):
    tracer.count(f"flow.stop.{traj.stop_reason}")
    tracer.count("flow.recorded_bytes",
                 sum(u.values.nbytes for u in traj.recorded_u))


def _constants_hook(tracer, args, kwargs, report):
    tracer.count("conditions.samples_drawn", report.sample_count)
    tracer.count("conditions.samples_used", report.sample_count - report.skipped)


def _newton_hook(tracer, args, kwargs, record):
    tracer.count("newton_lab.iterations", record.steps[-1].k)


def _main_hook(tracer, args, kwargs, code):
    tracer.count(f"cli.exit.{code}")


_HOOKS = {
    "flow.integrate_flow": _flow_hook,
    "conditions.estimate_constants": _constants_hook,
    "newton_lab.newton_solve": _newton_hook,
    "cli.main": _main_hook,
}

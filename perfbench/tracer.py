"""Span recorder that wraps greenkit's public functions from the outside.

`Tracer.install()` replaces every public function of the traced layers (the
names in each module's `__all__`, the public methods of the classes listed
there, the acceptance criteria, and the `cmd_*` handlers of `cli`, which has
no `__all__`) wherever greenkit binds it: in the defining module, in the
package namespace and in every `from .x import y` binding of a sibling
module.  Each call then records a span (layer, name, start, end, parent,
operation id) in memory, plus size-derived counters for the kernel layers.
`uninstall()` restores the original bindings.  Nothing in `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("spectra", "grid", "firstorder", "secondorder", "freqdomain", "distlab", "validation", "cli", "io")

# per-function busy times the benchmark reports by name (layer.function.busy_s)
NAMED_FUNCTIONS = (
    "spectra.build_basis",  # every build_*_basis / build_relativistic_branches call
    "spectra.audit",  # completeness_residual and orthonormality_residual
    "firstorder.auxiliary_kernel",
    "firstorder.propagate",
    "firstorder.composition_residual",
    "secondorder.wave_auxiliary_kernel",
    "secondorder.field_from_source",
    "freqdomain.convolution_response",
    "freqdomain.inverse_transform_roundtrip",
    "distlab.regularized_ft",
    "distlab.sokhotski_plemelj",
    "distlab.moment_report",
)


def _group(layer: str, name: str) -> str:
    if layer == "spectra" and name.startswith("build_"):
        return "spectra.build_basis"
    if layer == "spectra" and name in ("completeness_residual", "orthonormality_residual"):
        return "spectra.audit"
    return f"{layer}.{name}"


# --------------------------------------------------------------- counters
#
# Computed counters depend only on array shapes, so they repeat exactly.
# kernel_bytes: Kernel.values.nbytes of every kernel a layer returns.
# mode_sum_flops: 8 * rows * cols * n_modes for every dense mode sum
# sum_n phi_n(x_i) a_n phi_n*(x_j) a call evaluates (8 real flops per complex
# multiply-add); a kernel time block has rows = cols = m.


def _second_order_modes(basis) -> int:
    if basis.model == "relativistic":
        return int((basis.branches > 0).sum())
    return basis.size


def _kernel_counts(result, n_modes):
    nt, m, _ = result.values.shape
    return {"kernel_bytes": result.values.nbytes, "mode_sum_flops": 8 * nt * m * m * n_modes}


def _count_auxiliary(args, result):
    return _kernel_counts(result, result.basis.size)


def _count_step(args, result):
    return {"kernel_bytes": result.values.nbytes}


def _count_wave_auxiliary(args, result):
    return _kernel_counts(result, _second_order_modes(result.basis))


def _count_composition(args, result):
    basis = args[0].basis
    m = basis.grid.size
    return {"mode_sum_flops": 3 * 8 * m * m * basis.size}


def _count_pde_jump(args, result):
    basis = args[0]
    m = basis.grid.size
    return {"mode_sum_flops": 2 * 8 * m * m * basis.size}


def _count_kernel_entry(args, result):
    return {"mode_sum_flops": 8 * args[0].size}


def _count_propagate(args, result):
    basis = args[0].basis
    return {"mode_sum_flops": 8 * basis.grid.size * basis.size}


def _count_field(args, result):
    basis = args[0].basis
    n_eval, m = result.shape
    return {"mode_sum_flops": 8 * n_eval * m * _second_order_modes(basis)}


def _count_wave_pde(args, result):
    basis = args[0]
    nt = len(args[1])
    m = basis.grid.size
    return {"mode_sum_flops": 8 * max(nt - 2, 0) * m * m * _second_order_modes(basis)}


def _count_omega(args, result):
    return {"omega_points": int(result.omega.size)}


def _count_roundtrip(args, result):
    return {"omega_points": int(args[0].omega.size)}


COUNTERS = {
    "firstorder.auxiliary_kernel": _count_auxiliary,
    "firstorder.step_factor_kernel": _count_step,
    "firstorder.composition_residual": _count_composition,
    "firstorder.pde_jump_residual": _count_pde_jump,
    "firstorder.kernel_entry": _count_kernel_entry,
    "firstorder.propagate": _count_propagate,
    "secondorder.wave_auxiliary_kernel": _count_wave_auxiliary,
    "secondorder.wave_step_factor_kernel": _count_step,
    "secondorder.field_from_source": _count_field,
    "secondorder.wave_pde_residual": _count_wave_pde,
    "freqdomain.response_from_density": _count_omega,
    "freqdomain.convolution_response": _count_omega,
    "freqdomain.momentum_response_relativistic": _count_omega,
    "freqdomain.feynman_combination": _count_omega,
    "freqdomain.inverse_transform_roundtrip": _count_roundtrip,
}


def _shape_attrs(args):
    """Sizes of the array-like arguments, so a span can be tabulated by size."""
    out = []
    for a in args:
        basis = getattr(a, "basis", None)
        if hasattr(a, "grid") and hasattr(a, "mode_values"):
            out.append(f"basis:{a.model}:m={a.grid.size}:n={a.size}")
        elif basis is not None and hasattr(a, "values"):
            out.append(f"kernel:{basis.model}:{tuple(a.values.shape)}")
        elif hasattr(a, "omegas"):
            out.append(f"lines={len(a.omegas)}")
        elif hasattr(a, "shape") and getattr(a, "size", 0) > 1:
            out.append(f"array{tuple(a.shape)}")
        elif hasattr(a, "times") and hasattr(a, "values"):
            out.append(f"source{tuple(a.values.shape)}")
    return ";".join(out)


class Tracer:
    """In-memory span recorder; spans are [group, start, end, parent, op, attrs]."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, layer: str, name: str, fn):
        group = _group(layer, name)
        counter = COUNTERS.get(f"{layer}.{name}")
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [group, 0.0, 0.0, stack[-1] if stack else -1, self.op, ""]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counters[f"{layer}.calls"] = counters.get(f"{layer}.calls", 0) + 1
            counters[f"{group}.calls"] = counters.get(f"{group}.calls", 0) + 1
            if counter is not None:
                span[5] = _shape_attrs(args)
                for key, val in counter(args, result).items():
                    counters[f"{layer}.{key}"] = counters.get(f"{layer}.{key}", 0) + val
                    if key == "kernel_bytes":
                        counters["largest_kernel_bytes"] = max(counters.get("largest_kernel_bytes", 0), val)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = importlib.import_module("greenkit")
        modules = {layer: importlib.import_module(f"greenkit.{layer}") for layer in LAYERS}
        originals = {}  # id(function) -> wrapper, shared by every binding
        for layer, mod in modules.items():
            for name, obj in _public_members(mod):
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                else:
                    originals[id(obj)] = self._wrap(layer, name, obj)
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None and inspect.isfunction(val):
                    self._patch(mod, attr, wrapper)
        criteria = modules["validation"].CRITERIA  # run_acceptance iterates this list
        self._patches.append((criteria, None, list(criteria)))
        criteria[:] = [originals[id(fn)] for fn in criteria]

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(layer, name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(layer, name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if attr is None:
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis
    def self_times(self) -> dict:
        """Self time (span minus child spans) summed per layer and per group."""
        child = [0.0] * len(self.spans)
        for group, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy: dict = {}
        for (group, t0, t1, _, _, _), c in zip(self.spans, child):
            own = (t1 - t0) - c
            layer = group.split(".", 1)[0]
            busy[layer] = busy.get(layer, 0.0) + own
            busy[group] = busy.get(group, 0.0) + own
        return busy

    def inclusive_times(self, prefix: str) -> dict:
        out: dict = {}
        for group, t0, t1, _, _, _ in self.spans:
            if group.startswith(prefix):
                out[group] = out.get(group, 0.0) + (t1 - t0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for group, t0, t1, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": group, "start": t0, "end": t1, "parent": parent,
                                     "op": op, "sizes": attrs}) + "\n")


def _public_members(mod):
    """(name, object) for the module's public functions and classes."""
    if hasattr(mod, "__all__"):
        names = list(mod.__all__)
        if mod.__name__ == "greenkit.validation":
            names += [f.__name__ for f in mod.CRITERIA]
    else:  # cli: its subcommand handlers and entry point
        names = [n for n in vars(mod) if n.startswith("cmd_")] + ["main"]
    for name in names:
        obj = getattr(mod, name)
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__:
            yield name, obj

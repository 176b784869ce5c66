"""Span tracer that wraps pushmdp's public functions from outside the package.

Each wrapped callable records a span (name, layer, parent span, start, end)
while the tracer is active; when it is inactive the wrapper calls straight
through, so output checks run untraced.  A wrapper replaces the original in
every pushmdp module whose globals bind it (``policy_evaluation`` is bound in
``solver``, ``sim``, ``cli`` and the package itself) and methods are replaced
on their class.  A target that no longer exists raises ``MissingTarget``, so a
renamed function cannot leave a layer silently unmeasured.

Per-state scalar helpers (``index_state``, ``energy_spend``,
``unicast_priority`` and the like) are not wrapped: they run inside the layer
spans that call them, and a span per call would cost more than the call.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# (layer, module, attribute); "Class.method" names a method.
TARGETS = (
    ("model", "pushmdp.model", "calibrate_radio"),
    ("model", "pushmdp.model", "zipf_pmf"),
    ("model", "pushmdp.model", "cumulative_popularity_table"),
    ("model", "pushmdp.model", "state_table"),
    ("model", "pushmdp.model", "stage_cost_table"),
    ("model", "pushmdp.model", "feasible_table"),
    ("model", "pushmdp.cli", "build_scenario"),
    ("transition", "pushmdp.transition", "build_kernel"),
    ("transition", "pushmdp.transition", "validate_kernel"),
    ("transition", "pushmdp.transition", "TransitionKernel.action_matrix"),
    ("transition", "pushmdp.transition", "TransitionKernel.restrict"),
    ("transition", "pushmdp.transition", "TransitionKernel.union_matrix"),
    ("transition", "pushmdp.transition", "TransitionKernel.to_text"),
    ("solver", "pushmdp.solver", "policy_evaluation"),
    ("solver", "pushmdp.solver", "PolicyTable.validate"),
    ("solver", "pushmdp.solver", "policy_improvement"),
    ("solver", "pushmdp.solver", "policy_iteration"),
    ("solver", "pushmdp.solver", "relative_value_iteration"),
    ("solver", "pushmdp.solver", "bellman_residual"),
    ("solver", "pushmdp.solver", "brute_force_oracle"),
    ("policies", "pushmdp.policies", "non_push_optimal"),
    ("policies", "pushmdp.policies", "unicast_priority_table"),
    ("policies", "pushmdp.policies", "threshold_profile"),
    ("policies", "pushmdp.policies", "format_threshold_grid"),
    ("sim", "pushmdp.sim", "simulate"),
    ("sim", "pushmdp.sim", "sweep"),
    ("cli", "pushmdp.cli", "main"),
    ("cli", "pushmdp.cli", "load_settings"),
    ("cli", "pushmdp.cli", "cmd_solve"),
    ("cli", "pushmdp.cli", "cmd_simulate"),
    ("cli", "pushmdp.cli", "cmd_sweep"),
    ("cli", "pushmdp.cli", "cmd_validate"),
    ("cli", "pushmdp.cli", "cmd_oracle"),
)

LAYERS = ("bench", "model", "transition", "solver", "policies", "sim", "cli")


class MissingTarget(RuntimeError):
    """A function or method the tracer must wrap does not exist."""


class Tracer:
    """Records nested spans and a few counts taken at the same boundaries."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, layer, parent, start, end]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen_matrices: dict[int, weakref.ref] = {}
        self.kernels: list = []
        self.counts = {"pi_iterations": 0, "periods": 0, "csr_builds": 0}
        self._hooks = {
            "build_kernel": self._kernel_built,
            "policy_iteration": self._policy_iterated,
            "simulate": self._simulated,
            "TransitionKernel.action_matrix": self._matrix_handed_out,
        }

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span; the caller's span (if any) is its parent."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, parent, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.kernels.clear()
        for key in self.counts:
            self.counts[key] = 0

    # -- installation --------------------------------------------------------
    def install(self, also=()) -> None:
        """Wrap every target; raise MissingTarget before wrapping any if one is gone.

        ``also`` names further modules whose globals bind targets by
        ``from pushmdp import ...``; their bindings are replaced too.
        """
        resolved = []
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in vars(owner):
                    raise MissingTarget(f"{module_name}.{attr} no longer exists")
                resolved.append((layer, attr, owner, method, vars(owner)[method]))
            else:
                if not callable(getattr(module, attr, None)):
                    raise MissingTarget(f"{module_name}.{attr} no longer exists")
                resolved.append((layer, attr, None, attr, getattr(module, attr)))

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pushmdp"]
        modules += list(also)
        for layer, name, owner, attr, original in resolved:
            wrapper = self._wrap(name, layer, original)
            if owner is not None:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, layer: str, fn):
        after = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.span(name, layer, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counts taken where the work happens ---------------------------------
    def _kernel_built(self, args, kwargs, kernel):
        self.kernels.append(kernel)

    def _policy_iterated(self, args, kwargs, result):
        self.counts["pi_iterations"] += len(result.trace)

    def _simulated(self, args, kwargs, metrics):
        config = args[0] if args else kwargs["config"]
        self.counts["periods"] += config.horizon

    def _matrix_handed_out(self, args, kwargs, matrix):
        # A matrix object not handed out before was built by this call.
        # Sparse matrices are unhashable, so they are keyed by id, and the
        # weak reference drops the key when the matrix is freed.
        key = id(matrix)
        ref = self._seen_matrices.get(key)
        if ref is None or ref() is not matrix:
            seen = self._seen_matrices
            self._seen_matrices[key] = weakref.ref(
                matrix, lambda r, key=key: seen.get(key) is r and seen.pop(key)
            )
            self.counts["csr_builds"] += 1


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Inclusive time and call count per span name, and self time per layer.

    Inclusive time counts only the outermost span of a name, so a recursive
    call is not counted twice.  Self time is a span's duration minus the
    durations of its direct children (spans nest, so they do not overlap).
    """
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, layer, parent, start, end) in enumerate(spans):
        duration = end - start
        self_time[layer] += duration - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][2]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return inclusive, calls, self_time

"""Layer-boundary spans recorded from outside the package.

`installed(recorder)` wraps the functions and methods listed below wherever a
`stochvolterra` module holds them: in the module that defines them and in every
sibling module that imported the name (so `cli.compute_resolvent`,
`convolution.sample_wiener_batch` and `yosida._convolve_paths` are all caught).
On exit every original is put back.  Each call records its name, start, end,
parent span and experiment id in memory; nothing is written until the caller
asks for it.  Wrapped calls must run on one thread (they do: the package's
worker threads only run code internal to `noise`).
"""

import contextlib
import functools
import importlib
import time

LAYERS = ("cli", "yosida", "convolution", "resolvent", "noise", "kernels", "spaces")

FUNCTIONS = {
    "cli": ["run_experiment"],
    "yosida": ["yosida_convergence_study"],
    "convolution": [
        "ito_identity_statistics",
        "covariance_monte_carlo",
        "covariance_quadrature",
        "_convolve_paths",
        "_convolve_at",
        "_left_point_products",
    ],
    "resolvent": [
        "compute_resolvent",
        "resolvent_residuals",
        "exponential_bound_fit",
        "operator_2norm",
    ],
    "noise": ["sample_wiener_batch"],
    "kernels": ["check_complete_positivity"],
    "spaces": ["as_matrix"],
}

METHODS = {
    "resolvent": [
        ("ScalarTypeKernel", "value"),
        ("ScalarTypeKernel", "derivative"),
        ("ScalarTypeKernel", "cell_weights"),
        ("ResolventTable", "u_lipschitz"),
    ],
    "kernels": [("ScalarKernel", "cell_moments")],
}


class Recorder:
    """Spans as [name, layer, start, end, parent index, experiment id]."""

    def __init__(self):
        self.spans = []
        self.experiment = None
        self._stack = []

    def wrap(self, layer, name, fn):
        span_name = f"{layer}.{name}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [span_name, layer, clock(), None, parent, self.experiment]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = clock()

        return wrapper

    def as_records(self):
        keys = ("name", "layer", "start", "end", "parent", "experiment")
        return [dict(zip(keys, span)) for span in self.spans]


@contextlib.contextmanager
def installed(recorder):
    modules = [importlib.import_module(f"stochvolterra.{layer}") for layer in LAYERS]
    by_layer = dict(zip(LAYERS, modules))
    undo = []
    try:
        for layer, names in FUNCTIONS.items():
            for name in names:
                original = getattr(by_layer[layer], name)
                wrapped = recorder.wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapped)
        for layer, methods in METHODS.items():
            for cls_name, name in methods:
                cls = getattr(by_layer[layer], cls_name)
                original = vars(cls)[name]
                undo.append((cls, name, original))
                setattr(cls, name, recorder.wrap(layer, name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def summarize(spans, experiment):
    """Self time per layer, total time and call count per span name, and the
    root span's duration, for the spans of one experiment.

    A span's self time is its duration minus its direct children's durations;
    spans of one thread nest, so the layer self times sum to the root span.
    """
    mine = [i for i, s in enumerate(spans) if s[5] == experiment]
    children = {i: 0.0 for i in mine}
    for i in mine:
        parent = spans[i][4]
        if parent is not None:
            children[parent] += spans[i][3] - spans[i][2]
    layer_self = {layer: 0.0 for layer in LAYERS}
    span_time, span_calls = {}, {}
    root = 0.0
    for i in mine:
        name, layer, start, end, parent, _ = spans[i]
        duration = end - start
        layer_self[layer] += duration - children[i]
        span_time[name] = span_time.get(name, 0.0) + duration
        span_calls[name] = span_calls.get(name, 0) + 1
        if parent is None:
            root += duration
    return {"layer_self": layer_self, "span_time": span_time, "span_calls": span_calls, "root": root}

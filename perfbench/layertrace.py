"""Span tracing of the cccd layers, installed at run time from outside the package.

A :class:`Tracer` replaces each traced function by a wrapper in every
namespace that binds it (module globals and the ``DensityModel`` class), so
calls made through ``from .exact import probability`` are caught as well as
calls through ``exact.probability``.  Each call records one span: name,
start, end, parent span and, for the density methods and ``p_quadrature``,
a count (values evaluated, panels used).  Spans stay in memory; the caller
writes them out when the run ends.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time

import numpy as np

# p_* routes of exact, by the method name ProbabilityReport uses for them
ROUTES = {
    "p_uniform_fraction": "closed-form",
    "p_uniform": "closed-form",
    "p_closed_form": "closed-form",
    "p_exact_rational": "exact-rational",
    "p_multinomial_squarecdf": "multinomial",
    "p_quadrature": "quadrature",
    "p_monte_carlo": "monte-carlo",
}


def _value_count(args, result):
    return int(np.size(args[1]))


def _panel_count(args, result):
    return int(result.panels or 0)


def _targets():
    """(owner, attribute, span name, count function) for every traced function."""
    from cccd import cli, densities, exact

    found = [(densities.DensityModel, name, f"densities.{name}", _value_count)
             for name in ("pdf", "cdf", "quantile")]
    found.append((exact, "probability", "exact.probability", None))
    for name in ROUTES:
        found.append((exact, name, f"exact.{name}",
                      _panel_count if name == "p_quadrature" else None))
    for layer in ("multianchor", "simulate", "digraph", "asymptotics"):
        module = sys.modules[f"cccd.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found.append((module, name, f"{layer}.{name}", None))
    found.append((cli, "main", "cli.main", None))
    return found


class Tracer:
    """Records spans of traced cccd calls between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, count]
        self._local = threading.local()
        self._undo = []
        self._paused = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
        stack.append(index)
        return index

    def close(self, index, count=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = count
        self._stack().pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block run unwrapped and record no span."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, count(args, result) if count and result is not None else None)

        return traced

    def install(self):
        """Wrap every target in every cccd namespace, and the benchmark's, that binds it."""
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if m is not None and (n == "cccd" or n.startswith("cccd.") or n == "workloads")]
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        self._undo.append((namespace, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


def layer_metrics(spans):
    """Per-layer figures from one traced pass; every count repeats exactly.

    A figure the pass gives no span for is left out; the caller reports it as 0.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    route_names = {f"exact.{name}" for name in ROUTES}

    def under_route(index):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in route_names:
                return True
            parent = spans[parent][3]
        return False

    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    multi_groups = {
        "pmf_random_anchors_table": "pmf_random", "pmf_random_anchors": "pmf_random",
        "expected_gamma": "expected", "expected_gamma_hu": "expected",
        "conditional_on_anchors": "conditional", "pmf_conditional_table": "conditional",
        "pmf_conditional": "conditional",
    }
    for index, (name, start, end, parent, count) in enumerate(spans):
        layer, _, func = name.partition(".")
        total = end - start
        own = total - children[index]
        if layer in ("simulate", "asymptotics", "cli"):
            add(f"{layer}.self_s", own)
        elif layer == "densities":
            add(f"densities.{func}_s", own)
            add(f"densities.{func}_values", count or 0)
            if (func == "pdf" and parent >= 0
                    and spans[parent][0] == "multianchor.pmf_random_anchors_table"):
                add("multianchor.anchor_evals", 1)
        elif layer == "multianchor" and func in multi_groups:
            add(f"multianchor.{multi_groups[func]}.self_s", own)
        elif layer == "digraph":
            if func == "domination_number_fast":
                add("digraph.fast_s", total)
            elif func == "domination_number_oracle":
                add("digraph.oracle_s", total)
            elif func == "build_instance":
                add("digraph.instances", 1)
        elif layer == "exact" and func in ROUTES:
            if func == "p_quadrature":
                add("exact.quad_panels", count or 0)
            if not under_route(index):
                add(f"exact.route.{ROUTES[func]}.calls", 1)
                add(f"exact.route.{ROUTES[func]}.s", total)
    return out


def run_seconds(spans, op_index):
    """Duration of each ``simulate.run`` span directly inside the op span ``op_index``."""
    return [end - start for name, start, end, parent, _ in spans
            if name == "simulate.run" and parent == op_index]

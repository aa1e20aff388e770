"""Span tracing around dtm2d's public functions, from outside the package.

A target is a name in the namespace its caller looks it up in, for example
``dtm2d.verify.eval2d``: verify's own functions find eval2d through that
module's globals, so wrapping the name there times every call verify makes.
A span is named after the function's defining module and its name
(``verify.eval2d``), so one function wrapped in two namespaces adds up to one
span name.  Self time is a span's duration minus the durations of the spans
it directly encloses.  Spans are aggregated in memory as they close; no
per-span record is kept.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter


def _eval2d_counts(args, result, counts) -> None:
    counts["entries"] = counts.get("entries", 0) + len(args[0].entries)


def _product_counts(args, result, counts) -> None:
    """Nonzero input pairs within the order, and the dense loop's lookups.

    Computed from the inputs: a pair of entries is useful when its total
    degree fits under the order; the dense double loop makes
    sum over the triangle of (m+1)(n+1) lookups whatever the inputs hold.
    """
    v, w = args[0], args[1]
    order = v.order
    w_upto = [0] * (order + 1)  # entries of w with total degree <= d
    for m, n in w.entries:
        w_upto[m + n] += 1
    for d in range(1, order + 1):
        w_upto[d] += w_upto[d - 1]
    useful = sum(w_upto[order - m - n] for m, n in v.entries)
    lookups = sum((m + 1) * (n + 1) for m in range(order + 1) for n in range(order + 1 - m))
    counts["useful_pairs"] = counts.get("useful_pairs", 0) + useful
    counts["dense_lookups"] = counts.get("dense_lookups", 0) + lookups


def _inference_counts(args, result, counts) -> None:
    counts["exact"] = counts.get("exact", 0) + (result.method == "exact")


# (module looked up in, attribute, counter hook or None)
TARGETS = (
    ("dtm2d.cli", "main", None),
    ("dtm2d.cli", "solve_model", None),
    ("dtm2d.solver", "solve_model", None),
    ("dtm2d.solver", "infer_missing_seed", _inference_counts),
    ("dtm2d.solver", "propagate", None),
    ("dtm2d.solver", "residual_laplacian", None),
    ("dtm2d.solver", "taylor_coeffs", None),
    ("dtm2d.solver", "truncate", None),
    ("dtm2d.solver", "dt_add", None),
    ("dtm2d.solver", "dt_derivative", None),
    ("dtm2d.verify", "boundary_residual", None),
    ("dtm2d.verify", "compare_closed_form", None),
    ("dtm2d.verify", "eval2d", _eval2d_counts),
    ("dtm2d.verify", "dt_derivative", None),
    ("dtm2d.verify", "trace_value", None),
    ("dtm2d.rules", "dt_product", _product_counts),
    ("dtm2d.rules", "dt_exp", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs timing wrappers on TARGETS; records only while ``active``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self.active = False
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, span: str, fn, hook):
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result, stats.counts)
            return result

        traced.__wrapped__ = fn
        return traced

"""In-memory spans recorded around calls into homsim's public functions.

A span is (name, start, end, parent, op, attrs).  Wrappers are installed on
module attributes, so only callers that look the name up through the module
(the benchmark itself, or ``homsim.cli``'s own bindings) are traced, and no
source file of the package changes.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = None

    def begin(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self.op, "attrs": attrs})
        self._stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span["attrs"].update(attrs)
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`unwrap`.

        ``describe(args, kwargs, result)`` may return extra span attributes.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, error=True)
                raise
            self.end(idx, **(describe(args, kwargs, result) if describe else {}))
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _dip_curve_attrs(args, kwargs, result):
    engine = kwargs.get("engine", args[1] if len(args) > 1 else "gaussian")
    return {"engine": engine, "delays": int(result.delays_ps.size)}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# attribute name -> (span name, attribute extractor); the span name is the
# defining module, whichever namespace the wrapper is installed in
LAYER_FUNCTIONS = {
    "jsa_grid": ("jsa.jsa_grid", lambda a, k, r: {"points": int(r.values.size)}),
    "write_grid_csv": ("jsa.write_grid_csv", None),
    "dip_curve": ("hom.dip_curve", _dip_curve_attrs),
    "dip_metrics": ("hom.dip_metrics", None),
    "write_curve_csv": ("hom.write_curve_csv", None),
    "ingest_csv": ("fitdata.ingest_csv", None),
    "fit_model": ("fitdata.fit_model", _iterations),
    "fit_gaussian_dip": ("fitdata.fit_gaussian_dip", _iterations),
    "solve_angle_for_overlap": ("imperfections.solve_angle_for_overlap", None),
}


def install(tracer: Tracer, *modules) -> None:
    """Wrap every public layer function found in ``modules``."""
    for module in modules:
        for attr, (name, describe) in LAYER_FUNCTIONS.items():
            if hasattr(module, attr):
                tracer.wrap(module, attr, name, describe)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def graft(parent: list[dict], child: list[dict], under: int, op) -> None:
    """Append spans recorded in another process below span ``under``."""
    base = len(parent)
    for s in child:
        s = dict(s)
        s["parent"] = under if s["parent"] is None else base + s["parent"]
        s["op"] = op
        parent.append(s)

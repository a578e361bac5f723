"""Span tracing of the program's layers, from outside the program.

A Tracer wraps every public function of the layer modules at every module
binding of it (so `series.eval_series` is also wrapped where `trig`,
`coords` and `verify` imported it by name).  Each call becomes a span
(name, start, end, parent, info) kept in memory; `aggregate` computes self
time as a span's duration minus its direct children's durations.
Installing and removing the wrappers is a few setattr calls, so untraced
rounds run the program unmodified.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "sosharmonics"
LAYERS = ("cli", "coords", "trig", "series", "legendre", "harmonic", "verify")

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []  # (module, attribute, original, wrapper)
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for m in modules:
                    for name, value in vars(m).items():
                        if value is fn:
                            self._patches.append((m, name, fn, wrapper))

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        if name == "series.eval_series":
            def info(args, result):
                return (args[0].region.value, result.terms_used)
        elif name == "harmonic.eval_V":
            def info(args, result):
                return max(len(args[0].a), len(args[0].b)) - 1
        else:
            info = None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _clock()
                stack.pop()
                extra = info(args, result) if info is not None and result is not None else None
                spans[idx] = (name_id, t0, t1, parent, extra)

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def aggregate(self) -> dict:
        """Per function: calls, self ns, inclusive ns; plus per-call extras."""
        child_ns = [0] * len(self.spans)
        for name_id, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {n: {"calls": 0, "self_ns": 0, "incl_ns": 0} for n in self.names}
        series_self = {}
        series_terms = 0
        eval_v_self = {}
        for idx, (name_id, t0, t1, parent, extra) in enumerate(self.spans):
            name = self.names[name_id]
            own = t1 - t0 - child_ns[idx]
            rec = out[name]
            rec["calls"] += 1
            rec["self_ns"] += own
            rec["incl_ns"] += t1 - t0
            if extra is None:
                continue
            if name == "series.eval_series":
                series_self[extra[0]] = series_self.get(extra[0], 0) + own
                series_terms += extra[1]
            else:
                eval_v_self[extra] = eval_v_self.get(extra, 0) + own
        return {
            "functions": out,
            "series_self_ns": series_self,
            "series_terms": series_terms,
            "eval_V_self_ns_by_degree": eval_v_self,
        }

    def write(self, path: str) -> None:
        """Spans as `name start_ns end_ns parent` lines, start-ordered by index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, t0, t1, parent, _ in self.spans:
                fh.write(f"{self.names[name_id]} {t0} {t1} {parent}\n")

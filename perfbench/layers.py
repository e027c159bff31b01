"""Traced run: spans at the layer boundaries, recorded from the benchmark side.

``Tracer.install`` rebinds the names that ``thetasum.engine`` calls
through (its specfun imports, its own kernels and ``direct_sum``) to
wrappers that record one span per call: id, name, start, end, parent
span and op id, plus one or two counts read off the call's arguments or
result.  Nothing in the package changes; ``uninstall`` restores the
originals.  Spans stay in flat arrays in memory and are written once,
by ``write``, at the end of the run.

Calls that specfun makes internally (gamma inside zeta's functional
equation) and the compensated accumulation are not wrapped: their cost
is self time of the wrapped function that makes them.  The count read
off a call is taken after its end stamp, so it is charged to the
parent's self time (well under a microsecond per call).
"""

from __future__ import annotations

import math
import time
from array import array
from pathlib import Path

from thetasum import engine

#: Wrapped engine-module names, mapped to the metric prefix of their layer.
LAYERS = {
    "zeta_real": "specfun.zeta_real",
    "gamma_real": "specfun.gamma_real",
    "digamma_int": "specfun.digamma_int",
    "tail_factor": "engine.tail_factor",
    "singular_term": "engine.singular_term",
    "eval_generic": "engine.eval_generic",
    "eval_even": "engine.eval_even",
    "evaluate": "engine.evaluate",
    "direct_sum": "oracle.direct_sum",
}
_NAMES = tuple(LAYERS)
_CODE = {name: code for code, name in enumerate(_NAMES)}
_DIRECT = _CODE["direct_sum"]
_PI2 = math.pi * math.pi


def _tail_counts(args, result):
    # (terms included, 1 when the dual-term weight exp(-pi^2 n^2 Re(1/a))
    # this factor multiplies is nonzero in binary64)
    a, _, n = args[:3]
    return result[1], int(math.exp(-_PI2 * n * n * (1.0 / a).real) > 0.0)


def _series_counts(key):
    def counts(args, result):
        return result.terms_used[key], len(result.term_log.entries)

    return counts


_COUNTS = {
    "tail_factor": _tail_counts,
    "eval_even": _series_counts("n"),
    "eval_generic": _series_counts("k"),
    "direct_sum": lambda args, result: (result.n_terms, 0),
}


class Tracer:
    """Records spans while installed.

    ``op`` is stamped on every span: the index of the timed op in
    progress, or ``~index`` (negative) while the benchmark checks that
    op's answer outside the timed region.
    """

    def __init__(self):
        self.op = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._saved: dict = {}
        self.ids = array("q")
        self.codes = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.counts = array("q")
        self.extras = array("q")

    def install(self) -> None:
        for code, name in enumerate(_NAMES):
            fn = getattr(engine, name)
            self._saved[name] = fn
            setattr(engine, name, self._wrap(code, fn, _COUNTS.get(name)))

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(engine, name, fn)
        self._saved.clear()

    def _wrap(self, code, fn, counts):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count, extra = (0, 0) if counts is None or result is None else counts(args, result)
                self.ids.append(sid)
                self.codes.append(code)
                self.starts.append(start)
                self.ends.append(end)
                self.parents.append(parent)
                self.ops.append(self.op)
                self.counts.append(count)
                self.extras.append(extra)

        traced.__wrapped__ = fn
        return traced

    def per_layer(self, op_speeds) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics over the spans of the timed ops, one per
        entry of ``op_speeds``.  Self times are in reference time: each
        span is rescaled by the reference speed around its op's slice."""
        n_ops = len(op_speeds)
        child = [0] * self._next_id
        for sid_parent, start, end in zip(self.parents, self.starts, self.ends):
            if sid_parent >= 0:
                child[sid_parent] += end - start
        calls = [0] * len(_NAMES)
        self_ns = [0] * len(_NAMES)
        counts = [0] * len(_NAMES)
        extras = [0] * len(_NAMES)
        route_ns = [0] * n_ops
        direct_ns = [0] * n_ops
        for sid, code, start, end, parent, op, count, extra in zip(
            self.ids, self.codes, self.starts, self.ends,
            self.parents, self.ops, self.counts, self.extras,
        ):
            if parent < 0:
                # top-level call: an expansion route, or the oracle (in the
                # op or in its check) on the same inputs
                k = op if op >= 0 else ~op
                if code == _DIRECT:
                    direct_ns[k] += end - start
                else:
                    route_ns[k] += end - start
            if op < 0:
                continue
            calls[code] += 1
            self_ns[code] += (end - start - child[sid]) * op_speeds[op]
            counts[code] += count
            extras[code] += extra
        out: dict[str, tuple[float, str]] = {}
        per_op = 1.0 / n_ops
        for code, prefix in enumerate(LAYERS.values()):
            out[f"{prefix}.calls"] = (calls[code] * per_op, "count")
            out[f"{prefix}.self_us"] = (self_ns[code] * per_op / 1e3, "us")
        tail, even, generic = _CODE["tail_factor"], _CODE["eval_even"], _CODE["eval_generic"]
        out["engine.tail_factor.j_terms"] = (counts[tail] * per_op, "count")
        out["engine.tail_factor.useful_ratio"] = (
            extras[tail] / calls[tail] if calls[tail] else 0.0,
            "ratio",
        )
        out["engine.eval_even.n_terms"] = (counts[even] * per_op, "count")
        out["engine.eval_generic.k_terms"] = (counts[generic] * per_op, "count")
        out["oracle.direct_sum.n_terms"] = (counts[_DIRECT] * per_op, "count")
        out["model.term_log.entries"] = ((extras[even] + extras[generic]) * per_op, "count")
        both = [(r, d) for r, d in zip(route_ns, direct_ns) if r and d]
        out["engine.route_over_direct"] = (
            sum(r for r, _ in both) / sum(d for _, d in both) if both else 0.0,
            "ratio",
        )
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,count,extra\n")
            for row in zip(
                self.ids, self.codes, self.starts, self.ends,
                self.parents, self.ops, self.counts, self.extras,
            ):
                fh.write(f"{row[0]},{_NAMES[row[1]]},{row[2]},{row[3]},{row[4]},{row[5]},{row[6]},{row[7]}\n")

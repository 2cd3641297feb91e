"""Span tracing of qlab's layers from outside the package.

install() wraps each traced public function and ring method.  A module
function is replaced in every qlab module namespace that binds it (for
example apply_phi in qlab.fermion, qlab.multiparam and qlab itself), so
calls between modules and recursive calls are seen too.  Each call
records a span (name, start, end, parent span); self time is a span's
duration minus the time its child spans cover.  Counts are taken at the
same boundaries.  Spans stay in memory until the pass writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Per-layer metrics reported by a traced run, with their units.  Every one
# is reported on every workload; a layer a workload does not reach reads 0.
METRICS = {
    "ring.mul.calls": "count",
    "ring.mul.term_pairs": "count",
    "ring.mul.self_s": "s",
    "ring.add.calls": "count",
    "ring.add.terms_copied": "count",
    "ring.add.self_s": "s",
    "ring.tensor_add.terms_copied": "count",
    "ring.tensor_add.self_s": "s",
    "ring.diff.self_s": "s",
    "ring.evaluate.self_s": "s",
    "series.schur_q_row.self_s": "s",
    "series.exp_series.self_s": "s",
    "fermion.apply_phi.calls": "count",
    "fermion.apply_phi.self_s": "s",
    "fermion.q_lambda.self_s": "s",
    "fermion.bilinear.self_s": "s",
    "fermion.discrepancy_terms": "count",
    "multiparam.multiparam_q.self_s": "s",
    "hirota.generate.self_s": "s",
    "hirota.check.self_s": "s",
    "hirota.p_to_x.self_s": "s",
    "hirota.equations_checked": "count",
    "hirota.residual_terms": "count",
    "oracle.q_lambda_sym.self_s": "s",
    "oracle.qa_sym.self_s": "s",
    "oracle.sym_terms": "count",
    "oracle.eval_powersums.self_s": "s",
    "serialize.to_json.self_s": "s",
    "serialize.bytes": "bytes",
    "cli.main.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent row or -1]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[list] = []  # [row, time covered by child spans]

    def wrap(self, name, fn, before=None, after=None):
        spans, open_, self_s, counts = self.spans, self._open, self.self_s, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, *args)
            row = [name, 0.0, 0.0, open_[-1][0] if open_ else -1]
            frame = [len(spans), 0.0]
            spans.append(row)
            open_.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                self_s[name] += end - start - frame[1]
                if open_:
                    open_[-1][1] += end - start
                row[1], row[2] = start, end
            if after is not None:
                after(counts, result)
            return result

        return traced

    def span_table(self, origin: float) -> dict:
        """Spans as {"names": [...], "rows": [[name id, start, end, parent]]},
        times in seconds from origin."""
        names = sorted({row[0] for row in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "rows": [
                [ids[n], round(s - origin, 7), round(e - origin, 7), p]
                for n, s, e, p in self.spans
            ],
        }


def _mul(counts, a, b=None):
    counts["ring.mul.calls"] += 1
    counts["ring.mul.term_pairs"] += len(a.terms) * (
        len(b.terms) if hasattr(b, "terms") else 1
    )


def _add(counts, a, b=None):
    counts["ring.add.calls"] += 1
    counts["ring.add.terms_copied"] += len(a.terms)


def _tensor_add(counts, a, b=None):
    counts["ring.tensor_add.terms_copied"] += len(a.terms)


def _phi(counts, *args):
    counts["fermion.apply_phi.calls"] += 1


def _discrepancy(counts, result):
    counts["fermion.discrepancy_terms"] += len(result[1].terms)


def _report(counts, report):
    counts["hirota.equations_checked"] += report.checked
    counts["hirota.residual_terms"] += sum(len(r.terms) for r in report.failures.values())


def _sym(counts, result):
    counts["oracle.sym_terms"] += len(result.terms)


# (span name, class name in qlab.ring, methods, count hook before the call)
_METHODS = [
    ("ring.mul", "Poly", ("__mul__", "__rmul__"), _mul),
    ("ring.add", "Poly", ("__add__", "__radd__"), _add),
    ("ring.tensor_add", "Tensor", ("__add__",), _tensor_add),
    ("ring.diff", "Poly", ("diff",), None),
    ("ring.evaluate", "Poly", ("evaluate",), None),
]

# (span name, defining module, function, count hook before, after the call)
_FUNCTIONS = [
    ("series.schur_q_row", "qlab.series", "schur_q_row", None, None),
    ("series.exp_series", "qlab.series", "exp_series", None, None),
    ("fermion.apply_phi", "qlab.fermion", "apply_phi", _phi, None),
    ("fermion.q_lambda", "qlab.fermion", "q_lambda", None, None),
    ("fermion.bilinear", "qlab.fermion", "is_bkp_tau_bilinear", None, _discrepancy),
    ("multiparam.multiparam_q", "qlab.multiparam", "multiparam_q", None, None),
    ("hirota.generate", "qlab.hirota", "bkp_generate", None, None),
    ("hirota.check", "qlab.hirota", "bkp_check", None, _report),
    ("hirota.p_to_x", "qlab.hirota", "p_to_x", None, None),
    ("oracle.q_lambda_sym", "qlab.oracle", "q_lambda_sym", None, _sym),
    ("oracle.qa_sym", "qlab.oracle", "qa_sym", None, _sym),
    ("oracle.eval_powersums", "qlab.oracle", "eval_powersums", None, None),
    ("serialize.to_json", "qlab.serialize", "poly_to_json_dict", None, None),
    ("cli.main", "qlab.cli", "main", None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported qlab package."""
    import qlab.cli  # noqa: F401  (loads every module that gets patched)
    import qlab.ring

    for name, cls_name, methods, before in _METHODS:
        cls = getattr(qlab.ring, cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), before))
    modules = [m for k, m in sys.modules.items() if k == "qlab" or k.startswith("qlab.")]
    for name, module, attr, before, after in _FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        traced = tracer.wrap(name, original, before, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)

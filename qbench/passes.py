"""One cold pass of a workload, in a fresh interpreter.

run.py starts this script once per pass with a JSON config argument.  It
puts the checkout's src/ first on sys.path, imports qlab, builds the
workload's inputs from the seed, then runs the timed calls.  The last line
of its standard output is a JSON object with the pass's timings, counts,
output digest and any check failures.  Only names that qlab/__init__.py
exports are called; the oracle workload runs `python -m qlab.cli
oracle-compare` in child interpreters.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Sizes of each workload.  "full" is what a measured run uses; "smoke" runs
# every code path and check in seconds.
SIZES = {
    "full": {
        "classical_max": 18,
        "multiparam_max": 12,
        "point_vars": 7,
        "ladder": [("q", (6, 2)), ("q", (7, 2, 1)), ("q", (7, 5)), ("qa", (6, 3, 1))],
        "weight": 12,
        "oracle": [(6, 5, None), (5, 5, "random"), (5, 5, "factorial")],
    },
    "smoke": {
        "classical_max": 7,
        "multiparam_max": 5,
        "point_vars": 4,
        "ladder": [("q", (3, 1)), ("qa", (3, 1))],
        "weight": 6,
        "oracle": [(4, 3, None), (3, 3, "random")],
    },
}

# Each ladder entry's perturbation partner mu, of weight |lambda| - 2, so that
# lambda + c * p1^2 * mu is homogeneous for classical entries.
PARTNERS = {(6, 2): (4, 2), (7, 2, 1): (5, 2, 1), (7, 5): (6, 4), (6, 3, 1): (4, 3, 1),
            (3, 1): (2,)}

# Perturbation coefficients c.  The seed picks one per input; every
# combination with every ladder entry was checked to be rejected by both
# verifiers (see README), so no seed makes a refute operation fail.
PERTURB_COEFFS = [Fraction(k, 7) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]


def strict_partitions(max_sum: int) -> list[tuple[int, ...]]:
    """Nonempty strict partitions of size <= max_sum, smallest size first.

    Enumerated here rather than by qlab, since the oracle check counts
    qlab's output lines against it."""
    out = []

    def rec(largest, budget, acc):
        for part in range(min(largest, budget), 0, -1):
            out.append(acc + (part,))
            rec(part - 1, budget - part, acc + (part,))

    rec(max_sum, max_sum, ())
    return sorted(out, key=lambda t: (sum(t), t))


def odd_partitions(max_weight: int) -> int:
    """Number of nonempty partitions into odd parts of weight <= max_weight."""
    ways = [1] + [0] * max_weight
    for part in range(1, max_weight + 1, 2):
        for w in range(part, max_weight + 1):
            ways[w] += ways[w - part]
    return sum(ways) - 1


def random_family(rng: random.Random, max_index: int) -> list[Fraction]:
    """a_0 = 0, then rationals +-k/d with 1 <= k <= 5 and 1 <= d <= 3."""
    return [Fraction(0)] + [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        for _ in range(max_index)
    ]


class Pass:
    """Inputs, timed calls and checks of one workload pass."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.size = SIZES[size]
        self.rng = random.Random(f"{workload}:{seed}")
        self.items: list[float] = []
        self.outputs: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra_counts: dict[str, int] = {}
        getattr(self, f"_inputs_{workload}")()

    def _timed(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.items.append(time.perf_counter() - start)
        return result

    def _op_failed(self, what: str, exc: BaseException | None = None) -> None:
        self.failed += 1
        detail = f": {type(exc).__name__}: {exc}" if exc is not None else ""
        print(f"failed operation {what}{detail}", file=sys.stderr)

    # -- construct ---------------------------------------------------------
    def _inputs_construct(self):
        from qlab import ParamSeq

        m = self.size["multiparam_max"]
        self.families = {
            "zero": ParamSeq.zeros(m),
            "factorial": ParamSeq.factorial(m),
            "random": ParamSeq(random_family(self.rng, m)),
        }
        self.ops = [(lam, None) for lam in strict_partitions(self.size["classical_max"])]
        for fam in self.families:
            self.ops += [(alpha, fam) for alpha in strict_partitions(m)]

    def _run_construct(self):
        from qlab import multiparam_q, poly_to_json_dict, q_lambda

        def build(parts, fam):
            f = q_lambda(parts) if fam is None else multiparam_q(parts, self.families[fam])
            return json.dumps(poly_to_json_dict(f))

        for parts, fam in self.ops:
            self.attempted += 1
            try:
                self.outputs.append(self._timed(build, parts, fam))
            except Exception as exc:
                self.outputs.append("")
                self._op_failed(f"{parts}@{fam}", exc)
        self.extra_counts["serialize.bytes"] = sum(len(t.encode()) for t in self.outputs)

    def _check_construct(self):
        import pointwise

        xs = pointwise.random_point(self.rng, self.size["point_vars"])
        sym = pointwise.Symmetrizer(xs)
        for (parts, fam), text in zip(self.ops, self.outputs):
            if not text:
                continue
            a = self.families[fam] if fam else None
            params = [a.get(t) for t in range(max(parts))] if a else None
            if pointwise.json_value(text, xs) != sym.q_value(parts, params):
                self.errors.append(f"Q{parts}@{fam} differs from symmetrization at {xs}")

    # -- verify and refute ---------------------------------------------------
    def _ladder_top(self) -> int:
        return max(max(p) for kind, p in self.size["ladder"] if kind == "qa")

    def _inputs_verify(self):
        from qlab import ParamSeq

        a = ParamSeq(random_family(self.rng, self._ladder_top()))
        self.taus = [(f"{kind}{parts}", kind, parts, a, None, None)
                     for kind, parts in self.size["ladder"]]

    def _inputs_refute(self):
        from qlab import ParamSeq

        # The factorial family keeps the set of possible inputs finite, so
        # every one of them could be checked to be a non-solution.
        a = ParamSeq.factorial(self._ladder_top())
        self.taus = [
            (f"{kind}{parts}+c*p1^2*{kind}{PARTNERS[parts]}", kind, parts, a,
             PARTNERS[parts], self.rng.choice(PERTURB_COEFFS))
            for kind, parts in self.size["ladder"]
        ]
        # The pinned non-solution q(1) + 3/5 (q(3) + p3).
        self.taus.append(("q(1)+3/5*(q(3)+p3)", "witness", (1,), None, (3,), Fraction(3, 5)))

    def _build_tau(self, kind, parts, a, partner, c):
        from qlab import Poly, multiparam_q, q_lambda

        def q(p):
            return multiparam_q(p, a) if kind == "qa" else q_lambda(p)

        if kind == "witness":
            return q_lambda(parts) + (q_lambda(partner) + Poly.variable(3)) * c
        if partner is None:
            return q(parts)
        return q(parts) + Poly.variable(1) ** 2 * q(partner) * c

    def _run_verifiers(self, expect: bool):
        from qlab import bkp_check, is_bkp_tau_bilinear

        w = self.size["weight"]
        self.reports = []
        for name, *spec in self.taus:
            self.attempted += 1
            try:
                tau = self._timed(self._build_tau, *spec)
                ok, discrepancy = self._timed(is_bkp_tau_bilinear, tau)
                report = self._timed(bkp_check, tau, w)
            except Exception as exc:
                self.outputs.append("")
                self._op_failed(name, exc)
                continue
            if ok != expect or report.passed != expect:
                self._op_failed(f"{name}: verdicts bilinear={ok} hierarchy={report.passed}")
            self.reports.append((name, ok, discrepancy, report))
            self.outputs.append(json.dumps([
                name, ok, discrepancy.is_zero(), report.passed, report.checked,
                report.trivial, sorted(report.failures),
            ]))

    def _check_reports(self):
        from qlab import bkp_generate, poly_to_json_dict

        w = self.size["weight"]
        expected_count = odd_partitions(w)
        for name, ok, discrepancy, report in self.reports:
            if report.checked + len(report.trivial) != expected_count:
                self.errors.append(
                    f"{name}: {report.checked} checked + {len(report.trivial)} trivial "
                    f"!= {expected_count} partitions into odd parts of weight <= {w}")
            if ok != discrepancy.is_zero():
                self.errors.append(f"{name}: bilinear verdict disagrees with its discrepancy")
            if report.passed == bool(report.failures):
                self.errors.append(f"{name}: hierarchy verdict disagrees with its failures")
        # y3^2 equation: (8/45)(D1^6 - 5 D1^3 D3 - 5 D3^2 + 9 D1 D5).
        expect = {((1, 6),): 1, ((1, 3), (3, 1)): -5, ((3, 2),): -5, ((1, 1), (5, 1)): 9}
        expect = {m: Fraction(8, 45) * c for m, c in expect.items()}
        got = poly_to_json_dict(bkp_generate(w)[((3, 2),)])
        got = {tuple(sorted((int(n), e) for n, e in t["mono"].items())): Fraction(t["coef"])
               for t in got["terms"]}
        if got != expect:
            self.errors.append(f"y3^2 equation is {got}, expected {expect}")

    # -- oracle --------------------------------------------------------------
    def _inputs_oracle(self):
        self.invocations = []
        for max_sum, n_vars, params in self.size["oracle"]:
            args = ["oracle-compare", "--max-sum", str(max_sum), "--nvars", str(n_vars),
                    "--points", "2", "--seed", str(self.rng.randrange(10**9))]
            if params == "random":
                params = ",".join(map(str, random_family(self.rng, max_sum - 1)))
            if params:
                args += ["--params", params]
            self.invocations.append((max_sum, params, args))

    def _run_oracle(self, trace_dir: str | None = None):
        env = dict(os.environ, PYTHONPATH=SRC)
        self.cli_traces = []
        for i, (_, _, args) in enumerate(self.invocations):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "qlab.cli", *args]
            else:
                out = os.path.join(trace_dir, f".cli-{i}.json")
                cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), out, *args]
                self.cli_traces.append(out)
            self.attempted += 1
            proc = self._timed(
                lambda: subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True))
            self.outputs.append(proc.stdout)
            if proc.returncode != 0:
                self._op_failed(f"{' '.join(args)}: exit status {proc.returncode}")
                sys.stderr.write(proc.stderr[-2000:])

    def _check_oracle(self):
        for (max_sum, params, args), out in zip(self.invocations, self.outputs):
            lines = out.splitlines()
            names = [",".join(map(str, lam)) for lam in strict_partitions(max_sum)]
            for kind in ("q", "qa") if params else ("q",):
                got = sorted(line for line in lines if line.startswith(f"ok {kind} "))
                if got != sorted(f"ok {kind} {n}" for n in names):
                    self.errors.append(
                        f"{' '.join(args)}: {len(got)} 'ok {kind}' lines for "
                        f"{len(names)} strict partitions")
            if not lines or lines[-1] != "PASS: oracle agrees":
                self.errors.append(f"{' '.join(args)}: no PASS line")

    # -- driver ----------------------------------------------------------------
    def run(self, trace_dir: str | None):
        if self.workload == "oracle":
            self._run_oracle(trace_dir)
        elif self.workload == "construct":
            self._run_construct()
        else:
            self._run_verifiers(expect=self.workload == "verify")

    def check(self):
        if self.workload == "oracle":
            self._check_oracle()
        elif self.workload == "construct":
            self._check_construct()
        else:
            self._check_reports()

    def digest(self) -> str:
        return hashlib.sha256("\n\x00".join(self.outputs).encode()).hexdigest()


def main(config: dict) -> None:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qlab

    if os.path.dirname(os.path.realpath(qlab.__file__)) != os.path.realpath(
            os.path.join(SRC, "qlab")):
        raise SystemExit(f"qlab imported from {qlab.__file__}, not from {SRC}")
    work = Pass(config["workload"], config["seed"], config["size"])
    first_call = time.monotonic()
    if config["setup_only"]:
        print(json.dumps({"first_call": first_call}))
        return
    trace_dir = config["trace_dir"]
    tracer = None
    if trace_dir is not None and config["workload"] != "oracle":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    origin = time.perf_counter()
    work.run(trace_dir)
    usage = resource.RUSAGE_CHILDREN if config["workload"] == "oracle" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(usage).ru_maxrss
    result = {
        "first_call": first_call,
        "items": work.items,
        "rss_kb": rss_kb,
        "attempted": work.attempted,
        "failed": work.failed,
        "digest": work.digest(),
    }
    if trace_dir is not None:
        self_s, counts, processes = {}, dict(work.extra_counts), []
        if tracer is not None:
            self_s, counts = dict(tracer.self_s), {**tracer.counts, **counts}
            processes.append({"label": config["workload"], **tracer.span_table(origin)})
        for path in getattr(work, "cli_traces", []):
            with open(path, encoding="utf-8") as fh:
                cli = json.load(fh)
            os.remove(path)
            for k, v in cli["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in cli["counts"].items():
                counts[k] = counts.get(k, 0) + v
            processes.append(cli["process"])
        with open(os.path.join(trace_dir, ".pass-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"processes": processes}, fh)
        result["self_s"], result["counts"] = self_s, counts
    if config["check"]:
        work.check()
    result["errors"] = work.errors
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

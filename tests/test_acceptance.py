"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints its own pass/fail line (with elapsed wall time) so the
plain pytest output doubles as an acceptance report. All comparisons are
exact; no tolerances appear anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from qlab import (
    ParamSeq,
    Poly,
    apply_phi,
    bkp_check,
    bkp_generate,
    check_multiparam_expansion,
    eval_powersums,
    exp_series,
    exp_series_det,
    graded_monomials,
    is_bkp_tau_bilinear,
    log_series,
    log_series_by_inversion,
    multiparam_q,
    multiparam_q_via_fermions,
    normalize_index,
    q_lambda,
    q_sym_at,
    qa_sym,
    qa_sym_at,
    schur_q_row,
    schur_q_x_list,
    shifted_transition,
    strict_partitions,
)

from conftest import RANDOM_A, rand_fraction, rand_points

F = Fraction


class criterion:
    """Context manager printing one [criterion n] PASS/FAIL line."""

    def __init__(self, capsys, n):
        self.capsys = capsys
        self.n = n
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        extra = f", {self.detail}" if self.detail else ""
        with self.capsys.disabled():
            print(f"[criterion {self.n}] {verdict} ({elapsed:.1f}s{extra})")
        return False


@pytest.fixture(scope="session")
def corpus():
    """Named tau candidates: 1, classical Q, and multiparameter Q."""
    taus = [("1", Poly.one("p"))]
    for lam in strict_partitions(8):
        if lam:
            taus.append((f"q{lam}", q_lambda(lam)))
    families = [
        ("zero", ParamSeq.zeros(6)),
        ("factorial", ParamSeq.factorial(6)),
        ("random", RANDOM_A),
    ]
    for name, a in families:
        for alpha in strict_partitions(7):
            if alpha:
                taus.append((f"qa{alpha}@{name}", multiparam_q(alpha, a)))
    return taus


def test_criterion_1_anticommutation(capsys):
    with criterion(capsys, 1) as c:
        monos = graded_monomials(8)
        pairs = 0
        for mono in monos:
            f = Poly.from_mono(mono, F(1), "p")
            images = {m: apply_phi(m, f) for m in range(-6, 7)}
            for m in range(-6, 7):
                for n in range(-6, 7):
                    lhs = apply_phi(m, images[n]) + apply_phi(n, images[m])
                    if m + n == 0:
                        scale = F(2) if m % 2 == 0 else F(-2)
                        assert lhs == f * scale
                    else:
                        assert lhs.is_zero()
                    pairs += 1
        c.detail = f"{len(monos)} monomials x {pairs // len(monos)} operator pairs"


def test_criterion_2_vertex_vs_oracle(capsys):
    with criterion(capsys, 2) as c:
        rng = random.Random(20260818)
        n_vars = 6
        points = [rand_points(rng, n_vars) for _ in range(3)]
        count = 0
        for lam in strict_partitions(8):
            fast = q_lambda(lam)
            for xs in points:
                assert q_sym_at(lam, xs) == eval_powersums(fast, xs)
            count += 1
        c.detail = f"{count} partitions x {len(points)} point sets"


def test_criterion_3_generating_function_identities(capsys):
    with criterion(capsys, 3) as c:
        for w in range(1, 13):
            acc = Poly.zero("p")
            for j in range(w + 1):
                term = schur_q_row(w - j) * schur_q_row(j)
                acc = acc + (term if j % 2 == 0 else -term)
            assert acc.is_zero()
        for m in range(1, 6):
            rhs = Poly.zero("p")
            for r in range(1, m):
                term = schur_q_row(r) * schur_q_row(2 * m - r)
                rhs = rhs + (term if (r - 1) % 2 == 0 else -term)
            sq = schur_q_row(m) * schur_q_row(m) * F(1, 2)
            rhs = rhs + (sq if (m - 1) % 2 == 0 else -sq)
            assert schur_q_row(2 * m) == rhs
        one = Poly.one("p")
        xs = schur_q_x_list(8)
        det = exp_series_det(xs, 8, one=one)
        comp = exp_series(xs, 8, one=one)
        assert det == comp
        for k in range(9):
            assert det[k] == schur_q_row(k)
        rng = random.Random(3)
        ss = [F(1)] + [rand_fraction(rng) for _ in range(8)]
        assert log_series(ss, 8) == log_series_by_inversion(ss, 8)
        c.detail = "orders 12 / m<=5 / k=8"


def test_criterion_4_bilinear_identity(capsys, corpus, witness):
    with criterion(capsys, 4) as c:
        for name, tau in corpus:
            ok, disc = is_bkp_tau_bilinear(tau)
            assert ok, f"bilinear identity failed for {name}: {disc.text()}"
        ok, disc = is_bkp_tau_bilinear(witness)
        assert not ok
        assert not disc.is_zero()
        c.detail = f"{len(corpus)} tau candidates + 1 failing witness"


def test_criterion_5_lowest_equation(capsys):
    with criterion(capsys, 5) as c:
        eqs = bkp_generate(6)
        d1 = Poly.variable(1, "D")
        d3 = Poly.variable(3, "D")
        d5 = Poly.variable(5, "D")
        expect = (d1**6 - d1**3 * d3 * 5 - d3**2 * 5 + d1 * d5 * 9) * F(8, 45)
        got = eqs[((3, 2),)]
        assert got == expect
        assert got.text() == "8/45*D1^6 - 8/9*D1^3*D3 - 8/9*D3^2 + 8/5*D1*D5"
        c.detail = "y3^2 coefficient"


def test_criterion_6_hierarchy_verification(capsys, corpus, witness):
    with criterion(capsys, 6) as c:
        checked = 0
        for name, tau in corpus:
            report = bkp_check(tau, 10)
            bilinear_ok, _ = is_bkp_tau_bilinear(tau)
            assert report.passed, f"hierarchy check failed for {name}"
            assert report.passed == bilinear_ok
            checked = report.checked
        report = bkp_check(witness, 10)
        bilinear_ok, _ = is_bkp_tau_bilinear(witness)
        assert not report.passed
        assert not bilinear_ok
        c.detail = f"{len(corpus)} taus x {checked} equations at weight 10"


def test_criterion_7_multiparameter_correctness(capsys):
    with criterion(capsys, 7) as c:
        rng = random.Random(20260819)
        n_vars = 6
        points = [rand_points(rng, n_vars) for _ in range(3)]
        families = [
            ("zero", ParamSeq.zeros(6)),
            ("factorial", ParamSeq.factorial(6)),
            ("random", RANDOM_A),
        ]
        count = 0
        for fam_name, a in families:
            for alpha in strict_partitions(7):
                if not alpha:
                    continue
                fast = multiparam_q(alpha, a)
                for xs in points:
                    assert qa_sym_at(alpha, a, xs) == eval_powersums(fast, xs), (
                        f"oracle mismatch for {alpha}@{fam_name}"
                    )
                count += 1
        a = RANDOM_A
        for base in [(3, 1), (4, 2, 1)]:
            ref = multiparam_q(base, a)
            for perm in itertools.permutations(base):
                sign, _ = normalize_index(perm)
                assert multiparam_q(perm, a) == ref * sign
                assert multiparam_q_via_fermions(perm, a) == ref * sign
        assert multiparam_q((2, 2), a).is_zero()
        assert multiparam_q((3, 3), a).is_zero()
        assert multiparam_q_via_fermions((2, 2), a).is_zero()
        assert multiparam_q_via_fermions((3, 3), a).is_zero()
        assert qa_sym((1, 2), a, 3) == -qa_sym((2, 1), a, 3)
        assert qa_sym((2, 2), a, 3).is_zero()
        for _, a in families:
            for l in (1, 2):
                assert check_multiparam_expansion(l, a, 6)
        c.detail = f"{count} oracle builds + expansions l in (1,2), order 6"


def test_criterion_8_transition_lemmas(capsys):
    with criterion(capsys, 8) as c:
        rng = random.Random(8)
        cutoff = 8
        for trial in range(5):
            vals = [F(0)] + [rand_fraction(rng) for _ in range(cutoff)]
            a = ParamSeq(tuple(vals))
            n_max = 6
            to_shift = [
                shifted_transition(n, "power_to_shifted", a) for n in range(n_max + 1)
            ]
            to_power = [
                shifted_transition(n, "shifted_to_power", a) for n in range(n_max + 1)
            ]
            for n in range(n_max + 1):
                for m in range(n_max + 1):
                    total = sum(
                        to_shift[n][k] * to_power[k][m]
                        for k in range(m, n + 1)
                    ) if n >= m else F(0)
                    assert total == (1 if n == m else 0)
            inv_sp = [
                shifted_transition(n, "inv_shifted_to_power", a, cutoff)
                for n in range(1, n_max + 1)
            ]
            inv_ps = [
                shifted_transition(n, "inv_power_to_shifted", a, cutoff)
                for n in range(1, n_max + 1)
            ]
            for n in range(1, n_max + 1):
                for m in range(1, n_max + 1):
                    total = sum(
                        inv_ps[n - 1][k] * inv_sp[k - 1][m]
                        for k in range(n, n_max + 1)
                    )
                    assert total == (1 if n == m else 0)
            x = rand_fraction(rng)
            rows = [
                shifted_transition(m, "inv_shifted_to_power", a, cutoff)
                for m in range(1, cutoff + 1)
            ]
            for k in range(1, cutoff + 1):
                falling = F(1)
                total = F(0)
                for m in range(1, k + 1):
                    falling *= x - (F(0) if m == 1 else a.get(m - 1))
                    total += falling * rows[m - 1][k]
                assert total == x**k
        c.detail = "5 random parameter sequences, order 8"

"""End-to-end acceptance run: one test per advertised guarantee.

Each test is self-contained, deterministically seeded, and prints one
pass/fail line under ``pytest -v``.  Tolerances and sample counts here
are the package's published accuracy claims; do not loosen them to make
a failure go away.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qfdiv
from qfdiv.classical import (
    i_f,
    range_check,
    refinement_bound_check,
    shift_invariance_check,
)
from qfdiv.generators import default_catalog, parse_generator_spec, secant_bound
from qfdiv.harness import (
    FuzzConfig,
    check_thm4,
    chi_square_chord_coeff,
    chi_square_secant_coeff,
    fuzz,
    neg_log_jensen_coeff,
    neg_log_range_coeff,
    sample_density,
)
from qfdiv.hermitian import eigh, gruss_gap_check, variance_bound_check
from qfdiv.quantum import (
    chi_square,
    hellinger_sq,
    joint_spectrum,
    s_f,
    s_f_from_spectrum,
    sandwich_check,
    trace_distance,
    tsallis,
    umegaki,
    variational_q,
)

EXAMPLE_A_Q = np.diag([0.75, 0.25]).astype(complex)
EXAMPLE_A_P = np.diag([0.5, 0.5]).astype(complex)
EXAMPLE_B_Q = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
EXAMPLE_B_P = np.diag([0.7, 0.3]).astype(complex)


def philox(seed):
    return np.random.Generator(np.random.Philox(key=int(seed)))


def haar_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, rmat = np.linalg.qr(g)
    phases = np.diag(rmat).copy()
    phases /= np.abs(phases)
    return qmat * phases


def conditioned_spectrum(dim, rng):
    """Eigenvalue law 0.5 * Dirichlet(1,...,1) + 0.5/dim, bounded away from 0."""
    return 0.5 * rng.dirichlet(np.ones(dim)) + 0.5 / dim


def test_criterion_01_commuting_pairs_match_classical_oracle():
    """S_f on commuting pairs equals the classical divergence of the spectra."""
    catalog = default_catalog()
    rng = philox(101)
    start = time.monotonic()
    worst = 0.0
    for dim in (2, 3, 4, 8, 16):
        for _ in range(500):
            u = haar_unitary(dim, rng)
            a = conditioned_spectrum(dim, rng)
            b = conditioned_spectrum(dim, rng)
            q = (u * a) @ u.conj().T
            p = (u * b) @ u.conj().T
            js = joint_spectrum(q, p)
            for f in catalog:
                quantum = s_f_from_spectrum(js, f).value
                classical = i_f(a, b, f)
                assert math.isfinite(quantum), f.spec
                worst = max(worst, abs(quantum - classical))
    assert worst <= 1e-12
    assert time.monotonic() - start < 60.0


def test_criterion_02_spectral_sum_matches_closed_forms():
    """Spectral values agree with trace-formula closed forms to 1e-10 relative."""
    rng = philox(202)
    kl = parse_generator_spec("kl-quantum")
    chi = parse_generator_spec("chi2")
    hel = parse_generator_spec("hellinger")
    tsallis_qs = (0.25, 0.5, 0.75)
    tsallis_gens = [parse_generator_spec(f"tsallis:q={qv}") for qv in tsallis_qs]
    for dim in (2, 4, 8):
        for _ in range(500):
            q = sample_density("ginibre", dim, 0.0, rng)
            p = sample_density("ginibre", dim, 0.0, rng)
            js = joint_spectrum(q.matrix, p.matrix)
            pairs = [
                (s_f_from_spectrum(js, kl).value, umegaki(q.matrix, p.matrix)),
                (s_f_from_spectrum(js, chi).value, chi_square(q.matrix, p.matrix)),
                (s_f_from_spectrum(js, hel).value, hellinger_sq(q.matrix, p.matrix)),
            ]
            for qv, gen in zip(tsallis_qs, tsallis_gens):
                pairs.append((s_f_from_spectrum(js, gen).value,
                              tsallis(q.matrix, p.matrix, qv)))
            for spectral, closed in pairs:
                assert spectral == pytest.approx(closed, rel=1e-10, abs=1e-12)


def test_criterion_03_fuzz_finds_no_violations():
    """4000 seeded Ginibre trials over the full catalog produce zero violations."""
    start = time.monotonic()
    total = 0
    for dim in (2, 3, 4, 8):
        res = fuzz(FuzzConfig(dim=dim, trials=1000, seed=303 + dim,
                              sampler="ginibre", floor=1e-6 / dim, tol=1e-9))
        total += res.summary["violations"]
        assert res.violations == ()
    assert total == 0
    assert time.monotonic() - start < 300.0


def test_criterion_04_worked_example_commuting():
    """Frozen two-level commuting pair: secant equality and chi-square bound."""
    kl_value = s_f(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum")).value
    js = joint_spectrum(EXAMPLE_A_Q, EXAMPLE_A_P)
    secant = secant_bound(parse_generator_spec("kl-quantum"), js.r, js.R)
    assert abs(kl_value - 0.1308120) <= 1e-7
    assert abs(kl_value - secant) <= 1e-12

    chi_value = s_f_from_spectrum(js, parse_generator_spec("chi2")).value
    assert abs(chi_value - 0.25) <= 1e-12
    rep = check_thm4(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("chi2"))
    sub = {s.check: s for s in rep.subchains}["thm4:chi2"]
    assert abs(sub.chain[1][1] - (js.R - 1.0) * (1.0 - js.r)) <= 1e-12
    assert abs(chi_value - sub.chain[1][1]) <= 1e-12


def test_criterion_05_sandwich_containment_and_attainment():
    """Random couplings stay inside the ratio window; extremal ones attain it."""
    rng = philox(505)
    dims = (2, 4, 8)
    for k in range(100):
        dim = dims[k % len(dims)]
        q = sample_density("ginibre", dim, 1e-4, rng)
        p = sample_density("ginibre", dim, 1e-4, rng)
        rep = sandwich_check(q.matrix, p.matrix, trials=1, seed=k)
        terms = dict(rep.terms)
        assert terms["worst-lower-slack"] >= -1e-9
        assert terms["worst-upper-slack"] >= -1e-9
        assert terms["r-attainment-gap"] <= 1e-8
        assert terms["R-attainment-gap"] <= 1e-8 * max(1.0, rep.terms[3][1])
        assert rep.ok


def test_criterion_06_covariance_and_variance_chains():
    """Covariance-gap and variance chains hold on 1000 random triples."""
    rng = philox(606)
    for k in range(1000):
        dim = 2 + k % 7
        g0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = (g0 + g0.conj().T) / 2.0
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        omega = rng.uniform(0.2, 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        # |cos| <= 1 everywhere, so (lam, rho) = (0, 1) always qualifies.
        g = lambda t, w=omega, ph=phase: math.cos(w * t + ph)
        assert gruss_gap_check(s, g, 0.0, 1.0, x, tol=1e-10).ok
        assert variance_bound_check(s, x, tol=1e-10).ok

    # Equality witness: projector spectrum {0, 1} probed on its diagonal.
    s = np.diag([0.0, 1.0])
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = variance_bound_check(s, x)
    assert rep.ok
    for _, value in rep.terms[1:]:
        assert value == pytest.approx(0.25, abs=1e-14)
    rep = gruss_gap_check(s, lambda t: t, 0.5, 0.5, x)
    assert rep.ok
    for _, value in rep.terms:
        assert value == pytest.approx(0.25, abs=1e-14)


def test_criterion_07_classical_range_refinement_and_shift():
    """Range and refinement chains on random distributions; shift invariance."""
    rng = philox(707)
    catalog = tuple(default_catalog())
    for k in range(1000):
        n = 2 + k % 15
        q = rng.dirichlet(np.ones(n))
        p = rng.dirichlet(np.ones(n))
        f = catalog[k % len(catalog)]
        assert range_check(q, p, f).ok
        assert refinement_bound_check(q, p, f).ok

    # Disjoint supports drive I_f to the top of its range exactly.
    for spec in ("tv", "hellinger", "dichotomy:alpha=0.5"):
        f = parse_generator_spec(spec)
        top = f.value_at_zero + f.star_at_zero
        assert abs(i_f([1.0, 0.0], [0.0, 1.0], f) - top) <= 1e-12

    for k in range(50):
        n = 2 + k % 15
        q = rng.dirichlet(np.ones(n))
        p = rng.dirichlet(np.ones(n))
        f = catalog[k % len(catalog)]
        for c in (1.0, -1.0, 10.0, -10.0):
            assert shift_invariance_check(q, p, f, c, tol=1e-11).ok


def test_criterion_08_refined_coefficients_never_exceed_coarse():
    """Sampled windows: chord and midpoint coefficients below their coarse pairs."""
    rng = philox(808)
    for _ in range(1000):
        r = rng.uniform(1e-6, 1.0 - 1e-9)
        R = rng.uniform(1.0 + 1e-9, 100.0)
        assert chi_square_chord_coeff(r, R) <= chi_square_secant_coeff(r, R) + 1e-12
        assert neg_log_jensen_coeff(r, R) <= neg_log_range_coeff(r, R) + 1e-12


def test_criterion_09_worked_example_noncommuting():
    """Frozen noncommuting pair: variational crossing point and trace distance."""
    assert abs(variational_q(EXAMPLE_B_Q, EXAMPLE_B_P) - 0.5) <= 1e-12
    assert abs(trace_distance(EXAMPLE_B_Q, EXAMPLE_B_P) - 0.6403124) <= 1e-6


def test_criterion_10_eigensolver_reconstruction():
    """Eigendecomposition reconstructs and stays orthonormal at 1e-10 scaled."""
    rng = philox(1010)
    for dim in (2, 8, 32, 64):
        for _ in range(100):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = (g + g.conj().T) / 2.0
            dec = eigh(a)
            scale = max(1.0, float(np.linalg.norm(a)))
            assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * scale
            v = dec.eigenvectors
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10


def test_criterion_11_cli_fuzz_stdout_is_byte_identical():
    """Repeated and multi-worker fuzz invocations print identical bytes."""
    env = dict(os.environ)
    env.pop("QFDIV_SEED", None)
    env.pop("QFDIV_TIMESTAMP", None)
    # The child imports the qfdiv this suite imports, installed or not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(qfdiv.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    base = [sys.executable, "-m", "qfdiv", "fuzz",
            "--dim", "3", "--trials", "25", "--seed", "42"]

    def run(extra):
        proc = subprocess.run(base + extra, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = run([])
    second = run([])
    assert first == second
    parallel = run(["--jobs", "4"])
    assert first == parallel
    # Sanity: the output is the violation document and reports a clean run.
    doc = json.loads(first.decode())
    assert doc["summary"]["violations"] == 0

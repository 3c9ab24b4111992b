"""Acceptance gate: the eleven release criteria, one test and one line each.

Each test prints "criterion N: PASS" once its assertions hold, so a verbose
run shows one line per criterion both from the test id and from the print.
"""

import math

import numpy as np
from discrete_reference import brute_force_cost, monotone_matching_cost

from lsdeficit.battery import standard_battery
from lsdeficit.bounds import BOUND_IDS, certify_suite, equality_probe, evaluate_bound
from lsdeficit.cli import _parse_range
from lsdeficit.deltafn import LINEAR_BAND_CONSTANT, delta, delta_quadratic_floor, delta_scale
from lsdeficit.densities import (
    GaussianDensity,
    MixtureDensity,
    ProductDensity,
    bivariate_gaussian_grid,
)
from lsdeficit.functionals import de_bruijn_residual, lsi_deficit, relative_entropy, relative_fisher
from lsdeficit.quadrature import GridSpec, integrate
from lsdeficit.recentering import recenter
from lsdeficit.transport import (
    COST_ABS,
    COST_DELTA,
    COST_SQ,
    transport_cost,
    w1_distance,
    w2_squared,
)

MIX2 = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])


def test_criterion_01_gaussian_closed_forms():
    for sigma in (0.5, 0.9, 1.1, 2.0):
        mu = GaussianDensity(0.0, sigma**2)
        np.testing.assert_allclose(
            relative_entropy(mu).value, 0.5 * ((sigma**2 - 1.0) - 2.0 * math.log(sigma)),
            atol=1e-6,
        )
        np.testing.assert_allclose(
            relative_fisher(mu).value, sigma**2 * (1.0 / sigma**2 - 1.0) ** 2, atol=1e-6
        )
        np.testing.assert_allclose(w2_squared(mu).value, (sigma - 1.0) ** 2, atol=1e-6)
        np.testing.assert_allclose(
            w1_distance(mu), abs(sigma - 1.0) * math.sqrt(2.0 / math.pi), atol=1e-6
        )
    print("criterion 1: PASS (Gaussian closed forms at sigma in {0.5, 0.9, 1.1, 2})")


def test_criterion_02_tightness_across_scales():
    worst = 0.0
    for sigma in np.linspace(0.3, 3.0, 28):
        cert = evaluate_bound("thm1.1-a", GaussianDensity(0.0, float(sigma) ** 2))
        worst = max(worst, abs(cert.slack))
    assert worst <= 1e-6
    print(f"criterion 2: PASS (max |slack| {worst:.2e} over sigma in [0.3, 3])")


def test_criterion_03_asymptotic_order():
    sigmas = _parse_range("0.99:1.01:0.004")
    assert 1.0 not in sigmas
    deficit_ratio, w2_ratio, tdelta_ratio, w1_ratio = [], [], [], []
    for sigma in sigmas:
        mu = GaussianDensity(0.0, sigma**2)
        e2 = (sigma - 1.0) ** 2
        d = relative_entropy(mu).value
        deficit_ratio.append(lsi_deficit(mu).value / e2)
        w2_ratio.append(w2_squared(mu).value / e2)
        tdelta = transport_cost(mu, None, COST_DELTA).value
        tdelta_ratio.append(tdelta**2 / d / e2)
        w1_ratio.append(w1_distance(mu) ** 4 / d / e2)
    assert all(0.95 <= r <= 1.05 for r in deficit_ratio)
    assert all(0.95 <= r <= 1.05 for r in w2_ratio)
    for ratios in (tdelta_ratio, w1_ratio):
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 0.10
    print("criterion 3: PASS (order (sigma-1)^2 with stable fourth-order ratios)")


def test_criterion_04_battery_certificates():
    entries = certify_suite(standard_battery(), tol=1e-5)
    failed = [e for e in entries if e.passed is False]
    assert failed == []
    evaluated = [e for e in entries if e.certificate is not None]
    assert min(e.certificate.slack for e in evaluated) >= -1e-5
    ran = {e.bound_id for e in evaluated}
    assert ran == set(BOUND_IDS)
    n_skip = sum(1 for e in entries if e.certificate is None)
    print(
        f"criterion 4: PASS ({len(evaluated)} certificates, {n_skip} hypothesis skips, "
        "every bound exercised)"
    )


def test_criterion_05_discrete_oracle_agreement():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        units = int(rng.integers(1, 9))
        laws = []
        for _side in range(2):
            n = int(rng.integers(1, units + 1))
            cuts = (
                np.sort(rng.choice(np.arange(1, units), size=n - 1, replace=False))
                if n > 1
                else np.array([], dtype=int)
            )
            counts = np.diff(np.concatenate(([0], cuts, [units])))
            pts = np.sort(rng.normal(0.0, 2.0, size=n))
            laws.append((pts, counts / units))
        (a_pts, a_m), (b_pts, b_m) = laws
        for cost in (COST_SQ, COST_ABS, COST_DELTA):
            mono = monotone_matching_cost(a_pts, a_m, b_pts, b_m, cost)
            brute = brute_force_cost(a_pts, a_m, b_pts, b_m, cost)
            assert brute is not None
            assert abs(mono - brute) <= 1e-12
            checked += 1
    assert checked == 600
    print("criterion 5: PASS (600 monotone/brute-force matches within 1e-12)")


def test_criterion_06_heat_flow_identity():
    members = [GaussianDensity(0.0, 4.0), GaussianDensity(0.5, 1.0), MIX2]
    worst = 0.0
    for mu in members:
        for t in (0.5, 1.0, 2.0):
            worst = max(worst, de_bruijn_residual(mu, t))
    assert worst <= 1e-3
    print(f"criterion 6: PASS (max residual {worst:.2e} at t in {{0.5, 1, 2}})")


def test_criterion_07_tensorisation():
    factors = [GaussianDensity(0.0, 0.25), MIX2, GaussianDensity(1.0, 1.0)]
    total = relative_entropy(ProductDensity(factors)).value
    parts = math.fsum(relative_entropy(f).value for f in factors)
    assert abs(total - parts) <= 1e-8
    d2 = relative_entropy(bivariate_gaussian_grid(0.5)).value
    np.testing.assert_allclose(d2, 0.1438410, atol=1e-5)
    print("criterion 7: PASS (product additivity 1e-8; correlated 2D value 0.1438410)")


def test_criterion_08_recentering():
    out = recenter(bivariate_gaussian_grid(0.5))
    grid = out.recentered
    xs = grid.spec_x.nodes()[:, None]
    ys = grid.spec_y.nodes()[None, :]
    want = np.broadcast_to(
        -0.5 * xs**2 - 0.5 * math.log(2.0 * math.pi)
        - 0.5 * ys**2 / 0.75 - 0.5 * math.log(2.0 * math.pi * 0.75),
        grid.log_values.shape,
    )
    # compare where the product density carries mass; rows shifted past the
    # window edge hold a representational floor instead of a log value
    live = want >= -40.0
    err = float(np.abs(grid.log_values[live] - want[live]).max())
    assert err <= 1e-5
    cert = evaluate_bound("thm1.3", grid)
    assert cert.passed
    print(f"criterion 8: PASS (factorises, sup log error {err:.2e}; thm1.3 holds)")


def test_criterion_09_equality_case():
    for shift in (-2.0, -0.5, 1.0, 2.5):
        mu = GaussianDensity(shift, 1.0)
        assert abs(lsi_deficit(mu).value) <= 1e-8
        probe = equality_probe(mu)
        assert probe["w2_to_best_translate"] <= 1e-4
    print("criterion 9: PASS (translates: deficit <= 1e-8, probe distance <= 1e-4)")


def test_criterion_10_isoperimetric_comparison():
    lam = math.sqrt(2.0 / math.pi)
    spec = GridSpec(-10.0, 10.0, 4097)
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    lhs = integrate(lambda x: lam * np.abs(x) * phi(x), spec, refine=True).value
    rhs = integrate(lambda x: np.ones_like(x) * phi(x), spec, refine=True).value
    np.testing.assert_allclose(lhs, 2.0 / math.pi, atol=1e-7)
    np.testing.assert_allclose(rhs, 1.0, atol=1e-7)
    assert lhs <= rhs

    test_fns = {
        "x": (
            lambda x: np.asarray(x, dtype=float),
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
        ),
        "x^2": (
            lambda x: np.asarray(x, dtype=float) ** 2,
            lambda x: 2.0 * np.asarray(x, dtype=float),
        ),
        "tanh": (
            lambda x: np.tanh(np.asarray(x, dtype=float)),
            lambda x: 1.0 / np.cosh(np.clip(np.asarray(x, dtype=float), -350.0, 350.0)) ** 2,
        ),
    }
    members = [d for _, d in standard_battery() if getattr(d, "dim", 1) == 1][:3]
    for f, f_prime in test_fns.values():
        for mu in members:
            cert = evaluate_bound("cheeger", mu, opts={"f": f, "f_prime": f_prime})
            assert cert.constants["delta_form_slack"] >= -1e-9
    print("criterion 10: PASS (2/pi <= 1 within 1e-7; gap form holds for x, x^2, tanh)")


def test_criterion_11_gap_function_properties():
    rng = np.random.default_rng(17)
    grid = np.linspace(0.0, 10.0, 10_000)

    # (a) scaling: delta(c t) >= min(c, c^2) delta(t)
    c = np.linspace(0.0, 5.0, 100)[:, None]
    t = np.linspace(0.0, 10.0, 100)[None, :]
    assert np.all(delta(c * t) >= delta_scale(c, t) - 1e-12)

    # (b) quadratic floor on the negative branch
    tn = np.linspace(-1.0 + 1e-9, 0.0, 10_000)
    assert np.all(delta(tn) >= 0.5 * tn**2 - 1e-15)

    # (c) quadratic floor on [0, a]
    for a in (0.5, 1.0, 4.0):
        ts = np.linspace(0.0, a, 10_000)
        assert np.all(delta(ts) >= delta_quadratic_floor(a) * ts**2 - 1e-12)

    # (d) two-sided linear band
    band_low = LINEAR_BAND_CONSTANT * np.minimum(grid, grid**2)
    vals = delta(grid)
    assert np.all(vals >= band_low - 1e-12)
    assert np.all(vals <= grid + 1e-12)

    # expectation form on random discrete laws
    for _ in range(50):
        xi = rng.uniform(0.0, 8.0, size=rng.integers(2, 12))
        w = rng.dirichlet(np.ones(xi.size))
        mean = float(w @ xi)
        mean_delta = float(w @ delta(xi))
        assert mean_delta >= LINEAR_BAND_CONSTANT * min(mean, mean * mean) - 1e-12
        assert mean_delta <= mean + 1e-12
    print("criterion 11: PASS (scaling, floors, linear band, expectation form)")

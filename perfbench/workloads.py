"""The benchmark's workloads: seeded inputs, one pass of ops, output checks.

Each workload builds its inputs from the seed once (set-up) and then runs
identical passes.  Every op goes through lsdeficit's public API and its
output is checked against a closed form (Gaussian inputs) or against
invariants; a ``Tally`` counts the outcomes and op latencies.

Workloads, and why each was chosen:

* ``battery-certify``: the 13 members of ``standard_battery()`` in an order
  shuffled by the seed, each with one ``Workspace`` and all 25 bounds (what
  ``lsd certify``, ``certify_suite`` and ``lsd report`` do).  Heat flow
  dominates and the 25 bounds of a member share one memo, so memo reuse is
  warm.
* ``distance-cli``: seeded 1D spec files (shifted and scaled Gaussians,
  2-3 component mixtures, quartic tilts, tabulated grids), each run through
  all ten metrics of ``lsd distance`` in process.  No heat flow runs and
  every op is cold: it parses the spec and builds a new table.
* ``grid2d-certify``: seeded correlated bivariate Gaussian grids (unequal
  variances, nonzero means), each with one ``Workspace`` and all 25 bounds.
  The 2D layers (recentering, tensorisation, 2D heat flow) dominate.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

import lsdeficit
from lsdeficit import cli, config

import oracle

_DEFAULT_RADIUS = 10.0


class Tally:
    """Op latencies and outcomes of one run.

    An op fails on an unexpected exception, a failed certificate, a nonzero
    CLI exit other than a hypothesis refusal, or a check outside its
    tolerance.  A ``HypothesisError`` refusal is counted, not failed.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.refused = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.closed_form_checks = 0
        self.errbar_violations = 0
        self.errbar_examples: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def call(self, fn, *args, **kwargs):
        """Run one op; returns (op index, result or None)."""
        op = len(self.latencies)
        if self.tracer is not None:
            self.tracer.op = op
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except lsdeficit.HypothesisError:
            result = None
            self.refused += 1
        except (Exception, SystemExit) as exc:  # any other exception fails the op
            result = None
            self.fail(op, f"{type(exc).__name__}: {exc}")
        finally:
            self.latencies.append(time.perf_counter() - start)
        return op, result

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.failures) < 20:
            self.failures.append(f"op {op}: {message}")

    def check(self, op: int, what: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.fail(op, f"{what} {detail}".strip())

    def closed_form(self, op: int, what: str, computed: float, exact: float, error: float) -> None:
        """Correctness within CHECK_TOL, and whether the error bar held."""
        self.closed_form_checks += 1
        detail = f"computed {computed!r}, exact {exact!r}, reported error {error!r}"
        self.check(op, what, oracle.within(computed, exact), detail)
        if not oracle.errbar_holds(computed, error, exact):
            self.errbar_violations += 1
            if len(self.errbar_examples) < 20:
                self.errbar_examples.append(f"{what}: {detail}")


def _certify(tally: Tally, label: str, mu, exact: dict, pins: dict) -> None:
    """All bounds on one density through one Workspace, each bound one op.

    Certificates report no error estimate, so closed-form checks on their
    sides hold them to the roundoff allowance alone.
    """
    ws = lsdeficit.Workspace()
    dim = getattr(mu, "dim", 1)
    for bound_id in lsdeficit.BOUND_IDS:
        op, cert = tally.call(lsdeficit.evaluate_bound, bound_id, mu, workspace=ws)
        if cert is None:
            continue
        what = f"{label} {bound_id}"
        tally.check(op, f"{what} certificate", cert.passed, f"slack {cert.slack!r}")
        for name, value in oracle.certificate_quantities(bound_id, cert.lhs, cert.rhs, dim).items():
            if name == "kl":
                tally.check(op, f"{what} D >= 0", value >= -oracle.CHECK_TOL, repr(value))
            elif name == "tv":
                tally.check(op, f"{what} TV <= 2", value <= 2.0 + oracle.CHECK_TOL, repr(value))
            elif name == "w2sq_upper" and exact:
                bound_ok = value >= exact["w2sq"] - oracle.CHECK_TOL * (1.0 + exact["w2sq"])
                tally.check(op, f"{what} per-coordinate W2^2 >= exact", bound_ok, repr(value))
            if name in exact:
                tally.closed_form(op, f"{what} {name}", value, exact[name], 0.0)
            if name in pins:
                tally.check(op, f"{what} pinned {name}", oracle.within(value, pins[name]), repr(value))


# Coupled 2D members of standard_battery(): correlation, unit variances, zero means.
_BATTERY_2D_RHO = {"grid2d-uncorrelated": 0.0, "grid2d-correlated": 0.5}


def _battery_exact(label: str, mu) -> dict:
    if isinstance(mu, lsdeficit.GaussianDensity):
        return oracle.gaussian_1d(mu.mean_param, mu.var_param)
    if label in _BATTERY_2D_RHO:
        return oracle.gaussian_2d((0.0, 0.0), oracle.covariance(_BATTERY_2D_RHO[label], (1.0, 1.0)))
    return {}


class BatteryCertify:
    name = "battery-certify"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.order = [int(i) for i in rng.permutation(len(lsdeficit.BATTERY_LABELS))]

    def run_pass(self, tally: Tally) -> None:
        members = lsdeficit.standard_battery()  # fresh densities: no warm caches
        for i in self.order:
            label, mu = members[i]
            _certify(tally, label, mu, _battery_exact(label, mu), oracle.PINS.get(label, {}))


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k draws in [0, 1), one from each of k equal strata, in random order,
    so that every seed covers the range evenly."""
    return (rng.permutation(k) + rng.random(k)) / k


class Grid2DCertify:
    name = "grid2d-certify"
    densities = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        k = self.densities
        # Op cost depends on the variances (a narrower grid step widens the
        # heat-flow grids), so every seed gets the same unequal variance
        # pairs, spread over [0.5, 2]; the seed orders them and draws each
        # pair's correlation and mean.
        self.params = []
        for j, u_rho in zip(rng.permutation(k), _strata(rng, k)):
            v1 = 0.5 + 1.5 * (j + 0.5) / k
            v2 = v1 * (1.5 if j % 2 else 1.0 / 1.5)
            rho = float(rng.choice((-1.0, 1.0))) * (0.1 + 0.7 * float(u_rho))
            mean = tuple(float(m) for m in rng.choice((-1.0, 1.0), 2) * rng.uniform(0.1, 1.0, 2))
            self.params.append((rho, (v1, v2), mean))

    def run_pass(self, tally: Tally) -> None:
        for rho, var, mean in self.params:
            mu = lsdeficit.bivariate_gaussian_grid(rho, var=var, mean=mean)
            exact = oracle.gaussian_2d(mean, oracle.covariance(rho, var))
            _certify(tally, f"grid2d(rho={rho:.4f})", mu, exact, {})


def _grid_spec(rng: np.random.Generator) -> dict:
    """A two-component mixture tabulated on a uniform odd-sized grid."""
    w = float(rng.uniform(0.2, 0.8))
    means = rng.uniform(-2.0, 2.0, 2)
    sds = np.sqrt(rng.uniform(0.3, 2.0, 2))
    lo = float(means.min() - 10.0 * sds.max())
    hi = float(means.max() + 10.0 * sds.max())
    x = np.linspace(lo, hi, 2049)
    z = (x[:, None] - means[None, :]) / sds[None, :]
    logs = -0.5 * z * z - np.log(sds)[None, :] + np.log([w, 1.0 - w])[None, :]
    return {"type": "grid", "x_lo": lo, "x_hi": hi, "log_p": np.logaddexp(logs[:, 0], logs[:, 1]).tolist()}


class DistanceCli:
    name = "distance-cli"
    gaussians = 16  # the closed-form checks; more of them steady errbar_held_share
    per_kind = 6
    metrics = ("kl", "w2", "w2sq", "w1", "tdelta", "fisher", "deficit", "entropy", "entropy-power", "tv")

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        specs: list[tuple[dict, dict]] = []
        for u in _strata(rng, self.gaussians):
            mean = float(rng.uniform(-1.5, 1.5))
            var = 0.25 * 16.0 ** float(u)  # log-uniform on [0.25, 4]
            specs.append(({"type": "gaussian", "mean": mean, "var": var}, oracle.gaussian_1d(mean, var)))
        for i in range(self.per_kind):
            k = 2 + i % 2
            weights = rng.dirichlet([2.0] * k)
            comps = [
                {"w": float(wi), "mean": float(rng.uniform(-2.0, 2.0)), "var": float(rng.uniform(0.3, 2.0))}
                for wi in weights
            ]
            specs.append(({"type": "mixture", "components": comps}, {}))
            coeffs = [0.0, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.1, 0.6)), 0.0, float(rng.uniform(0.02, 0.1))]
            specs.append(({"type": "tilted", "coeffs": coeffs}, {}))
            specs.append((_grid_spec(rng), {}))
        self.specs = []
        for i, (spec, exact) in enumerate(specs):
            path = workdir / f"spec{i:02d}-{spec['type']}.json"
            path.write_text(json.dumps(spec, sort_keys=True))
            self.specs.append((str(path), exact))
        self.out = str(workdir / "out.json")

    def run_pass(self, tally: Tally) -> None:
        for path, exact in self.specs:
            values: dict[str, tuple[float, float]] = {}
            ops: dict[str, int] = {}
            for metric in self.metrics:
                argv = ["distance", "--dist", path, "--metric", metric, "--out", self.out]
                Path(self.out).unlink(missing_ok=True)  # never check a stale result
                op, code = tally.call(cli.main, argv)
                self._guard_state(tally, op)
                if code == 3:
                    tally.refused += 1
                elif code is not None:
                    tally.check(op, f"{path} {metric} exit code", code == 0, repr(code))
                    if code == 0:
                        out = json.loads(Path(self.out).read_text())
                        values[metric], ops[metric] = (out["value"], out["error"]), op
                        if metric in exact:
                            tally.closed_form(op, f"{Path(path).name} {metric}", out["value"], exact[metric], out["error"])
            if len(values) == len(self.metrics):
                for rule, involved in oracle.invariant_violations(values):
                    for metric in involved:
                        tally.fail(ops[metric], f"{Path(path).name} invariant {rule}")

    @staticmethod
    def _guard_state(tally: Tally, op: int) -> None:
        """One in-process call must not change the numeric policy of the next."""
        leaked = os.environ.pop(config.ENV_GRID_POINTS, None) is not None
        if config.DEFAULT_SUPPORT_RADIUS != _DEFAULT_RADIUS:
            leaked = True
            config.DEFAULT_SUPPORT_RADIUS = _DEFAULT_RADIUS
        tally.check(op, "numeric policy leaked out of the call", not leaked)


WORKLOADS = {w.name: w for w in (BatteryCertify, DistanceCli, Grid2DCertify)}

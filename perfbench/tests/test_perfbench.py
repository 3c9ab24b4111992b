"""Tests of the benchmark itself: oracles, trace wrappers, metric names."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lsdeficit  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lsdeficit import cli, densities, functionals, transport  # noqa: E402
from lsdeficit.quadrature import GridSpec  # noqa: E402


@pytest.mark.parametrize("mean,var", [(0.3, 1.7), (-0.8, 0.4), (0.0, 4.0)])
def test_gaussian_1d_oracle_matches_library(mean, var):
    mu = lsdeficit.GaussianDensity(mean, var)
    exact = oracle.gaussian_1d(mean, var)
    computed = {
        "kl": lsdeficit.relative_entropy(mu).value,
        "fisher": lsdeficit.relative_fisher(mu).value,
        "deficit": lsdeficit.lsi_deficit(mu).value,
        "entropy": lsdeficit.shannon_entropy(mu).value,
        "entropy-power": lsdeficit.entropy_power(mu).value,
        "w2sq": lsdeficit.w2_squared(mu).value,
        "w2": lsdeficit.w2_distance(mu),
        "w1": lsdeficit.w1_distance(mu),
    }
    assert computed.keys() == exact.keys()
    for name, value in computed.items():
        assert oracle.within(value, exact[name]), (name, value, exact[name])


def test_gaussian_2d_oracle_matches_library():
    rho, var, mean = -0.4, (0.8, 1.5), (0.3, -0.2)
    mu = lsdeficit.bivariate_gaussian_grid(rho, var=var, mean=mean, n_points=129)
    exact = oracle.gaussian_2d(mean, oracle.covariance(rho, var))
    assert oracle.within(lsdeficit.relative_entropy(mu).value, exact["kl"])
    assert oracle.within(lsdeficit.relative_fisher(mu).value, exact["fisher"])
    upper = math.fsum(lsdeficit.tensorise(mu, costs=(lsdeficit.COST_SQ,)).T_parts)
    assert upper >= exact["w2sq"] - oracle.CHECK_TOL


def test_pins_agree_with_closed_forms():
    narrow, wide = oracle.gaussian_1d(0.0, 0.25), oracle.gaussian_1d(0.0, 4.0)
    for got, pins in ((narrow, oracle.PINS["gauss-narrow"]), (wide, oracle.PINS["gauss-wide"])):
        for name, pinned in pins.items():
            assert got[name] == pytest.approx(pinned, abs=1e-15)
    kl = oracle.gaussian_2d((0.0, 0.0), oracle.covariance(0.5, (1.0, 1.0)))["kl"]
    assert kl == pytest.approx(oracle.PINS["grid2d-correlated"]["kl"], abs=5e-8)


def test_invariants_accept_a_gaussian_and_flag_w1_above_w2():
    values = {k: (v, 0.0) for k, v in oracle.gaussian_1d(0.4, 2.0).items()}
    values["tv"] = (0.3, 0.0)
    values["tdelta"] = (0.5 * values["w1"][0], 0.0)
    assert oracle.invariant_violations(values) == []
    values["w1"] = (values["w2"][0] + 1e-3, 0.0)
    assert ("w1<=w2", ("w1", "w2")) in oracle.invariant_violations(values)


def _bindings():
    """Identity of every module attribute and class attribute of the package."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "lsdeficit" or name.startswith("lsdeficit."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snapshot[(name, attr, cattr)] = cvalue
    return snapshot


def test_tracer_restores_every_patched_name_even_on_error():
    from lsdeficit import bounds

    before = _bindings()
    cost, convolve = transport.transport_cost, densities.gaussian_convolve
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert bounds.transport_cost is lsdeficit.transport_cost is transport.transport_cost
            assert bounds.transport_cost.__wrapped__ is cost
            assert functionals.gaussian_convolve.__wrapped__ is convolve
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_times_never_exceed_traced_wall(tmp_path):
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps({"type": "mixture", "components": [
        {"w": 0.4, "mean": -1.0, "var": 0.5}, {"w": 0.6, "mean": 0.8, "var": 1.2}]}))
    tracer = spans.Tracer()
    start = time.perf_counter()
    with tracer:
        assert cli.main(["distance", "--dist", str(spec), "--metric", "w1", "--out", str(tmp_path / "o")]) == 0
        mu = lsdeficit.GaussianDensity(0.5, 1.5)
        ws = lsdeficit.Workspace()
        for bound_id in ("lsi", "talagrand", "pinsker"):
            lsdeficit.evaluate_bound(bound_id, mu, workspace=ws)
    wall = time.perf_counter() - start
    totals = tracer.layer_totals()
    assert {"cli.main", "specio.load", "transport.transport_cost", "bounds.evaluate_bound",
            "functionals", "quadrature.integrate", "densities.quantile", "densities.table"} <= totals.keys()
    assert all(row["self_s"] >= 0.0 for row in totals.values())
    assert sum(row["self_s"] for row in totals.values()) <= wall


def test_repeat_ratio_counts_a_second_convolution_of_the_same_density():
    tracer = spans.Tracer()
    grid = lsdeficit.GridDensity(GridSpec(-6.0, 6.0, 65), [-0.5 * x * x for x in GridSpec(-6.0, 6.0, 65).nodes()])
    with tracer:
        lsdeficit.gaussian_convolve(grid, 1.0)
        lsdeficit.gaussian_convolve(grid, 1.0)
        lsdeficit.gaussian_convolve(grid, 0.5)
    assert tracer.layer_totals()["densities.gaussian_convolve"]["calls"] == 3
    assert tracer.convolve_repeats == 1


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = workloads.Tally()
    tally.latencies = [0.001, 0.002, 0.003]
    end_to_end = run.end_to_end_metrics(tally, 1.0, 1.0)
    per_layer = run.per_layer_metrics(spans.Tracer(), 1, 1.0, 1.0)
    assert [m["name"] for m in declared["end_to_end"]] == list(end_to_end)
    assert [m["name"] for m in declared["per_layer"]] == list(per_layer)
    for entry, (_, unit) in zip(declared["end_to_end"] + declared["per_layer"],
                                list(end_to_end.values()) + list(per_layer.values())):
        assert entry["unit"] == unit
    assert [w["name"] for w in declared["workloads"]] == sorted(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(sorted(workloads.WORKLOADS))


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distance-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

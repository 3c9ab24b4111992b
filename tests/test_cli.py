"""Command line interface: outputs, exit codes, determinism."""

import decimal
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsdeficit import cli, config
from lsdeficit.bounds import BOUND_IDS, BoundCertificate
from lsdeficit.cli import _fuse_range_flag, _parse_range, main
from lsdeficit.densities import (
    GaussianDensity,
    MixtureDensity,
    ProductDensity,
    bivariate_gaussian_grid,
    standard_gaussian,
)
from lsdeficit.errors import ArgumentError
from lsdeficit.functionals import relative_entropy
from lsdeficit.specio import dumps
from lsdeficit.transport import transport_cost
from lsdeficit.values import FunctionalValue


@pytest.fixture
def spec_file(tmp_path):
    def write(name, density):
        path = tmp_path / name
        path.write_text(dumps(density))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDistance:
    """The single-functional command."""

    def test_relative_entropy_value(self, spec_file, capsys):
        path = spec_file("g4.json", GaussianDensity(0.0, 4.0))
        code, out = run_json(capsys, ["distance", "--dist", path, "--metric", "kl"])
        assert code == 0
        assert set(out) == {"metric", "value", "error"}
        np.testing.assert_allclose(out["value"], 0.8068528194400546, atol=1e-8)

    def test_quadratic_distance_at_reference(self, spec_file, capsys):
        path = spec_file("g1.json", standard_gaussian())
        code, out = run_json(capsys, ["distance", "--dist", path, "--metric", "w2"])
        assert code == 0
        assert abs(out["value"]) <= 1e-6

    def test_gap_cost_below_first_order_cost(self, spec_file, capsys):
        path = spec_file("mix.json", MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]))
        _, td = run_json(capsys, ["distance", "--dist", path, "--metric", "tdelta"])
        _, w1 = run_json(capsys, ["distance", "--dist", path, "--metric", "w1"])
        assert 0.0 < td["value"] <= w1["value"]

    @pytest.mark.parametrize("a,e", [(1.0, 0.5), (1e-20, 1.5e-20), (4.0, 1e-12), (0.0, 1e-14), (0.0, 0.0)])
    def test_w2_bar_covers_both_sides_of_the_root(self, monkeypatch, a, e):
        # W2^2 = a +- e puts W2 anywhere in [sqrt(max(a - e, 0)), sqrt(a + e)];
        # both sides are taken in 40 digits, free of the float cancellation
        monkeypatch.setattr(cli, "transport_cost", lambda mu, ref, cost: FunctionalValue("T[sq]", a, e))
        value, error = cli._metric_value("w2", None, None)
        assert value == math.sqrt(a)
        with decimal.localcontext(decimal.Context(prec=40)):
            da, de = decimal.Decimal(a), decimal.Decimal(e)
            root = da.sqrt()
            sides = (root - max(da - de, decimal.Decimal(0)).sqrt(), (da + de).sqrt() - root)
        assert all(error >= float(side) for side in sides)
        assert error <= math.sqrt(e)

    def test_entropy_power_of_reference(self, spec_file, capsys):
        path = spec_file("g1.json", standard_gaussian())
        code, out = run_json(capsys, ["distance", "--dist", path, "--metric", "entropy-power"])
        assert code == 0
        np.testing.assert_allclose(out["value"], 2.0 * math.pi * math.e, rtol=1e-8)

    def test_explicit_reference_file(self, spec_file, capsys):
        mu = spec_file("a.json", GaussianDensity(0.0, 4.0))
        ref = spec_file("b.json", GaussianDensity(0.0, 4.0))
        code, out = run_json(
            capsys, ["distance", "--dist", mu, "--metric", "kl", "--ref", ref]
        )
        assert code == 0
        assert abs(out["value"]) <= 1e-10

    def test_deficit_rejects_reference(self, spec_file, capsys):
        mu = spec_file("a.json", GaussianDensity(0.0, 4.0))
        ref = spec_file("b.json", standard_gaussian())
        code = main(["distance", "--dist", mu, "--metric", "deficit", "--ref", ref])
        assert code == 2
        assert "standard Gaussian only" in capsys.readouterr().err

    def test_out_flag_writes_file(self, spec_file, tmp_path, capsys):
        mu = spec_file("a.json", standard_gaussian())
        target = tmp_path / "result.json"
        code = main(["distance", "--dist", mu, "--metric", "entropy", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        data = json.loads(target.read_text())
        np.testing.assert_allclose(data["value"], 1.4189385332046727, atol=1e-9)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["distance", "--dist", str(tmp_path / "nope.json"), "--metric", "kl"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.json" in err and "cannot read" in err
        # a directory cannot be read either
        assert main(["distance", "--dist", str(tmp_path), "--metric", "kl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["distance", "--dist", str(bad), "--metric", "kl"])
        assert code == 2

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "grid", "x_lo": -1.0, "x_hi": 1.0, "log_p": 5},
            {"type": "grid2d", "x_lo": -1.0, "x_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0,
             "n_x": 16.5, "n_y": 16, "log_p": [0.0] * 256},
        ],
        ids=["grid-scalar-log-p", "grid2d-fractional-count"],
    )
    def test_malformed_grid_spec_is_a_parse_error(self, tmp_path, capsys, spec):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code = main(["distance", "--dist", str(bad), "--metric", "kl"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    _HUGE = int("9" * 401)  # a JSON integer past the float range

    @pytest.mark.parametrize(
        "spec,named",
        [
            ({"type": "gaussian", "mean": _HUGE, "var": 1.0}, "'mean' must be finite"),
            ({"type": "tilted", "coeffs": [0.0, 0.0, 0.25, _HUGE, 0.05]}, "coeffs[3] must be finite"),
            ({"type": "grid2d", "x_lo": -1.0, "x_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0,
              "n_x": _HUGE, "n_y": 16, "log_p": [0.0] * 256}, "'n_x' must be finite"),
        ],
        ids=["scalar-key", "array-index", "grid2d-count"],
    )
    def test_oversized_integer_is_a_parse_error(self, tmp_path, capsys, spec, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code = main(["distance", "--dist", str(bad), "--metric", "kl"])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "too large for a float" in err and "Traceback" not in err

    def test_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "gaussian", "mean": ' + "1" * 5000 + ', "var": 1}')
        code = main(["distance", "--dist", str(bad), "--metric", "kl"])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_vanishing_interior_is_a_numerical_failure(self, tmp_path, capsys):
        # log p = -x^2/2 except -800 on nodes 100-109: p underflows to 0 there
        x = np.linspace(-8.0, 8.0, 257)
        log_p = -0.5 * x * x
        log_p[100:110] = -800.0
        path = tmp_path / "vanish.json"
        path.write_text(json.dumps({"type": "grid", "x_lo": -8, "x_hi": 8, "log_p": log_p.tolist()}))
        for metric in ("fisher", "deficit"):
            assert main(["distance", "--dist", str(path), "--metric", metric]) == 4
            err = capsys.readouterr().err
            assert "density vanishes in the interior of its support (node 100)" in err
        # the entropy needs no score: it is still computed
        assert main(["distance", "--dist", str(path), "--metric", "kl"]) == 0

    def test_exact_cost_needs_tractable_shape(self, spec_file, capsys):
        mu = spec_file("g.json", bivariate_gaussian_grid(0.5, n_points=33))
        ref = spec_file("r.json", ProductDensity([GaussianDensity(1.0, 1.0), standard_gaussian()]))
        code = main(["distance", "--dist", mu, "--metric", "w2sq", "--ref", ref])
        assert code == 3
        assert "product input" in capsys.readouterr().err

    def test_exact_cost_product_reference(self, spec_file, capsys):
        # a product reference of equal dimension is summed factor by factor
        mix = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
        prod = ProductDensity([GaussianDensity(0.5, 2.0), mix])
        mu = spec_file("p.json", prod)
        for metric in ("w2sq", "w1", "tdelta"):
            argv = ["distance", "--dist", mu, "--ref", mu, "--metric", metric]
            code, out = run_json(capsys, argv)
            assert code == 0
            assert 0.0 <= out["value"] <= out["error"]
        ref = spec_file("r.json", ProductDensity([GaussianDensity(1.0, 1.0), standard_gaussian()]))
        code, out = run_json(capsys, ["distance", "--dist", mu, "--ref", ref, "--metric", "w2sq"])
        assert code == 0
        # W2^2 of N(0.5, 2) to N(1, 1), plus the mixture's cost to gamma
        want = 0.25 + (math.sqrt(2.0) - 1.0) ** 2 + transport_cost(mix).value
        np.testing.assert_allclose(out["value"], want, rtol=0, atol=1e-9)


class TestCertify:
    """Whole-registry certification of one density."""

    def test_reference_measure_all_pass(self, spec_file, capsys):
        path = spec_file("g1.json", standard_gaussian())
        code, out = run_json(capsys, ["certify", "--dist", path])
        assert code == 0
        assert out["summary"]["fail"] == 0
        assert out["summary"]["pass"] == 24
        # the optimal heat-flow time is undefined exactly at the reference
        assert out["summary"]["skip"] == 1
        assert out["skipped"][0]["bound_id"] == "thm3-t"

    def test_wide_gaussian_moment_skips(self, spec_file, capsys):
        path = spec_file("g4.json", GaussianDensity(0.0, 4.0))
        code, out = run_json(capsys, ["certify", "--dist", path])
        assert code == 0
        assert out["summary"]["fail"] == 0
        skipped_ids = {s["bound_id"] for s in out["skipped"]}
        assert {"eq1.8", "cor1.2"} <= skipped_ids

    def test_bound_subset(self, spec_file, capsys):
        path = spec_file("g4.json", GaussianDensity(0.0, 4.0))
        code, out = run_json(
            capsys, ["certify", "--dist", path, "--bounds", "lsi,talagrand"]
        )
        assert code == 0
        assert [c["bound_id"] for c in out["certificates"]] == ["lsi", "talagrand"]

    def test_bad_bound_lists(self, spec_file, capsys):
        path = spec_file("g1.json", standard_gaussian())
        assert main(["certify", "--dist", path, "--bounds", "lsi,nope"]) == 2
        assert main(["certify", "--dist", path, "--bounds", " , "]) == 2

    def test_failing_certificate_exit_code(self, spec_file, capsys, monkeypatch):
        import lsdeficit.cli as cli_mod

        def always_fail(bid, mu, tol, workspace):
            return BoundCertificate(bid, 0.0, 1.0, {}, tol)

        monkeypatch.setattr(cli_mod, "evaluate_bound", always_fail)
        path = spec_file("g1.json", standard_gaussian())
        code, out = run_json(capsys, ["certify", "--dist", path, "--bounds", "lsi"])
        assert code == 1
        assert out["summary"]["fail"] == 1

    def test_determinism(self, spec_file, capsys):
        path = spec_file("g4.json", GaussianDensity(0.0, 4.0))
        argv = ["certify", "--dist", path, "--bounds", "lsi,thm1.1-a,pinsker"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestSweep:
    """One-parameter family tables."""

    def test_sigma_sweep_json(self, capsys):
        code, out = run_json(
            capsys,
            ["sweep", "--family", "gaussian-sigma", "--range", "0.9:1.1:0.1",
             "--format", "json"],
        )
        assert code == 0
        assert out["parameter"] == "sigma"
        assert out["values"] == [0.9, 1.0, 1.1]
        assert all(d >= -1e-9 for d in out["columns"]["deficit"])
        assert len(out["columns"]["slack_lsi"]) == 3

    def test_shift_sweep_with_negative_range(self, capsys):
        code, out = run_json(
            capsys,
            ["sweep", "--family", "gaussian-shift", "--range", "-1:1:0.5",
             "--format", "json"],
        )
        assert code == 0
        assert out["values"] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        np.testing.assert_allclose(out["columns"]["deficit"], 0.0, atol=1e-8)

    def test_csv_layout(self, capsys):
        code = main(["sweep", "--family", "mixture-gap", "--range", "0:2:1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["gap", "deficit", "w2sq", "tdelta_sq_over_d", "w1_4_over_d"]
        assert header[5:] == [f"slack_{bid}" for bid in BOUND_IDS]
        assert len(lines) == 4
        # mixtures carry no convexity certificate: that slack column is empty
        idx = header.index("slack_thm4.2")
        assert lines[1].split(",")[idx] == ""

    def test_range_validation(self, capsys):
        bad = ["1:0:0.5", "0:1:0", "a:b:c", "1:2", "0:1:-0.25"]
        for raw in bad:
            assert main(["sweep", "--family", "gaussian-sigma", "--range", raw]) == 2

    def test_merged_range_exits_before_any_density(self, capsys, monkeypatch):
        def refuse(family, value):
            raise AssertionError("built a density for a refused range")

        monkeypatch.setattr(cli, "_family_density", refuse)
        argv = ["sweep", "--family", "gaussian-shift", "--range", "0:1e-10:1e-11"]
        assert main(argv) == 2
        assert "merges values" in capsys.readouterr().err

    def test_family_validation(self, capsys):
        # sigma must stay positive
        assert main(["sweep", "--family", "gaussian-sigma", "--range", "0:1:0.5"]) == 2

    def test_determinism(self, capsys):
        argv = ["sweep", "--family", "gaussian-sigma", "--range", "0.95:1.05:0.05",
                "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_parse_range_grid(self):
        assert _parse_range("0.99:1.01:0.004") == [0.99, 0.994, 0.998, 1.002, 1.006, 1.01]
        assert _parse_range("1:1:1") == [1.0]
        with pytest.raises(ArgumentError, match="more than 10000 values"):
            _parse_range("0:2:1e-6")

    def test_fuse_range_flag(self):
        assert _fuse_range_flag(["--range", "-2:2:1"]) == ["--range=-2:2:1"]
        assert _fuse_range_flag(["--range", "0:1:1"]) == ["--range", "0:1:1"]
        assert _fuse_range_flag(["--range"]) == ["--range"]


class TestReport:
    """Battery summaries."""

    def test_custom_battery(self, spec_file, capsys):
        a = spec_file("narrow.json", GaussianDensity(0.0, 0.25))
        b = spec_file("mix.json", MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]))
        code, out = run_json(capsys, ["report", "--density", a, b])
        assert code == 0
        assert out["members"] == ["narrow.json", "mix.json"]
        assert out["counts"]["fail"] == 0
        assert set(out["per_bound"]) == set(BOUND_IDS)
        row = out["per_bound"]["lsi"]
        assert row["pass"] == 2 and row["worst_slack"] >= -1e-6

    def test_empty_member_list_uses_default(self, spec_file, capsys):
        # an explicitly empty override is an empty battery, not the default
        code, out = run_json(capsys, ["report", "--density"])
        assert code == 0
        assert out["members"] == []
        assert out["counts"] == {"pass": 0, "fail": 0, "skip": 0}

    def test_corrupted_member_named(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"type": "gaussian"}')
        code = main(["report", "--density", str(bad)])
        assert code == 2
        assert "broken.json" in capsys.readouterr().err
        assert main(["report", "--density", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "battery member" in err and "missing.json" in err and "cannot read" in err


class TestParser:
    """One argparse tree serves every call in a process."""

    def test_two_calls_build_the_tree_once(self, spec_file, capsys):
        path = spec_file("g.json", GaussianDensity(0.5, 2.0))
        argv = ["distance", "--dist", path, "--metric", "w2sq"]
        cli._build_parser.cache_clear()
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert cli._build_parser.cache_info().misses == 1
        assert outs[0] == outs[1]


class TestNumericFlags:
    """Shared numeric flags and their validation."""

    @pytest.mark.parametrize("command", [
        ["sweep", "--family", "gaussian-sigma", "--range", "1:1:1", "--format", "json"],
        ["report", "--density"],
    ], ids=["sweep", "report"])
    def test_flags_apply_to_one_call_only(self, command, spec_file, capsys, monkeypatch):
        monkeypatch.delenv(config.ENV_GRID_POINTS, raising=False)
        fresh = relative_entropy(GaussianDensity(0.0, 4.0))
        if command[0] == "report":
            command = command + [spec_file("g.json", GaussianDensity(0.0, 4.0))]
        code, out = run_json(
            capsys, command + ["--grid-points", "1024", "--support-radius", "8"]
        )
        assert code == 0
        assert out["metadata"]["grid_points"] == 1024
        assert out["metadata"]["support_radius"] == 8.0
        assert config.ENV_GRID_POINTS not in os.environ
        assert relative_entropy(GaussianDensity(0.0, 4.0)) == fresh

    def test_grid_points_env_read_at_call_time(self, monkeypatch):
        monkeypatch.setenv(config.ENV_GRID_POINTS, "1024")
        assert config.default_grid_points() == 1024
        monkeypatch.setenv(config.ENV_GRID_POINTS, "2048")
        assert GaussianDensity(0.0, 1.0).eval_spec().n_points == 2048

    def test_grid_points_minimum(self, spec_file, capsys):
        path = spec_file("g.json", standard_gaussian())
        assert main(["distance", "--dist", path, "--metric", "kl", "--grid-points", "8"]) == 2

    def test_support_radius_validation(self, spec_file, capsys):
        path = spec_file("g.json", standard_gaussian())
        assert main(["distance", "--dist", path, "--metric", "kl",
                     "--support-radius", "-1"]) == 2

    def test_infinite_support_radius_refused(self, spec_file, capsys):
        path = spec_file("g.json", standard_gaussian())
        assert main(["distance", "--dist", path, "--metric", "kl", "--support-radius", "inf"]) == 2
        assert capsys.readouterr().err == "error: support radius must be positive and finite, got inf\n"

    def test_tol_validation(self, spec_file, capsys):
        path = spec_file("g.json", standard_gaussian())
        assert main(["certify", "--dist", path, "--tol", "-0.5"]) == 2


def test_corpus_unchanged_by_an_earlier_call(tmp_path):
    """The whole ``cli_corpus`` listing, run twice in one process with a
    flagged ``lsd certify`` between the passes, reads the same: one call
    leaves nothing behind that changes the next."""
    probe = (
        "import sys, cli_corpus\n"
        "from lsdeficit import cli\n"
        "first = cli_corpus.listing(sys.argv[1])\n"
        "cli.main(['certify', '--dist', sys.argv[1] + '/tilted.json', '--grid-points', '1025',\n"
        "          '--support-radius', '8', '--out', sys.argv[3]])\n"
        "print('\\n'.join(first + ['--'] + cli_corpus.listing(sys.argv[2])))\n"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(tests)])
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "c")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    ).stdout
    first, second = out.split("--\n")
    assert len(first.splitlines()) == 86
    assert first == second

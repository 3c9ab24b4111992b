"""JSON wire format for density specifications.

A density file is a single JSON object selected by its "type" key:

    {"type": "gaussian", "mean": 0, "var": 4}
    {"type": "mixture", "components": [{"w": 0.5, "mean": -1, "var": 1}, ...]}
    {"type": "grid", "x_lo": -8, "x_hi": 8, "log_p": [...], "eps": 0.5}
    {"type": "tilted", "coeffs": [0, 0, 0.25, 0, 0.05], "eps": 0.5}
    {"type": "product", "factors": [<1D spec>, <1D spec>, ...]}
    {"type": "grid2d", "x_lo": .., "x_hi": .., "y_lo": .., "y_hi": ..,
     "n_x": .., "n_y": .., "log_p": [...row-major...]}

All numbers are plain JSON decimals.  The 2D "log_p" is row-major (rows
indexed by the first coordinate); a nested list of rows is accepted on
input, the flat form with explicit "n_x"/"n_y" is canonical on output.
"eps" is the optional convexity floor of the potential: the density's
constructor refuses it unless it is positive and finite, and keeps it only
where it proves it.  This module checks the JSON alone (types, keys,
counts, the 2D reshape); every refusal, its own or a constructor's, raises
SpecParseError with the offending key path in the message.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .densities import (
    Density,
    GaussianDensity,
    Grid2DDensity,
    GridDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
)
from .errors import ArgumentError, SpecParseError
from .quadrature import GridSpec


_TOO_LARGE = "an integer too large for a float"


def _number(obj: dict, key: str, ctx: str) -> float:
    if key not in obj:
        raise SpecParseError(f"{ctx}: missing required key {key!r}")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SpecParseError(f"{ctx}: {key!r} must be a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:
        raise SpecParseError(f"{ctx}: {key!r} must be finite, got {_TOO_LARGE}") from None
    if not np.isfinite(val):
        raise SpecParseError(f"{ctx}: {key!r} must be finite, got {val!r}")
    return val


def _count(obj: dict, key: str, ctx: str) -> int:
    val = _number(obj, key, ctx)
    if val != int(val) or val < 1:
        raise SpecParseError(f"{ctx}: {key!r} must be a positive integer, got {obj[key]!r}")
    return int(val)


def _number_array(obj: dict, key: str, ctx: str) -> np.ndarray:
    if key not in obj:
        raise SpecParseError(f"{ctx}: missing required key {key!r}")
    val = obj[key]
    if not isinstance(val, list) or not val:
        raise SpecParseError(f"{ctx}: {key!r} must be a non-empty array")
    # one C-speed type check; the items are walked only to name a bad one
    if not set(map(type, val)) <= {int, float}:
        for i, item in enumerate(val):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise SpecParseError(f"{ctx}: {key}[{i}] must be a number, got {item!r}")
    try:
        arr = np.asarray(val, dtype=float)
    except OverflowError:
        for i, item in enumerate(val):
            try:
                float(item)
            except OverflowError:
                raise SpecParseError(f"{ctx}: {key}[{i}] must be finite, got {_TOO_LARGE}") from None
        raise
    if not np.all(np.isfinite(arr)):
        raise SpecParseError(f"{ctx}: {key!r} must contain only finite numbers")
    return arr


def _check_keys(obj: dict, allowed: set[str], ctx: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise SpecParseError(f"{ctx}: unknown keys {sorted(extra)}")


def _optional_eps(obj: dict, ctx: str) -> float | None:
    return _number(obj, "eps", ctx) if "eps" in obj else None


def parse_density(obj: Any, ctx: str = "density spec") -> Density:
    """Build a density from its parsed-JSON object form."""
    if not isinstance(obj, dict):
        raise SpecParseError(f"{ctx}: expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if not isinstance(kind, str):
        raise SpecParseError(f"{ctx}: missing or non-string 'type'")
    try:
        if kind == "gaussian":
            _check_keys(obj, {"type", "mean", "var"}, ctx)
            return GaussianDensity(_number(obj, "mean", ctx), _number(obj, "var", ctx))
        if kind == "mixture":
            _check_keys(obj, {"type", "components", "eps"}, ctx)
            comps = obj.get("components")
            if not isinstance(comps, list) or not comps:
                raise SpecParseError(f"{ctx}: 'components' must be a non-empty array")
            triples = []
            for i, c in enumerate(comps):
                cctx = f"{ctx}: components[{i}]"
                if not isinstance(c, dict):
                    raise SpecParseError(f"{cctx} must be an object")
                _check_keys(c, {"w", "mean", "var"}, cctx)
                triples.append(
                    (_number(c, "w", cctx), _number(c, "mean", cctx), _number(c, "var", cctx))
                )
            return MixtureDensity(triples, convexity_lower_bound=_optional_eps(obj, ctx))
        if kind == "grid":
            _check_keys(obj, {"type", "x_lo", "x_hi", "log_p", "eps"}, ctx)
            x_lo, x_hi = _number(obj, "x_lo", ctx), _number(obj, "x_hi", ctx)
            log_p = _number_array(obj, "log_p", ctx)
            spec = GridSpec(x_lo, x_hi, log_p.size)
            return GridDensity(spec, log_p, convexity_lower_bound=_optional_eps(obj, ctx))
        if kind == "tilted":
            _check_keys(obj, {"type", "coeffs", "eps"}, ctx)
            coeffs = _number_array(obj, "coeffs", ctx)
            return TiltedDensity(coeffs, convexity_lower_bound=_optional_eps(obj, ctx))
        if kind == "product":
            _check_keys(obj, {"type", "factors"}, ctx)
            factors = obj.get("factors")
            if not isinstance(factors, list):
                raise SpecParseError(f"{ctx}: 'factors' must be an array")
            return ProductDensity(
                [parse_density(f, f"{ctx}: factors[{i}]") for i, f in enumerate(factors)]
            )
        if kind == "grid2d":
            _check_keys(
                obj,
                {"type", "x_lo", "x_hi", "y_lo", "y_hi", "n_x", "n_y", "log_p", "eps"},
                ctx,
            )
            raw = obj.get("log_p")
            if isinstance(raw, list) and raw and isinstance(raw[0], list):
                rows = [_number_array({"row": r}, "row", f"{ctx}: log_p[{i}]") for i, r in enumerate(raw)]
                try:
                    log_p = np.stack(rows)
                except ValueError:
                    raise SpecParseError(f"{ctx}: log_p rows have unequal lengths") from None
            else:
                flat = _number_array(obj, "log_p", ctx)
                n_x, n_y = _count(obj, "n_x", ctx), _count(obj, "n_y", ctx)
                if n_x * n_y != flat.size:
                    raise SpecParseError(
                        f"{ctx}: log_p has {flat.size} entries, expected n_x*n_y = {n_x * n_y}"
                    )
                log_p = flat.reshape(n_x, n_y)
            spec_x = GridSpec(_number(obj, "x_lo", ctx), _number(obj, "x_hi", ctx), log_p.shape[0])
            spec_y = GridSpec(_number(obj, "y_lo", ctx), _number(obj, "y_hi", ctx), log_p.shape[1])
            # log_p is this parse's own array: the grid normalises it in place
            return Grid2DDensity._owning(spec_x, spec_y, log_p, _optional_eps(obj, ctx))
    except SpecParseError:
        raise
    except ArgumentError as exc:  # constructor-level validation
        raise SpecParseError(f"{ctx}: {exc}") from exc
    raise SpecParseError(f"{ctx}: unknown density type {kind!r}")


def density_to_spec(density: Density) -> dict:
    """Inverse of parse_density, up to float round trip."""
    if isinstance(density, GaussianDensity):
        return {"type": "gaussian", "mean": density.mean(), "var": density.variance()}
    if isinstance(density, MixtureDensity):
        out: dict = {
            "type": "mixture",
            "components": [
                {"w": w, "mean": m, "var": v} for (w, m, v) in density.components
            ],
        }
    elif isinstance(density, TiltedDensity):
        out = {"type": "tilted", "coeffs": list(density.potential_coeffs)}
    elif isinstance(density, GridDensity):
        out = {
            "type": "grid",
            "x_lo": density.spec.x_lo,
            "x_hi": density.spec.x_hi,
            "log_p": density.log_values.tolist(),
        }
    elif isinstance(density, ProductDensity):
        return {"type": "product", "factors": [density_to_spec(f) for f in density.factors]}
    elif isinstance(density, Grid2DDensity):
        out = {
            "type": "grid2d",
            "x_lo": density.spec_x.x_lo,
            "x_hi": density.spec_x.x_hi,
            "y_lo": density.spec_y.x_lo,
            "y_hi": density.spec_y.x_hi,
            "n_x": density.spec_x.n_points,
            "n_y": density.spec_y.n_points,
            "log_p": density.log_values.ravel().tolist(),
        }
    else:
        raise ArgumentError(f"cannot serialize {type(density).__name__}")
    eps = density.convexity_lower_bound
    if eps is not None:
        out["eps"] = eps
    return out


def loads(text: str, ctx: str = "density spec") -> Density:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise SpecParseError(f"{ctx}: invalid JSON ({exc})") from exc
    return parse_density(obj, ctx)


def load(path) -> Density:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return loads(text, ctx=str(path))


def dumps(density: Density) -> str:
    return json.dumps(density_to_spec(density), sort_keys=True)

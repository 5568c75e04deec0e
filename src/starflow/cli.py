"""Command line front end: flow runs, verification suites, parameter sweeps.

One JSON config per run keeps every invocation reproducible; `--set
key=value` applies dotted-path overrides after parsing. `main` loads the
config and checks its values once for every command, and is the one
place that turns an exception into an exit code: 0 success, 2 config or
precondition error or an output path that cannot be written, 3
numerical failure (`run` still exports the last valid state), 4
verification tolerance violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from itertools import count, islice
from math import comb

import numpy as np

from . import flow as flowmod
from . import geometry as geom
from . import verify as vfy
from . import symfunc as sfc

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_TOLERANCE = 4


class ConfigError(Exception):
    def __init__(self, key: str, message: str):
        super().__init__(f"config error at {key}: {message}")
        self.key = key


# ---------------------------------------------------------------------------
# config handling

_INT, _NUM, _STR, _DICT = "int", "num", "str", "dict"
_INT_OR_NULL = "int or null"
_LIST_OF = "list of "  # prefix of a list kind; the rest is the kind of every entry

_SCHEMA = {
    "problem": {"n": _INT, "k": _INT, "mode": _STR},
    "shape": {"type": _STR, "params": _DICT, "seed": _INT_OR_NULL},
    "grid": {"N": _INT},
    "stepping": {
        "t_max": _NUM, "dt_init": _NUM, "dt_max": _NUM,
        "cfl_coefficient": _NUM, "sample_every": _INT,
    },
    "tolerances": {"tol_conserve": _NUM, "tol_round": _NUM},
    "output": {"trajectory_path": _STR, "snapshot_every": _INT, "snapshot_dir": _STR},
    "verify": {
        "report_path": _STR, "samples": _INT, "seed": _INT, "grid_N": _INT,
        "tolerance_overrides": _DICT,
    },
    "sweep": {
        "shapes": _LIST_OF + _DICT, "k_values": _LIST_OF + _INT, "seeds": _LIST_OF + _INT_OR_NULL,
        "index_path": _STR, "trajectory_dir": _STR,
    },
}

# FlowConfig field -> the config key it is read from: every key of these three
# sections names a FlowConfig field; FlowConfig's own defaults apply to every
# key the config leaves out
_FLOW_KEYS = {leaf: f"{section}.{leaf}"
              for section in ("problem", "stepping", "tolerances") for leaf in _SCHEMA[section]}

# ShapeError.field -> config key; a sweep entry's type or params fault is the entry's
_SHAPE_KEYS = {"type": "shape.type", "params": "shape.params", "seed": "shape.seed",
               "num": "grid.N"}
_SWEEP_SHAPE_KEYS = {"type": "sweep.shapes", "params": "sweep.shapes", "seed": "sweep.seeds",
                     "num": "grid.N"}

_FLOW_REQUIRED = (
    ("problem", ("n", "k", "mode")),
    ("shape", ("type", "params")),
    ("grid", ("N",)),
    ("stepping", ("t_max",)),
)
_RUN_REQUIRED = _FLOW_REQUIRED + (("output", ("trajectory_path",)),)
_AF_REQUIRED = (("problem", ("n", "k")), ("shape", ("type", "params")), ("grid", ("N",)))
# a sweep reads its shapes from sweep.shapes and its degrees from sweep.k_values
_SWEEP_REQUIRED = (
    ("problem", ("n", "mode")),
    ("grid", ("N",)),
    ("stepping", ("t_max",)),
    ("sweep", ("shapes", "k_values", "index_path")),
)


def _type_ok(kind: str, value) -> bool:
    if isinstance(value, bool):
        return False
    if kind == _INT:
        return isinstance(value, int)
    if kind == _INT_OR_NULL:
        return value is None or isinstance(value, int)
    if kind == _NUM:
        return isinstance(value, (int, float))
    if kind == _STR:
        return isinstance(value, str)
    if kind == _DICT:
        return isinstance(value, dict)
    if kind.startswith(_LIST_OF):
        return isinstance(value, list) and all(_type_ok(kind[len(_LIST_OF):], v) for v in value)
    return False


def validate_config(cfg: dict) -> None:
    """Structural validation: unknown keys anywhere are an error."""
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config document must be a JSON object")
    for section, body in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError(section, "unknown section")
        if not isinstance(body, dict):
            raise ConfigError(section, "section must be an object")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
            kind = _SCHEMA[section][key]
            if not _type_ok(kind, value):
                raise ConfigError(f"{section}.{key}", f"expected {kind}, got {value!r}")


def parse_config(text: str) -> dict:
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from None
    validate_config(cfg)
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None


def apply_overrides(cfg: dict, assignments) -> dict:
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError("--set", f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-object")
        node[parts[-1]] = value
    validate_config(cfg)
    return cfg


def _require(cfg: dict, spec) -> None:
    for section, keys in spec:
        if section not in cfg:
            raise ConfigError(section, "missing required section")
        for key in keys:
            if key not in cfg[section]:
                raise ConfigError(f"{section}.{key}", "missing required key")


def flow_config_from(cfg: dict) -> flowmod.FlowConfig:
    """The FlowConfig a config describes; a value FlowConfig rejects is a
    ConfigError at its key. FlowConfig keeps the float of every number key."""
    kwargs = {}
    for field, key in _FLOW_KEYS.items():
        section, leaf = key.split(".")
        if leaf in cfg.get(section, {}):
            kwargs[field] = cfg[section][leaf]
    try:
        return flowmod.FlowConfig(**kwargs)
    except flowmod.FlowConfigError as exc:
        raise ConfigError(_FLOW_KEYS[exc.field], str(exc)) from None


def _make_shape(spec: dict, n: int, num: int, keys: dict = _SHAPE_KEYS) -> geom.RadialGraph:
    """geometry.make_shape; a ShapeError is a ConfigError at the key `keys` maps its field to."""
    try:
        return geom.make_shape(spec, n, num)
    except geom.ShapeError as exc:
        raise ConfigError(keys[exc.field], f"{spec!r}: {exc}") from None


def _flow_and_shape(cfg: dict, required=_FLOW_REQUIRED) -> tuple:
    """(FlowConfig, initial RadialGraph) of a config that has every `required` key."""
    _require(cfg, required)
    fc = flow_config_from(cfg)
    return fc, _make_shape(cfg["shape"], fc.n, cfg["grid"]["N"])


def _say(quiet: bool, *args) -> None:
    if not quiet:
        print(*args)


# ---------------------------------------------------------------------------
# run


def cmd_run(cfg: dict, args) -> int:
    fc, initial = _flow_and_shape(cfg, _RUN_REQUIRED)
    out = cfg["output"]
    traj_path = out["trajectory_path"]
    snap_every = out.get("snapshot_every", 0)
    snap_dir = out.get("snapshot_dir", os.path.dirname(traj_path))
    samples = count()

    def observer(state):
        i = next(samples)
        if i % snap_every == 0:
            geom.export_snapshot(state.geo, fc.k, os.path.join(snap_dir, f"snapshot_{i:05d}.csv"))

    try:
        record = flowmod.run(fc, initial, observer=observer if snap_every > 0 else None)
    except flowmod.FlowError as exc:
        exc.record.to_csv(traj_path)
        if snap_every > 0:
            geom.export_snapshot(exc.state.geo, fc.k, os.path.join(snap_dir, "snapshot_last.csv"))
        print(f"partial trajectory in {traj_path}", file=sys.stderr)
        raise
    record.to_csv(traj_path)
    mono = flowmod.monotone_pair(fc.n, fc.k)[0]
    _say(args.quiet,
         f"run complete: t={record.column('t')[-1]:.6g} "
         f"I{mono}={record.column(f'I{mono}')[-1]:.9f} "
         f"roundness={record.column('roundness_rescaled')[-1]:.3e} "
         f"steps={record.final_state.accepted} rejected={record.final_state.rejections} "
         f"stop={record.stop_reason}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _tol(ov: dict, name: str, default: float) -> float:
    for key in (name, name.split("/")[0]):
        if key in ov:
            return float(ov[key])
    return default


def _override_tolerances(reports, ov: dict) -> list:
    """Reports with each tolerance taken from `ov` (the full check name
    first, then the part before the first '/') and pass re-judged: the one
    place a report's tolerance changes from the one its check judged it by."""
    out = []
    for rep in reports:
        tol = _tol(ov, rep.name, rep.tolerance)
        out.append(replace(rep, tolerance=tol, passed=bool(rep.rel_residual <= tol)))
    return out


def _verify_keys(cfg: dict) -> tuple:
    """(verify.seed, verify.samples, verify.grid_N) with defaults."""
    vcfg = cfg.get("verify", {})
    return vcfg.get("seed", 20260808), vcfg.get("samples", 100_000), vcfg.get("grid_N", 512)


def _check_values(cfg: dict) -> None:
    """Range checks of the keys that no FlowConfig checks, made once before
    any command runs, so that a value is accepted or not whatever command
    reads it; a value outside its range is a ConfigError at its key.
    suite_geometry builds grids down to grid_N/4, which must keep geometry's interval rule,
    and its Minkowski checks pass at their 1e-6 only from grid_N = 128 (the ellipse's reads
    1.4e-6 at 120 and 9.9e-7 at 128)."""
    vcfg = cfg.get("verify", {})
    seed, samples, num = _verify_keys(cfg)
    least = 8 * geom.MIN_NODES
    for key, bad, need in (("seed", seed < 0, ">= 0"), ("samples", samples < 1, ">= 1"),
                           ("grid_N", num < least or num % 8, f"a multiple of 8 and >= {least}")):
        if bad:
            raise ConfigError(f"verify.{key}", f"must be {need}, got {vcfg[key]!r}")
    for name, tol in vcfg.get("tolerance_overrides", {}).items():
        try:
            sfc._real(tol, "tolerance", 0.0, strict=False)
        except ValueError as exc:
            raise ConfigError(f"verify.tolerance_overrides.{name}", str(exc)) from None
    snap_every = cfg.get("output", {}).get("snapshot_every", 0)
    if snap_every < 0:
        raise ConfigError("output.snapshot_every", f"must be >= 0, got {snap_every!r}")


# rows per block of the symfunc samples; the suite's memory is bounded by it, not by verify.samples
_SYMFUNC_BLOCK = 4096


def _block_sizes(per: int):
    """Row counts of the blocks `per` samples are drawn in, in order."""
    return (min(_SYMFUNC_BLOCK, per - start) for start in range(0, per, _SYMFUNC_BLOCK))


def _symfunc_worst(rng, n: int, per: int) -> tuple:
    """(worst Euler residual, worst polarization residual, least Newton gap,
    least MacLaurin power gap) over `per` random vectors of dimension n.

    The vectors are drawn and checked in blocks of `_SYMFUNC_BLOCK` rows: the
    uniform ones first, then the normal ones, so that the generator yields the
    values of one (per, n) draw of each, and each worst value is the max or
    min over the blocks. The samples are column-major, so every row sum is
    n - 1 contiguous column adds."""
    euler = polar = 0.0
    newton = maclaurin = np.inf
    for size in _block_sizes(per):
        lam = np.asfortranarray(rng.uniform(-2.0, 2.0, size=(size, n)))
        abs_lam = np.abs(lam)
        sig = sfc.elem_sym_table(lam)
        grads = sfc._gradient_tables(lam)
        for m in range(1, n + 1):
            lam_grad = lam * grads[m - 1].T  # the Euler products, read by both identities
            abs_lam_grad = np.abs(lam_grad)
            rhs = m * sig[:, m]
            scale = np.add.reduce(abs_lam_grad, axis=1) + np.abs(rhs) + 1e-30
            resid = np.abs(np.add.reduce(lam_grad, axis=1) - rhs) / scale
            euler = max(euler, float(np.maximum.reduce(resid)))
            pol = sfc.polarized_sigma_square_table(lam, lam_grad)
            tail = (m + 1) * sig[:, m + 1] if m + 1 <= n else 0.0
            ref = sig[:, 1] * sig[:, m] - tail
            # sum_i |grad_i lam_i^2|, from the absolute Euler products
            pscale = sfc.polarized_sigma_square_table(abs_lam, abs_lam_grad) + np.abs(ref) + 1e-30
            polar = max(polar, float(np.maximum.reduce(np.abs(pol - ref) / pscale)))
        # a row with sigma_k near 0 has no defined Newton ratio: the gap is taken
        # on the whole table and such rows are masked out of its minimum
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(1, n):
                gap = sfc.newton_gap_table(sig, k)
                ok = np.abs(sig[:, k]) > 1e-8
                newton = min(newton, float(np.minimum.reduce(gap, where=ok, initial=np.inf)))
    for size in _block_sizes(per):
        pos = np.abs(rng.normal(size=(size, n))) + 0.05
        pos /= np.maximum.reduce(pos, axis=1, keepdims=True)  # scale-normalize the gap
        psig = sfc.elem_sym_table(pos)
        for k in range(1, n):
            gap = sfc.maclaurin_power_gap_table(psig, k)
            maclaurin = min(maclaurin, float(np.minimum.reduce(gap)))
    return euler, polar, newton, maclaurin


def suite_symfunc(cfg: dict) -> list:
    seed, samples, _ = _verify_keys(cfg)
    rng = np.random.default_rng(seed)
    dims = (2, 3, 4, 5, 6)
    per = max(1, samples // len(dims))
    binom_err = 0.0
    for n in range(1, 9):
        sig = sfc.elem_sym_all(np.ones(n))
        for k in range(n + 1):
            binom_err = max(binom_err, abs(sig[k] - comb(n, k)) / comb(n, k))
    euler, polar, newton, maclaurin = zip(*(_symfunc_worst(rng, n, per) for n in dims))
    grid = f"samples={per * len(dims)}"
    gaps = {
        "binomial_at_ones": binom_err,
        "euler_identity": max(0.0, *euler),
        "polarization_identity": max(0.0, *polar),
        "newton_gap": max(0.0, -min(np.inf, *newton)),
        "maclaurin_power_gap": max(0.0, -min(np.inf, *maclaurin)),
    }
    return [vfy._report(f"symfunc/{name}", 0.0, 0.0, gap, gap, grid, 1e-12)
            for name, gap in gaps.items()]


def _battery_shapes(num: int):
    return [
        ("sphere_n1", geom.sphere(1.3, 1, num)),
        ("ellipse", geom.ellipse(2.0, 1.0, num)),
        ("perturbed_n1", geom.perturbed_sphere(1.0, 0.25, mode=3, dim=1, num=num)),
        ("sphere_n2", geom.sphere(0.8, 2, num)),
        ("ellipsoid", geom.ellipsoid_of_revolution(1.5, 1.0, num)),
        ("perturbed_n2", geom.perturbed_sphere(1.0, 0.2, mode=3, dim=2, num=num)),
    ]


def suite_geometry(cfg: dict) -> list:
    _, _, num = _verify_keys(cfg)
    reports = []
    for label, g in _battery_shapes(num):
        geo = geom.compute_geometry(g)
        worst = 0.0
        at = (0.0, 0.0)
        for m in range(1, g.dim + 1):
            a = geom.quermass_sigma(geo, m)
            b = geom.quermass_minkowski(geo, m)
            rel = abs(a - b) / abs(a)
            if rel > worst:
                worst, at = rel, (a, b)
        reports.append(vfy._report(f"geometry/minkowski_{label}", at[0], at[1],
                                   abs(at[0] - at[1]), worst, f"N={num}", 1e-6))
    for n, ks in ((1, (0,)), (2, (0, 1))):
        g = geom.sphere(1.0, n, 512)
        geo = geom.compute_geometry(g)
        for k in ks:
            a = geom.iso_ratio(geo, k)
            b = geom.iso_ratio_ball(n, k)
            reports.append(vfy._report(f"geometry/ball_ratio_n{n}k{k}", a, b,
                                       abs(a - b), abs(a - b) / b, "N=512", 1e-10))
    # convergence orders: the error ratio must reach min_ratio, so the
    # residual is the shortfall (NaN stays NaN and fails) against tolerance 0;
    # the pairs come from at most N = 512, as finer grids read the sixth-order
    # stencil's roundoff floor instead of its order
    base = min(num, 512)
    orders = []
    errs = []
    for nn in (base, 2 * base):
        g = geom.ellipse(2.0, 1.0, nn)
        geo = geom.compute_geometry(g)
        kap = vfy._curve_geometry(geom.embed(g)).kappa
        errs.append(float(np.max(np.abs(geo.kappa[:, 0] - kap))))
    orders.append(("geometry/curvature_consistency_dim1", errs, 12.0, f"N={base}->{2 * base}"))
    errs = []
    for nn in (base // 4, base // 2):
        g = geom.ellipsoid_of_revolution(1.5, 1.0, nn)
        geo = geom.compute_geometry(g)
        mg = vfy._meridian_geometry(geom.embed(g))
        errs.append(float(np.max(np.abs(geo.kappa[1:-1] - mg.kappa[1:-1]))))
    orders.append(("geometry/curvature_oracle_dim2", errs, 12.0, f"N={base // 4}->{base // 2}"))
    fine = geom.quermass_sigma(geom.compute_geometry(geom.ellipse(2.0, 1.0, 8 * base)), 1)
    verrs = [abs(geom.quermass_sigma(geom.compute_geometry(geom.ellipse(2.0, 1.0, nn)), 1) - fine)
             for nn in (base // 4, base // 2)]
    orders.append(("geometry/refinement_order", verrs, 12.0, f"N={base // 4}->{base // 2}"))
    for name, (err_coarse, err_fine), min_ratio, grid in orders:
        short = max(min_ratio - err_coarse / max(err_fine, 1e-300), 0.0)
        reports.append(vfy._report(name, err_coarse, err_fine, short, short, grid, 0.0))
    return reports


def suite_prop1(cfg: dict) -> list:
    circle = vfy.curve_from_radial(geom.sphere(1.0, 1, 128))
    reports = [replace(rep, name=rep.name + "_circle")
               for rep in vfy.check_prop1_pointwise(circle, 1, 7e-5, tol=1e-8)]
    coarse = vfy.check_prop1_pointwise(vfy.curve_from_radial(geom.ellipse(2.0, 1.0, 128)), 1, 4e-4)
    fine = vfy.check_prop1_pointwise(vfy.curve_from_radial(geom.ellipse(2.0, 1.0, 256)), 1, 2e-4)
    for rc, rf in zip(coarse, fine):
        # Richardson: halving M and dt together divides the O(dt^2) error by 4
        ratio = rc.rel_residual / rf.rel_residual if rf.rel_residual > 0 else float("inf")
        dev = abs(ratio - 4.0)
        reports.append(vfy._report(rc.name + "_richardson", rc.rel_residual, rf.rel_residual,
                                   dev, dev, "M=128->256,dt=4e-4->2e-4", 0.5))
    sph = geom.sphere(1.0, 2, 256)
    reports.extend(replace(rep, name=rep.name + "_sphere")
                   for rep in vfy.check_prop1_axisym(sph, 1, 1e-5, tol=1e-3))
    ell = geom.ellipsoid_of_revolution(1.2, 1.0, 256)
    reports.extend(replace(rep, name=rep.name + "_spheroid")
                   for rep in vfy.check_prop1_axisym(ell, 1, 1e-5, tol=5e-3))
    return reports


def suite_lemma(cfg: dict) -> list:
    stepping = {"t_max": 0.1, **cfg.get("stepping", {})}
    shapes = (geom.ellipse(2.0, 1.0, 256), geom.ellipsoid_of_revolution(1.5, 1.0, 256))
    return [rep for g in shapes for rep in vfy.check_lemma_integral(flow_config_from(
        {**cfg, "problem": {"n": g.dim, "k": 1, "mode": "raw"}, "stepping": stepping}), g)]


def suite_variation(cfg: dict) -> list:
    ones = lambda t: np.ones_like(t)
    return [
        vfy.check_first_variation(geom.sphere(1.0, 1, 256), ones, 0),
        vfy.check_first_variation(geom.sphere(1.0, 2, 256), ones, 1),
        vfy.check_first_variation(geom.ellipse(2.0, 1.0, 512), lambda t: np.cos(2 * t), 0),
    ]


# candidates per stacked geometry call of the af sampler; its memory is bounded by it
_AF_CHUNK = 16
_AF_MODES = range(2, 5)  # the single modes an af candidate draws


def _af_candidate(rng) -> tuple:
    """(eps, mode) of one random af candidate: two scalar draws."""
    return rng.uniform(0.02, 0.3), int(rng.integers(_AF_MODES.start, _AF_MODES.stop))


def _random_kconvex_samples(rng, n: int, k: int, num: int):
    """Endless PointwiseGeometry of strictly k-convex single-mode perturbed
    spheres on num intervals, one per candidate that passes.

    Candidates are drawn and evaluated `_AF_CHUNK` at a time, in one
    `_curvatures` call on a stacked kit; a row that is not positive is a miss.
    The whole chunk is decided at once: a candidate passes when its row is
    positive and the least of its sigma_1..sigma_k is positive, which is
    `symfunc._cone_status`'s strict case (a NaN minimum fails), taken by one
    reduction over the chunk's minima. The stream is then rewound to the
    chunk's start and each candidate's draws are replayed before its verdict
    is acted on, so that at each yield, and at the RuntimeError after 64
    misses in a row, the generator stands where drawing, building and testing
    one candidate at a time would leave it. Each yield is a copy, so no chunk
    buffer outlives its chunk.
    """
    kit = geom._grid_kit(n, num, _AF_CHUNK)
    size = kit.size
    # cos(mode * x) of each mode on perturbed_sphere's grid kit.param, one row per mode
    cosines = np.cos(np.array(_AF_MODES)[:, None] * kit.param)
    misses = 0
    while True:
        start = rng.bit_generator.state
        eps, mode = np.array([_af_candidate(rng) for _ in range(_AF_CHUNK)]).T
        rows = geom._single_mode_radius(1.0, eps[:, None],
                                        cosines[mode.astype(int) - _AF_MODES.start])
        starshaped = np.minimum.reduce(rows, axis=1) > 0.0
        rows[~starshaped] = 1.0  # a stand-in the curvature call accepts; never yielded
        curv = geom._curvatures(kit, rows.ravel())
        sig = curv[5]
        mins = np.minimum.reduce(sig[1 : k + 1].reshape(k, _AF_CHUNK, size), axis=(0, 2))
        strict = starshaped & (mins > 0.0)  # a NaN minimum compares false
        rng.bit_generator.state = start
        for j in range(_AF_CHUNK):
            _af_candidate(rng)
            if strict[j]:
                cols = slice(j * size, (j + 1) * size)
                misses = 0
                yield geom._pointwise(kit, rows[j].copy(),
                                      tuple(data[..., cols].copy() for data in curv))
            else:
                misses += 1
                if misses == 64:
                    raise RuntimeError("could not draw a strictly k-convex sample")


def suite_af(cfg: dict) -> list:
    seed, samples, _ = _verify_keys(cfg)
    if "shape" in cfg:
        fc, g = _flow_and_shape(cfg, _AF_REQUIRED)
        return vfy.check_af_chain(geom.compute_geometry(g), fc.k)
    reports = []
    for n, num in ((1, 512), (2, 512)):
        geo = geom.compute_geometry(geom.sphere(1.0, n, num))
        for rep in vfy.check_af_chain(geo, n):
            worst = abs(rep.lhs - rep.rhs)
            reports.append(vfy._report(rep.name + f"_sphere_eq_n{n}", rep.lhs, rep.rhs,
                                       worst, worst, f"N={num}", 1e-10))
    geo = geom.compute_geometry(geom.ellipse(2.0, 1.0, 512))
    reports.extend(vfy.check_af_chain(geo, 1))
    rng = np.random.default_rng(seed)
    per_case = min(100, max(10, samples // 1000))
    for n, k in ((1, 1), (2, 1), (2, 2)):
        worst = -np.inf
        at = (0.0, 0.0)
        for geo in islice(_random_kconvex_samples(rng, n, k, 256), per_case):
            for rep in vfy.check_af_chain(geo, k):
                if rep.abs_residual > worst:
                    worst, at = rep.abs_residual, (rep.lhs, rep.rhs)
        worst = max(0.0, worst)
        reports.append(vfy._report(f"af_chain/random_n{n}k{k}", at[0], at[1], worst, worst,
                                   f"samples={per_case},N=256", 1e-6))
    return reports


def _monotone_run(n, k, shape_graph, t_max):
    fc = flowmod.FlowConfig(n=n, k=k, mode="rescaled_raw", t_max=t_max, sample_every=20)
    return flowmod.run(fc, shape_graph)


def suite_monotone(cfg: dict) -> list:
    if "shape" in cfg:
        fc, g = _flow_and_shape(cfg)
        if fc.mode not in flowmod.CONSERVING_MODES:
            raise ConfigError("problem.mode", f"the monotonicity check needs one of "
                                              f"{flowmod.CONSERVING_MODES}, got {fc.mode!r}")
        return vfy.check_monotone_series(flowmod.run(fc, g))
    reports = []
    rec = _monotone_run(1, 1, geom.ellipse(2.0, 1.0, 128), 2.0)
    reports.extend(vfy.check_monotone_series(rec))
    rec = _monotone_run(2, 1, geom.ellipsoid_of_revolution(1.5, 1.0, 128), 3.0)
    reports.extend(vfy.check_monotone_series(rec))
    return reports


_SUITE_FUNCS = {
    "symfunc": suite_symfunc,
    "geometry": suite_geometry,
    "prop1": suite_prop1,
    "lemma": suite_lemma,
    "variation": suite_variation,
    "af": suite_af,
    "monotone": suite_monotone,
}
SUITES = tuple(_SUITE_FUNCS) + ("all",)


def cmd_verify(cfg: dict, args) -> int:
    names = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.extend(_SUITE_FUNCS[name](cfg))
    reports = _override_tolerances(reports, cfg.get("verify", {}).get("tolerance_overrides", {}))
    path = cfg.get("verify", {}).get("report_path", "verification_report.csv")
    vfy.write_report_csv(reports, path)
    for rep in reports:
        _say(args.quiet, str(rep))
    failed = [r for r in reports if not r.passed]
    _say(args.quiet, f"{len(reports)} checks, {len(reports) - len(failed)} passed; report in {path}")
    if failed:
        for rep in failed:
            print(f"FAILED: {rep}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep_run(payload):
    """Run one distinct flow, write its trajectory to every path of the
    combinations that share it, and return its index fields and pass flag."""
    fc, graph, traj_paths = payload
    try:
        record = flowmod.run(fc, graph)
        for traj_path in traj_paths:
            record.to_csv(traj_path)
        mono = flowmod.monotone_pair(fc.n, fc.k)[0]
        checks = vfy.check_monotone_series(record) if fc.mode in flowmod.CONSERVING_MODES else []
        fields = {
            "status": "ok",
            "final_t": record.rows[-1][0],
            "final_iso": record.column(f"I{mono}")[-1],
            "monotone_pass": str(all(r.passed for r in checks[:1]) if checks else ""),
            "conserve_pass": str(all(r.passed for r in checks[1:2]) if checks else ""),
        }
        # the terminal-ball check only binds on long runs; the sweep flag
        # tracks monotonicity and conservation
        ok = all(r.passed for r in checks[:2]) if checks else True
    except (ValueError, flowmod.FlowError) as exc:
        fields = {"status": f"failed: {exc}", "final_t": "", "final_iso": "",
                  "monotone_pass": "False", "conserve_pass": "False"}
        ok = False
    return fields, ok


def cmd_sweep(cfg: dict, args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs", f"must be >= 1, got {args.jobs}")
    _require(cfg, _SWEEP_REQUIRED)
    sweep = cfg["sweep"]
    seeds = sweep.get("seeds", [None])
    for key in ("shapes", "k_values", "seeds"):
        if sweep.get(key) == []:
            raise ConfigError(f"sweep.{key}", "must not be empty")
    configs = []
    for k in sweep["k_values"]:
        try:
            configs.append(flow_config_from({**cfg, "problem": {**cfg["problem"], "k": k}}))
        except ConfigError as exc:
            if exc.key != "problem.k":
                raise
            raise ConfigError("sweep.k_values", str(exc)) from None
    # every combination is built here, before any run starts: the build is the validation.
    # A shape that reads no seed builds the same graph for every seed, so each distinct
    # (flow config, radial samples) pair runs once and writes the trajectory of every
    # combination that shares it.
    traj_dir = sweep.get("trajectory_dir", os.path.dirname(sweep["index_path"]))
    rows, keys, runs = [], [], {}
    for spec in sweep["shapes"]:
        params = spec.get("params", {})
        for fc in configs:
            for seed in seeds:
                shape = spec if seed is None else {**spec, "seed": seed}
                graph = _make_shape(shape, fc.n, cfg["grid"]["N"], _SWEEP_SHAPE_KEYS)
                idx = f"{len(rows):03d}"
                rows.append({"id": idx, "shape_type": spec["type"],
                             "params": ";".join(f"{key}={params[key]!r}" for key in sorted(params)),
                             "seed": "" if seed is None else str(seed), "n": str(fc.n),
                             "k": str(fc.k)})
                flow_key = (fc, graph.r.tobytes())
                keys.append(flow_key)
                traj_path = os.path.join(traj_dir, f"traj_{idx}.csv")
                runs.setdefault(flow_key, (fc, graph, []))[2].append(traj_path)
    if args.jobs > 1:
        # imported here so that only a pooled sweep loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = dict(zip(runs, pool.map(_sweep_run, runs.values())))
    else:
        outcomes = {key: _sweep_run(payload) for key, payload in runs.items()}
    results = [({**row, **outcomes[flow_key][0]}, outcomes[flow_key][1])
               for row, flow_key in zip(rows, keys)]
    index_path = sweep["index_path"]
    fields = ["id", "shape_type", "params", "seed", "n", "k", "status",
              "final_t", "final_iso", "monotone_pass", "conserve_pass"]
    geom._write_csv(index_path, fields, ([row[name] for name in fields] for row, _ok in results))
    passed = sum(ok for _, ok in results)
    _say(args.quiet, f"sweep: {len(results)} combinations, {passed} passed; index in {index_path}")
    return EXIT_OK if passed == len(results) else EXIT_TOLERANCE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress status output")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted-path config override, value parsed as JSON")
    parser = argparse.ArgumentParser(
        prog="starflow",
        description="Expanding curvature-ratio flows on starshaped hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common],
                           help="integrate one flow from a JSON config")
    p_run.add_argument("config")
    p_ver = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("config", nargs="?")
    p_sw = sub.add_parser("sweep", parents=[common],
                          help="run a grid of flow configurations")
    p_sw.add_argument("config")
    p_sw.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep}
    try:
        cfg = apply_overrides(load_config(args.config) if args.config else {}, args.set)
        _check_values(cfg)
        return commands[args.command](cfg, args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except flowmod.FlowError as exc:
        print(f"numerical failure: {exc.reason} (t={exc.state.t:.6g})", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

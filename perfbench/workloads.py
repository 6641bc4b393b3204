"""Seeded input generator: the argv lists and CSV files of each workload.

The program only ever sees what this module writes: one `plan.json` with
the ops of one pass, plus the `T_kelvin,chi` files the fit ops read. The
same (workload, seed) always yields the same plan. Continuous parameters
are drawn by stratified sampling (one draw per equal-probability stratum,
strata shuffled independently per parameter), which keeps the share of
ops that land in each region of parameter space steady from seed to seed
without narrowing any range.

Physical constants are re-derived here from CODATA values rather than
imported, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# mu_B / k_B in K/T and N_A mu_B^2 / k_B in emu K/mol (CODATA 2018 / SI 2019).
_K_B = 1.380649e-23
_MU_B = 9.2740100783e-24
_N_A = 6.02214076e23
MU_B_K_PER_T = _MU_B / _K_B
CURIE_EMU = _N_A * _MU_B**2 / (10.0 * _K_B)

PRESSURE_TABLE = "data/pressure_j_synthetic.csv"

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "sweep-large": (
        "few 2,000-row sweeps written to CSV/JSON and read back: the per-row "
        "oracle dominates, so batched kernels and faster render show here first"
    ),
    "sweep-small": (
        "many 8-64 row sweeps with seeded axis/basis/format/J/T/B: fixed "
        "per-request cost (parser, spec, render set-up) dominates"
    ),
    "fit-batch": (
        "seeded chi(T) files, each fitted then critical-field at the true "
        "(J, g): fitting, models and bisection work, no sweep oracle"
    ),
}
WORKLOADS = tuple(WHY)

# Ops in one pass of each workload at full size.
PASS_SIZE = {"sweep-large": 6, "sweep-small": 400, "fit-batch": 300}
LARGE_ROWS = 2_000


def read_pressure_table(path: str | Path) -> list[tuple[float, float]]:
    """(P_GPa, J_kelvin) nodes of the pressure table, comments skipped."""
    nodes = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("P_GPa"):
            continue
        p, j = line.split(",")
        nodes.append((float(p), float(j)))
    return nodes


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1), one per stratum [k/n, (k+1)/n), shuffled."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _b_crit(j: float, g: float) -> float:
    return abs(j) / (g * MU_B_K_PER_T)


def _sweep_op(axis, basis, fmt, lo, hi, steps, j, g, t, b, out, table):
    """One `spindimer sweep` request plus what verification needs to know."""
    argv = ["sweep", axis]
    if axis == "temp":
        argv += ["--t-min", repr(lo), "--t-max", repr(hi), "--t-steps", str(steps)]
        argv += ["--j-kelvin", repr(j), "--b-tesla", repr(b)]
    elif axis == "field":
        argv += ["--b-min", repr(lo), "--b-max", repr(hi), "--b-steps", str(steps)]
        argv += ["--t-kelvin", repr(t), "--j-kelvin", repr(j)]
    else:
        argv += ["--p-min", repr(lo), "--p-max", repr(hi), "--p-steps", str(steps)]
        argv += ["--pressure-table", table, "--t-kelvin", repr(t)]
        argv += ["--b-tesla", repr(b)]
    argv += ["--g", repr(g), "--basis", basis, "--format", fmt]
    if out is not None:
        argv += ["--out", out]
    return {
        "kind": "sweep",
        "argv": argv,
        "out": out,
        "format": fmt,
        "expect": {
            "axis": axis, "basis": basis, "min": lo, "max": hi, "steps": steps,
            "j": j, "g": g, "t": t, "b": b,
        },
    }


def _sweep_large(rng, workdir, root, scale):
    """Temperature (S_z), field at 50 mK (S_x) and pressure (S_x) grids,
    each once as CSV and once as JSON, written to files and read back.

    J is drawn around the paper's compound (|J| = 1-10 K, B_c within lab
    magnet range) because these are the grids an experimenter sweeps
    densely; the wide-range corners that hit known defects are sampled by
    sweep-small and fit-batch.

    Grids have 2,000 rows, not 10,000: per-row work is still over 95% of an
    op, and a 0.2 s op repeated about 20 times per run can catch the shared
    machine at full speed, where a 1 s op repeated 4 times could not.
    """
    rows = max(2, int(LARGE_ROWS * scale))
    table = str(root / PRESSURE_TABLE)
    b_c0 = _b_crit(read_pressure_table(table)[0][1], 2.0)
    ops = []
    for k, (axis, basis) in enumerate(
        (("temp", "z"), ("field", "x"), ("pressure", "x")) * 2
    ):
        fmt = "csv" if k < 3 else "json"
        out = str(workdir / f"large-{k}.{fmt}")
        j = -_log_uniform(rng.random(), 1.0, 10.0)
        g = _uniform(rng.random(), 1.9, 2.2)
        if axis == "temp":
            lo = _log_uniform(rng.random(), 0.05, 0.5)
            hi = _uniform(rng.random(), 250.0, 350.0)
            t, b = None, _uniform(rng.random(), 0.0, 2.0 * _b_crit(j, g))
        elif axis == "field":
            lo, hi = 0.0, _uniform(rng.random(), 1.5, 2.0) * _b_crit(j, g)
            t, b = 0.05, None
        else:
            lo, hi = _uniform(rng.random(), 0.0, 1.0), _uniform(rng.random(), 9.0, 10.0)
            t = _log_uniform(rng.random(), 0.05, 5.0)
            b, j = _uniform(rng.random(), 0.0, 2.0 * b_c0), None
        ops.append(_sweep_op(axis, basis, fmt, lo, hi, rows, j, g, t, b, out, table))
    return ops


def _sweep_small(rng, workdir, root, scale):
    """Short sweeps to stdout over the whole parameter space a user might
    request: every axis/basis/format, AFM |J| log-uniform 0.5-300 K, T
    log-uniform 0.01-350 K, fields up to 2 B_c. The low-T / high-field
    corner hits the known false "temperature underflow"; those ops fail
    and are counted.
    """
    del workdir
    n = max(12, int(PASS_SIZE["sweep-small"] * scale))
    table = str(root / PRESSURE_TABLE)
    b_c0 = _b_crit(read_pressure_table(table)[0][1], 2.0)
    combos = [
        (axis, basis, fmt)
        for axis in ("temp", "field", "pressure")
        for basis in ("z", "x")
        for fmt in ("csv", "json")
    ]
    kinds = [combos[i % len(combos)] for i in range(n)]
    rng.shuffle(kinds)
    u_j, u_g, u_t1, u_t2, u_b1, u_b2, u_s = (_strata(rng, n) for _ in range(7))
    ops = []
    for i, (axis, basis, fmt) in enumerate(kinds):
        steps = 8 + min(56, int(u_s[i] * 57))
        j = -_log_uniform(u_j[i], 0.5, 300.0)
        g = _uniform(u_g[i], 1.9, 2.2)
        t1 = _log_uniform(u_t1[i], 0.01, 350.0)
        t2 = _log_uniform(u_t2[i], 0.01, 350.0)
        if axis == "temp":
            lo, hi = min(t1, t2), max(t1, t2)
            t, b = None, u_b1[i] * 2.0 * _b_crit(j, g)
        elif axis == "field":
            b1, b2 = (u * 2.0 * _b_crit(j, g) for u in (u_b1[i], u_b2[i]))
            lo, hi, t, b = min(b1, b2), max(b1, b2), t1, None
        else:
            lo, hi = sorted((10.0 * u_b1[i], 10.0 * u_t2[i]))
            t, b, j = t1, u_b2[i] * 2.0 * b_c0, None
        ops.append(_sweep_op(axis, basis, fmt, lo, hi, steps, j, g, t, b, None, table))
    return ops


def _fit_batch(rng, workdir, root, scale):
    """Synthetic Bleaney-Bowers chi(T) files with 1% noise: |J| log-uniform
    0.5-300 K (AFM), g 1.9-2.2, 50-400 points geometric over 2-350 K. Each
    file is fitted with `fit FILE --out`, then `critical-field` runs at the
    generating (J, g). Fields above the fixed 100 T bisection bracket
    (|J| > ~134 K) fail today and are counted.
    """
    del root
    n = max(2, int(PASS_SIZE["fit-batch"] * scale) // 2)
    u_j, u_g, u_n = (_strata(rng, n) for _ in range(3))
    fmts = ["csv", "json"] * ((n + 1) // 2)
    rng.shuffle(fmts)
    ops = []
    for i in range(n):
        j = -_log_uniform(u_j[i], 0.5, 300.0)
        g = _uniform(u_g[i], 1.9, 2.2)
        npts = 50 + min(350, int(u_n[i] * 351))
        lines = ["T_kelvin,chi"]
        for k in range(npts):
            t = 2.0 * (350.0 / 2.0) ** (k / (npts - 1))
            chi = 2.0 * g * g * CURIE_EMU / (t * (3.0 + math.exp(-j / t)))
            chi *= 1.0 + 0.01 * rng.gauss(0.0, 1.0)
            lines.append(f"{t!r},{chi!r}")
        src = workdir / f"chi-{i:04d}.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = str(workdir / f"fit-{i:04d}.{fmts[i]}")
        ops.append({
            "kind": "fit",
            "argv": ["fit", str(src), "--format", fmts[i], "--out", out],
            "out": out,
            "format": fmts[i],
            "expect": {"j": j, "g": g, "points": npts, "src": str(src)},
        })
        ops.append({
            "kind": "critical-field",
            "argv": ["critical-field", "--j-kelvin", repr(j), "--g", repr(g)],
            "out": None,
            "format": None,
            "expect": {"j": j, "g": g},
        })
    return ops


_GENERATORS = {
    "sweep-large": _sweep_large,
    "sweep-small": _sweep_small,
    "fit-batch": _fit_batch,
}


def generate(
    workload: str, seed: int, workdir: Path, root: Path, scale: float = 1.0
) -> Path:
    """Write the inputs of one pass into `workdir`; return the plan path.

    `scale` shrinks the pass (row counts, op counts) for the benchmark's
    own tests; runs of the benchmark always use 1.
    """
    rng = random.Random(seed * 1009 + WORKLOADS.index(workload))
    ops = _GENERATORS[workload](rng, workdir, root, scale)
    plan = {
        "workload": workload,
        "seed": seed,
        "pressure_table": str(root / PRESSURE_TABLE),
        "ops": ops,
    }
    path = workdir / "plan.json"
    path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return path

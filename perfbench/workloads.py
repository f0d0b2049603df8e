"""The benchmark workloads: seeded inputs, the timed request, and its check.

Each workload is one pass of requests generated from the seed.  A request
calls the public cascadeg2 API through module attributes looked up at call
time, so the tracer's wrappers see it.  A checker is built from the pass
before timing starts and judges each output after its request completes.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import cascadeg2
from cascadeg2 import cli
from cascadeg2.errors import DivergentAverageError, NumericError

from checkout import WORKERS_VAR

REFERENCE = Path(__file__).resolve().parent / "reference"

# How a route declines to answer; anything else a request raises is a crash.
REFUSALS = (NumericError, DivergentAverageError)

FIGURE_IDS = ("3a", "3b", "3c", "4a", "4b", "5", "6")
# The reference CSVs hold 12 significant digits; this admits reformulations
# that move the last printed digit and nothing larger.
FIGURE_RTOL, FIGURE_ATOL = 1e-9, 1e-12

# The default path of `cascadeg2 correlate --tau-max 10 --tau-steps 300`.
CURVE_TAUS = np.linspace(0.0, 10.0, 300)
CURVE_CHECKS = 3          # delays per curve compared with the expm route
CURVE_TOL = 1e-9          # both routes are exact; they agree to ~1e-14
# Curve sets: one per cell of a (rabi, detuning) grid, plus undriven sets.
CURVE_DRIVEN_GRID, CURVE_UNDRIVEN_GRID = (6, 8), (2, 8)
UNDRIVEN_SHARE = 2 / (6 + 2)  # share of curve sets with rabi = 0

ORACLE_TAUS = np.array(json.loads((REFERENCE / "oracle_taus.json").read_text()))
ORACLE_TOL = 1e-6         # the bar of `cascadeg2 verify`
ORACLE_GRID = (6, 8)      # oracle sets: one per cell of a (rabi, detuning) grid

# The verify oracle family: rabi U(0, 35), detuning U(0, 100), delta_fs
# U(0, 10), gamma12 = gamma21 U(0, 2), gamma_u alternating 0 / 0.01, analyzer
# angles U(0, pi).
RABI_MAX, DETUNING_MAX, DELTA_FS_MAX, GAMMA_D_MAX = 35.0, 100.0, 10.0, 2.0


@dataclass(frozen=True)
class Failure:
    """Why a request failed.

    kind is "wrong" (a returned value failed its check), "raised" (the
    request raised something other than a refusal) or "refused" (one route
    refused where the other answered).
    """

    kind: str
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[np.random.Generator], list]
    request: Callable[[Any], Any]
    # Built from one pass of inputs; returns check(index, output) -> Failure | None.
    checker: Callable[[list], Callable[[int, Any], Failure | None]]
    # Sweep points a request evaluated (CSV rows); 0 where there is no sweep.
    points: Callable[[Any], int] = lambda output: 0
    # Route refusals inside a request's output, failed or not.
    refusals: Callable[[Any], int] = lambda output: 0
    # Requests spread their work over every CPU (a process pool), so the
    # calibration kernel runs on every CPU rather than pinned with them.
    parallel: bool = False


@dataclass(frozen=True)
class Case:
    """One parameter set and analyzer pair."""

    params: cascadeg2.CascadeParams
    det1: cascadeg2.DetectorSetting
    det2: cascadeg2.DetectorSetting


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws on [0, 1), one per stratum of width 1/n, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def oracle_family(rng: np.random.Generator, n_rabi: int, n_detuning: int) -> list[Case]:
    """Draws from the verify oracle family, stratified so every seed covers it.

    One set per cell of an n_rabi x n_detuning grid over (rabi, detuning),
    which sets the cost of a request; the other coordinates are stratified
    on their own.  gamma_u alternates over the grid like a checkerboard.
    Returned in random order.
    """
    n = n_rabi * n_detuning
    jitter = rng.random((n, 2))
    delta_fs = DELTA_FS_MAX * _strata(rng, n)
    gamma_d = GAMMA_D_MAX * _strata(rng, n)
    theta1, theta2 = math.pi * _strata(rng, n), math.pi * _strata(rng, n)
    cases = []
    for k in range(n):
        i, j = divmod(k, n_detuning)
        params = cascadeg2.CascadeParams(
            delta_fs=delta_fs[k],
            rabi=RABI_MAX * (i + jitter[k, 0]) / n_rabi,
            detuning=DETUNING_MAX * (j + jitter[k, 1]) / n_detuning,
            gamma12=gamma_d[k], gamma21=gamma_d[k],
            gamma_u=0.01 if (i + j) % 2 else 0.0)
        cases.append(Case(params, cascadeg2.DetectorSetting(theta1[k]),
                          cascadeg2.DetectorSetting(theta2[k])))
    return [cases[k] for k in rng.permutation(n)]


# --- figures: the paper's seven figures, as `cascadeg2 figure` runs them ----

def _figure_inputs(rng: np.random.Generator) -> list[str]:
    return [FIGURE_IDS[k] for k in rng.permutation(len(FIGURE_IDS))]


def _figure_request(fig_id: str):
    result = cli.run_figure(fig_id)
    buf = io.StringIO()
    result.write_csv(buf)
    return result.rows, buf.getvalue()


def _csv_rows(text: str):
    """(labels, x, values) of the data rows of a figure CSV."""
    lines = [line for line in text.splitlines()
             if line and not line.startswith("#")]
    if not lines or lines[0] != "x,observable,value":
        raise ValueError("no x,observable,value column header")
    fields = [line.split(",") for line in lines[1:]]
    if any(len(f) != 3 for f in fields):
        raise ValueError("a data row does not have three fields")
    return ([f[1] for f in fields], np.array([float(f[0]) for f in fields]),
            np.array([float(f[2]) for f in fields]))


def _serial_rows(fig_id: str):
    """Rows of run_figure evaluated in this process, without a pool."""
    pool_workers = os.environ[WORKERS_VAR]
    os.environ[WORKERS_VAR] = "1"
    try:
        return cli.run_figure(fig_id).rows
    finally:
        os.environ[WORKERS_VAR] = pool_workers


def _figure_checker(fig_ids: list[str]):
    serial = {f: _serial_rows(f) for f in set(fig_ids)}
    reference = {f: _csv_rows((REFERENCE / f"figure_{f}.csv").read_text())
                 for f in set(fig_ids)}

    def check(index: int, output) -> Failure | None:
        fig_id = fig_ids[index]
        rows, text = output
        if rows != serial[fig_id]:
            return Failure("wrong", f"figure {fig_id}: pool rows differ from serial rows")
        try:
            labels, xs, values = _csv_rows(text)
        except ValueError as exc:
            return Failure("wrong", f"figure {fig_id}: unreadable CSV: {exc}")
        ref_labels, ref_xs, ref_values = reference[fig_id]
        if labels != ref_labels or xs.shape != ref_xs.shape:
            return Failure("wrong", f"figure {fig_id}: row labels differ from the reference")
        for name, got, want in (("x", xs, ref_xs), ("value", values, ref_values)):
            if not np.allclose(got, want, rtol=FIGURE_RTOL, atol=FIGURE_ATOL):
                worst = np.max(np.abs(got - want))
                return Failure("wrong", f"figure {fig_id}: {name} column deviates "
                                        f"from the reference by up to {worst:.3e}")
        return None

    return check


FIGURES = Workload("figures", _figure_inputs, _figure_request, _figure_checker,
                   points=lambda output: len(output[0]), parallel=True)


# --- curves: time-resolved G(tau), the default path of `cascadeg2 correlate` --

def _curve_inputs(rng: np.random.Generator) -> list[tuple[Case, tuple[int, ...]]]:
    """48 driven sets on a 6 x 8 (rabi, detuning) grid plus 16 with rabi = 0.

    Each set carries the grid indices its check compares.
    """
    driven = oracle_family(rng, *CURVE_DRIVEN_GRID)
    undriven = [Case(c.params.with_(rabi=0.0), c.det1, c.det2)
                for c in oracle_family(rng, *CURVE_UNDRIVEN_GRID)]
    cases = driven + undriven
    cases = [cases[k] for k in rng.permutation(len(cases))]
    return [(case, tuple(sorted(rng.choice(np.arange(1, CURVE_TAUS.size),
                                           CURVE_CHECKS, replace=False))))
            for case in cases]


def _curve_request(item):
    case, _ = item
    return cascadeg2.correlation_curve(case.params, case.det1, case.det2,
                                       CURVE_TAUS, method="analytic")


def _curve_checker(items):
    expected = [np.array([cascadeg2.g2_numeric(case.params, case.det1, case.det2,
                                               CURVE_TAUS[k], method="expm")
                          for k in at]) for case, at in items]

    def check(index: int, curve) -> Failure | None:
        _, at = items[index]
        if not np.array_equal(curve.tau_grid, CURVE_TAUS):
            return Failure("wrong", "curve returned on another delay grid")
        want = expected[index]
        dev = np.max(np.abs(curve.values[list(at)] - want) / np.maximum(1.0, np.abs(want)))
        if not dev <= CURVE_TOL:
            return Failure("wrong", f"curve deviates from the expm route by {dev:.3e}")
        return None

    return check


CURVES = Workload("curves", _curve_inputs, _curve_request, _curve_checker)


# --- oracle: the full-generator route against the closed form --------------

def _oracle_inputs(rng: np.random.Generator) -> list[Case]:
    return oracle_family(rng, *ORACLE_GRID)


def _route(fn, *args):
    """The route's answer, or the refusal it raised."""
    try:
        return fn(*args)
    except REFUSALS as exc:
        return exc


def _oracle_request(case: Case):
    args = (case.params, case.det1, case.det2)
    return (_route(cascadeg2.g2_numeric_grid, *args, ORACLE_TAUS),
            _route(cascadeg2.g2_analytic, *args, ORACLE_TAUS),
            _route(cascadeg2.g2_avg_numeric, *args),
            _route(cascadeg2.g2_avg_analytic, *args))


def _compare(name: str, numeric, analytic, floor: float) -> Failure | None:
    refused = [isinstance(v, Exception) for v in (numeric, analytic)]
    if all(refused):
        return None
    if any(refused):
        who = ("numeric", "analytic")[refused.index(True)]
        refusal = numeric if refused[0] else analytic
        return Failure("refused", f"{name}: only the {who} route refused: {refusal!r}")
    dev = np.max(np.abs(np.asarray(numeric) - analytic)
                 / np.maximum(floor, np.abs(analytic)))
    if not dev <= ORACLE_TOL:
        return Failure("wrong", f"{name}: relative deviation {dev:.3e}")
    return None


def _oracle_checker(cases: list[Case]):
    def check(index: int, output) -> Failure | None:
        grid_num, grid_ana, avg_num, avg_ana = output
        return (_compare("g2 grid", grid_num, grid_ana, 1.0)
                or _compare("g2 average", avg_num, avg_ana, 1e-30))

    return check


ORACLE = Workload("oracle", _oracle_inputs, _oracle_request, _oracle_checker,
                  refusals=lambda output: sum(isinstance(v, Exception) for v in output))


WORKLOADS = {w.name: w for w in (FIGURES, CURVES, ORACLE)}

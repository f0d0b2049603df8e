"""Command-line harness: parameter sweeps, figure reproductions, verification.

Output CSVs are deterministic: fixed 12-significant-digit scientific
notation, LF line endings, and a comment header carrying the tool version
and the full parameter set of every curve.

A figure or sweep is one array pass from plan to text.  Its plan holds
every parameter point in one CascadeBatch, validated once.  The seven
figures are one table of data, ``_FIGURES``: per curve a label, the fields
it fixes and the fields its swept value sets.  A figure's plan fills one
array of points from it, per Bell curve one point per swept value, per
degree curve one point, since its parameters do not change along the basis
angle, and formats every curve's header line with one format operation.
The batch gets one two-photon response
(:func:`~cascadeg2.correlate.two_photon_response`, written out for all
points at once), which a figure turns into a (label, swept value) table of
C or S with one observable call, a sweep with one call per requested
observable.  A :class:`SweepResult` keeps that table in the order of its
CSV rows: its values have the shape (blocks, swept values, labels per
block), a figure one block per curve, a sweep one block of every column.
The CSV formats each swept value once and every value by one format
operation, and ``rows`` zips the swept values, names and values.  The
``degree`` and ``bell`` commands evaluate the observables on a one-point
response.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .model import (_FIELD_ROWS, PARAM_FIELDS, CascadeBatch, CascadeParams,
                    DetectorSetting, _field_values, omega_star)
from .correlate import (TwoPhotonResponse, correlation_curve,
                        two_photon_response)
from .errors import NumericError
from .observables import (bell_s_chsh_from_response, bell_s_from_response,
                          degree_from_response)
from .verify import run_all_checks, summarize

# The model proper has gamma_u = 0; swept figures keep a small nonzero decay
# into the auxiliary level unless overridden.
CLI_DEFAULT_GAMMA_U = 0.01

FIGURE_IDS = ("3a", "3b", "3c", "4a", "4b", "5", "6")


def _fmt(value: float) -> str:
    """Fixed 12-significant-digit scientific notation."""
    return f"{float(value):.11e}"


@dataclass(frozen=True)
class RunConfig:
    """Validated sweep/angle-grid configuration."""

    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        # np.linspace takes an integral count only
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not -math.inf < self.start < self.stop < math.inf:
            raise ValueError(f"need finite start < stop, got [{self.start}, {self.stop}]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A table of observable values over one swept grid, plus a metadata
    header.

    ``values`` has shape (blocks, len(xs), w), w labels per block:
    ``values[b, j, k]`` is the value of ``labels[b * w + k]`` at ``xs[j]``,
    the labels listed block after block.  The CSV rows (swept value,
    observable name, value) are the values in C order.
    """

    metadata: tuple[tuple[str, str], ...]
    xs: np.ndarray
    labels: tuple[str, ...]
    values: np.ndarray

    @property
    def rows(self) -> tuple[tuple[float, str, float], ...]:
        """The CSV rows as (swept value, observable name, value) tuples."""
        _, n, w = self.values.shape
        xs = np.repeat(self.xs, w).tolist()
        rows = []
        for k, block in zip(range(0, len(self.labels), w), self.values):
            rows += zip(xs, self.labels[k:k + w] * n, block.ravel().tolist())
        return tuple(rows)

    def _template(self) -> str:
        """The data lines, a %.11e field for each value.

        Each swept value is formatted once.  A block of labels with cells
        c_1 .. c_w (the label and a value field) has, for each x, the row
        group x c_1 x c_2 .. x c_w: the groups x c_1 x .. c_{w-1} x joined by
        c_w.  With one label per block a group is x alone.
        """
        w = self.values.shape[2]
        x_text = ("%.11e " * len(self.xs) % tuple(self.xs.tolist())).split()
        cells = [f",{name.replace('%', '%%')},%.11e\n" for name in self.labels]
        lines = []
        for k in range(0, len(cells), w):
            inner = ["", *cells[k:k + w - 1], ""]
            groups = x_text if w == 1 else [x.join(inner) for x in x_text]
            lines += (cells[k + w - 1].join(groups), cells[k + w - 1])
        return "".join(lines)

    def write_csv(self, stream) -> None:
        """Write the header and rows; refuse a name with a comma or a
        non-finite value before writing anything.

        The values are formatted by one operation, in the template of
        :meth:`_template`.
        """
        body = ""
        if self.values.size:
            # the first bad row is refused, a bad name before a bad value
            # in the same row
            blocks, _, w = self.values.shape
            comma = np.array(["," in name for name in self.labels])
            bad = np.flatnonzero(comma.reshape(blocks, 1, w)
                                 | ~np.isfinite(self.values))
            if bad.size:
                b, j, k = np.unravel_index(bad[0], self.values.shape)
                label = self.labels[b * w + k]
                if "," in label:
                    raise ValueError(f"observable name {label!r} would break the CSV")
                raise ValueError(f"non-finite value for {label} "
                                 f"at x={float(self.xs[j])}")
            body = self._template() % tuple(self.values.ravel().tolist())
        stream.write("".join(f"# {key} = {value}\n" for key, value in self.metadata)
                     + "x,observable,value\n" + body)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self.write_csv(fh)


_PARAMS_TEMPLATE = " ".join(f"{name}=%.11e" for name in PARAM_FIELDS)


def _params_summary(params: CascadeParams) -> str:
    """Every field as name=value, formatted as by :func:`_fmt`."""
    return _PARAMS_TEMPLATE % _field_values(params)


def _key_value(text: str, where: str) -> tuple[str, float]:
    """Parse one ``key = value`` pair; dashes in the key become underscores."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"{where}: expected 'key = value'")
    try:
        return key.strip().replace("-", "_"), float(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_config(path: str) -> dict[str, float]:
    """Parse a flat ``key = value`` config file; # starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(fh, 1)]
    return dict(_key_value(line, f"{path}:{n}") for n, line in lines if line)


def _parse_overrides(pairs) -> dict[str, float]:
    return dict(_key_value(pair, f"override {pair!r}") for pair in pairs or ())


def _base_metadata(command: str) -> list[tuple[str, str]]:
    return [("tool", f"cascadeg2 {__version__}"), ("command", command)]


def _check_param_keys(keys, what: str) -> None:
    for key in keys:
        if key not in PARAM_FIELDS and key != "gamma_d":
            raise ValueError(f"unknown {what} {key!r}; expected one of "
                             f"{', '.join(PARAM_FIELDS + ('gamma_d',))}")


def _layered_params(*layers: dict[str, float]) -> dict[str, float]:
    """Merge parameter layers into CascadeParams fields; a later layer wins.

    gamma_d sets gamma12 and gamma21 together, but within one layer an
    explicit gamma12 or gamma21 beats it, whatever the order of the keys.
    """
    values: dict[str, float] = {}
    for layer in layers:
        if "gamma_d" in layer:
            values["gamma12"] = values["gamma21"] = layer["gamma_d"]
        values.update((k, v) for k, v in layer.items() if k != "gamma_d")
    return values


def _detuned(delta_fs: float, factor: float = 5.0) -> dict[str, float]:
    """The fixed fields of a detuned curve: the drive condition rabi =
    omega_star(delta_fs, detuning), the detuning in the 5 x delta_fs regime
    of the split-doublet sweep (10 x for the delta_fs = 10 panel)."""
    detuning = factor * delta_fs
    return {"delta_fs": delta_fs, "detuning": detuning,
            "rabi": omega_star(delta_fs, detuning)}


_DEPHASED = {"gamma12": 1.0, "gamma21": 1.0}
_GAMMA_D_SWEPT = {"gamma12": 1.0, "gamma21": 1.0}
# The seven figures as data: figure id -> (kind, curves), the kind naming
# its _FIGURE_AXES entry.  A curve is (label, fixed fields, swept fields) on
# the point CascadeParams(gamma_u=CLI_DEFAULT_GAMMA_U).  A swept field is
# x times a factor, x the swept value, or omega_star: rabi =
# omega_star(delta_fs, detuning) of the curve's swept values.
_FIGURES = {
    "3a": ("degree", [(f"C[dfs{v:g}_no_field]", {"delta_fs": v}, {})
                      for v in (0.0, 1.0, 5.0, 10.0)]),
    "3b": ("degree", [
        ("C[dfs5_no_field]", {"delta_fs": 5.0}, {}),
        ("C[dfs5_resonant]", {"delta_fs": 5.0, "rabi": 5.0}, {}),
        ("C[dfs5_detuned]", _detuned(5.0), {}),
    ]),
    "3c": ("degree", [
        ("C[dfs10_no_field]", {"delta_fs": 10.0}, {}),
        ("C[dfs10_resonant]", {"delta_fs": 10.0, "rabi": 10.0}, {}),
        ("C[dfs10_detuned]", _detuned(10.0, factor=10.0), {}),
    ]),
    "4a": ("degree", [(f"C[dfs0_gd1_rabi{v:g}]", {**_DEPHASED, "rabi": v}, {})
                      for v in (0.0, 1.0, 3.0)]),
    "4b": ("degree", [
        ("C[dfs5_gd1_no_field]", {**_DEPHASED, "delta_fs": 5.0}, {}),
        ("C[dfs5_gd1_resonant]", {**_DEPHASED, "delta_fs": 5.0, "rabi": 5.0}, {}),
        ("C[dfs5_gd1_detuned]", {**_DEPHASED, **_detuned(5.0)}, {}),
    ]),
    "5": ("bell_vs_delta_fs", [
        ("S[no_field]", {}, {"delta_fs": 1.0}),
        ("S[resonant]", {}, {"delta_fs": 1.0, "rabi": 1.0}),
        ("S[detuned]", {}, {"delta_fs": 1.0, "detuning": 5.0, "rabi": omega_star}),
    ]),
    "6": ("bell_vs_gamma_d", [
        ("S[dfs0_no_field]", {}, _GAMMA_D_SWEPT),
        ("S[dfs5_no_field]", {"delta_fs": 5.0}, _GAMMA_D_SWEPT),
        ("S[dfs5_detuned]", _detuned(5.0), _GAMMA_D_SWEPT),
    ]),
}
# the point every figure curve starts from, one value per field
_FIGURE_POINT = np.array(_field_values(CascadeParams(gamma_u=CLI_DEFAULT_GAMMA_U)))


# Figure kind -> (start, stop, default steps, axis header, swept parameter).
_FIGURE_AXES = {
    "degree": (0.0, math.pi / 2.0, 91, "basis angle theta [rad]", None),
    "bell_vs_delta_fs": (0.0, 10.0, 101, "delta_fs [gamma]", "delta_fs"),
    "bell_vs_gamma_d": (0.0, 2.0, 101, "gamma_d [gamma]", "gamma_d"),
}


def _steps_override(overrides: dict[str, float]) -> int | None:
    """Pop the optional ``steps`` override; it must be an integer."""
    steps = overrides.pop("steps", None)
    if steps is None:
        return None
    if not float(steps).is_integer():
        raise ValueError(f"steps must be an integer, got {steps}")
    return int(steps)


class _Plan(NamedTuple):
    """What a figure or sweep evaluates, as ``_figure_plan`` and
    ``_sweep_plan`` build it once they have validated the input.

    ``evaluate`` turns the two-photon response of ``batch`` into the
    values of a :class:`SweepResult`, shape (blocks, len(xs), labels per
    block), whose C order is the order of the CSV rows.
    """

    metadata: list[tuple[str, str]]
    xs: np.ndarray
    batch: CascadeBatch
    evaluate: Callable[[TwoPhotonResponse], np.ndarray]
    labels: tuple[str, ...]


def _figure_plan(fig_id: str, overrides: dict[str, float] | None) -> _Plan:
    """The plan of one predefined sweep, one block of one label per curve.

    One (fields, curves, points) table holds every point: the figure's
    default point, each curve's fixed fields, the overrides, then the swept
    rows.  A curve's header line is its point before the swept rows.  Bad
    input (an unknown figure or override, a bad step count or parameter)
    raises ValueError here, before anything is evaluated.  An override of
    a field that a curve sweeps is refused, as the sweep would overwrite it.
    """
    overrides = dict(overrides or {})
    steps = _steps_override(overrides)
    _check_param_keys(overrides, "override")
    changes = _layered_params(overrides)
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}; expected one of {FIGURE_IDS}")
    kind, curves = _FIGURES[fig_id]
    labels = tuple(label for label, *_ in curves)
    start, stop, default_steps, axis, swept = _FIGURE_AXES[kind]
    xs = RunConfig(start=start, stop=stop,
                   steps=default_steps if steps is None else steps).grid()
    for label, _, sweeps in curves:
        clash = sorted(changes.keys() & sweeps.keys())
        if clash:
            raise ValueError(f"curve {label} sweeps {', '.join(clash)}, "
                             "which an override cannot set")

    table = np.empty((len(PARAM_FIELDS), len(curves),
                      1 if swept is None else len(xs)))
    points = table[:, :, 0]
    points[:] = _FIGURE_POINT[:, None]
    for k, (_, fixed, _) in enumerate(curves):
        for name, value in fixed.items():
            points[_FIELD_ROWS[name], k] = value
    for name, value in changes.items():
        points[_FIELD_ROWS[name]] = value
    note = "" if swept is None else f" ({swept} swept)"
    summaries = (f"{_PARAMS_TEMPLATE}{note}\n" * len(curves)
                 % tuple(points.T.ravel().tolist())).splitlines()
    metadata = _base_metadata(f"figure {fig_id}")
    metadata.append(("axis", axis))
    metadata += ((f"curve {label}", summary)
                 for label, summary in zip(labels, summaries))
    if swept is not None:
        table[:] = points[:, :, None]
        for k, (_, _, sweeps) in enumerate(curves):
            rows = table[:, k]
            for name, factor in sweeps.items():
                rows[_FIELD_ROWS[name]] = (
                    omega_star(rows[_FIELD_ROWS["delta_fs"]],
                               rows[_FIELD_ROWS["detuning"]])
                    if factor is omega_star else factor * xs)
    batch = CascadeBatch(table.reshape(len(PARAM_FIELDS), -1))

    if swept is None:
        def evaluate(response):
            return degree_from_response(response, theta=xs[:, None]).T[..., None]
    else:
        def evaluate(response):
            return bell_s_from_response(response).reshape(len(labels), -1, 1)
    return _Plan(metadata, xs, batch, evaluate, labels)


def _evaluate(plan: _Plan) -> SweepResult:
    """One two-photon response and one observable call for the whole plan."""
    return SweepResult(metadata=tuple(plan.metadata), xs=plan.xs,
                       labels=plan.labels,
                       values=plan.evaluate(two_photon_response(plan.batch)))


def run_figure(fig_id: str, overrides: dict[str, float] | None = None) -> SweepResult:
    """Evaluate one predefined sweep and return its rows and metadata."""
    return _evaluate(_figure_plan(fig_id, overrides))


SWEEP_AXES = ("delta_fs", "rabi", "detuning", "gamma_d", "gamma_u")
_SWEEP_COLUMNS = {
    "c_h": functools.partial(degree_from_response, theta=0.0),
    "c_d": functools.partial(degree_from_response, theta=math.pi / 4.0),
    "s": bell_s_from_response,
}
SWEEP_OBSERVABLES = tuple(_SWEEP_COLUMNS)


def _sweep_plan(params: CascadeParams, axis: str, config: RunConfig,
                observables) -> _Plan:
    """The plan of a one-axis sweep: one block holding every column."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {SWEEP_AXES}")
    labels = tuple(observables)
    if not labels:
        raise ValueError(f"no observables requested; expected some of "
                         f"{', '.join(SWEEP_OBSERVABLES)}")
    for k, name in enumerate(labels):
        if name not in SWEEP_OBSERVABLES:
            raise ValueError(f"unknown observable {name!r}")
        if name in labels[:k]:
            raise ValueError(f"repeated observable {name!r}")

    metadata = _base_metadata(f"sweep {axis}")
    metadata.append(("axis", f"{axis} from {_fmt(config.start)} to "
                             f"{_fmt(config.stop)} in {config.steps} steps"))
    metadata.append(("base", _params_summary(params)))

    xs = config.grid()
    axes = {"gamma12": xs, "gamma21": xs} if axis == "gamma_d" else {axis: xs}

    def evaluate(response):
        return np.stack([_SWEEP_COLUMNS[name](response) for name in labels],
                        axis=-1)[None]

    return _Plan(metadata, xs, CascadeBatch.broadcast(params, **axes),
                 evaluate, labels)


def run_sweep(params: CascadeParams, axis: str, config: RunConfig,
              observables=SWEEP_OBSERVABLES) -> SweepResult:
    """Sweep one parameter axis and evaluate the requested observables."""
    return _evaluate(_sweep_plan(params, axis, config, observables))


def _add_param_arguments(parser: argparse.ArgumentParser) -> None:
    for name in PARAM_FIELDS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float,
                            default=None, dest=name)
    parser.add_argument("--gamma-d", type=float, default=None, dest="gamma_d",
                        help="set gamma12 and gamma21 together")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value file with parameter defaults")


def _resolve_params(args) -> CascadeParams:
    """Defaults < config file < flags, by :func:`_layered_params`."""
    config = load_config(args.config) if args.config else {}
    _check_param_keys(config, f"key in {args.config}")
    flags = {name: getattr(args, name) for name in PARAM_FIELDS + ("gamma_d",)
             if getattr(args, name) is not None}
    return CascadeParams(**_layered_params({"gamma_u": CLI_DEFAULT_GAMMA_U},
                                           config, flags))


def _write_result(result: SweepResult, out: str | None) -> None:
    if out:
        result.save(out)
        print(f"wrote {out}")
    else:
        result.write_csv(sys.stdout)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadeg2",
        description="Two-photon polarization correlations of a driven "
                    "radiative cascade")
    parser.add_argument("--version", action="version",
                        version=f"cascadeg2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="run a predefined sweep (3a..6) as CSV")
    p_fig.add_argument("fig_id", choices=FIGURE_IDS)
    p_fig.add_argument("--out", type=str, default=None)
    p_fig.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a parameter, gamma_u, or steps")

    p_deg = sub.add_parser("degree", help="degree of correlation at one basis angle")
    p_deg.add_argument("--theta", type=float, required=True)
    _add_param_arguments(p_deg)

    p_bell = sub.add_parser("bell", help="CHSH Bell parameter")
    p_bell.add_argument("--angles", type=float, nargs=4, default=None,
                        metavar=("A1", "A2", "B1", "B2"),
                        help="analyzer angles; omit for the rectilinear-"
                             "diagonal shortcut")
    _add_param_arguments(p_bell)

    p_corr = sub.add_parser("correlate", help="correlation curve G(tau) as CSV")
    p_corr.add_argument("--tau-max", type=float, required=True)
    p_corr.add_argument("--tau-steps", type=int, required=True)
    p_corr.add_argument("--theta1", type=float, default=0.0)
    p_corr.add_argument("--theta2", type=float, default=0.0)
    p_corr.add_argument("--phi1", type=float, default=0.0)
    p_corr.add_argument("--phi2", type=float, default=0.0)
    p_corr.add_argument("--method", choices=("analytic", "numeric"),
                        default="analytic")
    p_corr.add_argument("--out", type=str, default=None)
    _add_param_arguments(p_corr)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--observables", type=str,
                         default=",".join(SWEEP_OBSERVABLES),
                         help=f"comma list from {', '.join(SWEEP_OBSERVABLES)}")
    p_sweep.add_argument("--out", type=str, default=None)
    _add_param_arguments(p_sweep)

    p_ver = sub.add_parser("verify", help="run the oracle and invariant suite")
    p_ver.add_argument("--out", type=str, default=None,
                       help="write a JSON report here")
    return parser


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser):
    """Report bad input (an override, config file, parameter or option value,
    an output path that cannot be written, a parameter point whose time
    average diverges, or one whose propagation overflows) as a one-line
    usage error with exit status 2, as argparse does for bad flags."""
    try:
        yield
    except (ValueError, OSError, NumericError) as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "figure":
        with _usage_errors(parser):
            result = run_figure(args.fig_id, _parse_overrides(args.override))
            _write_result(result, args.out or f"figure_{args.fig_id}.csv")
        return 0

    if args.command == "degree":
        with _usage_errors(parser):
            response = two_photon_response([_resolve_params(args)])
            (degree,) = degree_from_response(response, args.theta)
        print(f"C(theta={_fmt(args.theta)}) = {_fmt(degree)}")
        return 0

    if args.command == "bell":
        with _usage_errors(parser):
            response = two_photon_response([_resolve_params(args)])
            if args.angles is None:
                (s,) = bell_s_from_response(response)
            else:
                (s,) = bell_s_chsh_from_response(response, *args.angles)
        print(f"S = {_fmt(s)}  violated = {s > 2.0}")
        return 0

    if args.command == "correlate":
        with _usage_errors(parser):
            params = _resolve_params(args)
            taus = RunConfig(start=0.0, stop=args.tau_max,
                             steps=args.tau_steps).grid()
            det1 = DetectorSetting(args.theta1, args.phi1)
            det2 = DetectorSetting(args.theta2, args.phi2)
            curve = correlation_curve(params, det1, det2, taus,
                                      method=args.method)
            metadata = _base_metadata("correlate")
            metadata.append(("params", _params_summary(params)))
            metadata.append(("angles", f"theta1={_fmt(args.theta1)} "
                                       f"theta2={_fmt(args.theta2)} "
                                       f"phi1={_fmt(args.phi1)} "
                                       f"phi2={_fmt(args.phi2)}"))
            _write_result(SweepResult(metadata=tuple(metadata),
                                      xs=curve.tau_grid,
                                      labels=(f"g2[{args.method}]",),
                                      values=curve.values[None, :, None]), args.out)
        return 0

    if args.command == "sweep":
        observables = tuple(s.strip() for s in args.observables.split(",") if s.strip())
        with _usage_errors(parser):
            config = RunConfig(start=args.start, stop=args.stop, steps=args.steps)
            result = run_sweep(_resolve_params(args), args.axis, config,
                               observables)
            _write_result(result, args.out)
        return 0

    if args.command == "verify":
        # the report is opened before any check runs, so a path that cannot
        # be written costs no run
        with _usage_errors(parser), (
                open(args.out, "w", encoding="utf-8", newline="\n")
                if args.out else contextlib.nullcontext()) as fh:
            results = run_all_checks()
            text, ok = summarize(results)
            print(text)
            if fh is not None:
                json.dump({"version": __version__, "passed": ok,
                           "checks": [dataclasses.asdict(r) for r in results]},
                          fh, indent=2)
                fh.write("\n")
        return 0 if ok else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

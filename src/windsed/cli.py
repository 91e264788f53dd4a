"""Config-driven command line: data prep (kl), single dispatch evaluation
(dispatch), and the MC-vs-PCE convergence experiment (study).

Exit codes: 0 success, 2 config or argument error, 3 data error,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__, datagen, estimate, forecast, wind_kl
from .grid_model import CaseFormatError, GridCase, load_case
from .lp_solver import LpError
from .pce import MAX_LEVEL, ModelEvaluationError
from .sed_model import DispatchError, SedEvaluator
from .wind_kl import WindDataError

SCHEMA = """\
# windsed experiment config (YAML).  Scalars shown with defaults.
case: data/case3.txt        # case file path (docs/case_format.md)
segments: 3                 # piecewise-linear cost segments
seed: 42                    # master seed (uint64)
out: out                    # output directory
jobs: 1                     # worker processes for model evaluations

wind:                       # input for `kl`; either block may be omitted
  data:                     # site -> wind CSV (timestamp,speed_mps,power_mw)
    site_a: path/to/site_a.csv
  synthetic:                # or generate synthetic CSVs into <out>/
    days: 93
    start: "2004-01-01"
    sites:
      site_a: {matern_l: 11.4, matern_nu: 0.56, sigma_w: 0.30, mean_wind: 8.0}

forecast:                   # required by `dispatch` and `study`
  sigma_p: 0.35             # relative day-ahead power uncertainty
  truncation: 6             # KL modes per site
  nameplate: 150.0          # default power-curve nameplate (MW)
  sites:                    # labels must match the case's RENEWABLE block
    site_a: {mean_wind: 8.0, matern_l: 11.4, matern_nu: 0.56}
  dependence:               # groups of [site, mode] sharing one germ
    - [[site_a, 1], [site_b, 1]]

pce:
  levels: [1, 2]

mc:
  schedule: [10, 100]
  realizations: 2
"""


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


@dataclass
class ExperimentConfig:
    case_path: str
    segments: int = 3
    seed: int = 42
    out: str = "out"
    jobs: int = 1
    wind_data: dict = field(default_factory=dict)
    wind_synthetic: dict = field(default_factory=dict)
    forecast: dict = field(default_factory=dict)
    pce_levels: tuple = (1, 2)
    mc_schedule: tuple = (10, 100)
    mc_realizations: int = 2

    def __post_init__(self):
        for name, value in (("segments", self.segments), ("jobs", self.jobs),
                            ("mc.realizations", self.mc_realizations)):
            if value < 1:
                raise ConfigError(f"`{name}` must be at least 1, got {value}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"`seed` must fit in a uint64, got {self.seed}")
        for name, values, top in (("pce.levels", self.pce_levels, MAX_LEVEL),
                                  ("mc.schedule", self.mc_schedule, float("inf"))):
            if len(values) < 2 or len(set(values)) < len(values) or not all(
                    1 <= v <= top for v in values):
                raise ConfigError(f"`{name}` needs two or more distinct values in "
                                  f"1..{top}, got {list(values)}")

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a mapping")
        known = {"case", "segments", "seed", "out", "jobs", "wind", "forecast",
                 "pce", "mc"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "case" not in raw:
            raise ConfigError("config needs a `case` path")
        wind = raw.get("wind") or {}
        pce_block = _block(raw, "pce", {"levels"})
        mc_block = _block(raw, "mc", {"schedule", "realizations"})
        return cls(
            case_path=str(raw["case"]),
            segments=_integer(raw.get("segments", 3), "segments"),
            seed=_integer(raw.get("seed", 42), "seed"),
            out=str(raw.get("out", "out")),
            jobs=_integer(raw.get("jobs", 1), "jobs"),
            wind_data=dict(wind.get("data") or {}),
            wind_synthetic=dict(wind.get("synthetic") or {}),
            forecast=dict(raw.get("forecast") or {}),
            pce_levels=_integers(pce_block.get("levels", (1, 2)), "pce.levels"),
            mc_schedule=_integers(mc_block.get("schedule", (10, 100)), "mc.schedule"),
            mc_realizations=_integer(mc_block.get("realizations", 2), "mc.realizations"),
        )

    def digest(self) -> str:
        """Hash of the scientific configuration; workspace knobs (out, jobs)
        do not affect results and are excluded."""
        payload = {k: v for k, v in self.__dict__.items()
                   if k not in ("out", "jobs")}
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def _integer(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"`{name}` must be an integer, got {value!r}") from None


def _integers(values, name: str) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"`{name}` must be a list of integers, got {values!r}")
    return tuple(_integer(v, name) for v in values)


def _positive(block: dict, key: str, where: str) -> float:
    """block[key] as a positive float, else a ConfigError naming where.key."""
    value = block.get(key)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not number > 0:
        raise ConfigError(f"`{where}.{key}` must be a positive number, got {value!r}")
    return number


def _block(raw: dict, name: str, known: set) -> dict:
    block = raw.get(name) or {}
    if not isinstance(block, dict):
        raise ConfigError(f"`{name}` must be a mapping")
    unknown = set(block) - known
    if unknown:
        raise ConfigError(f"unknown `{name}` keys: {sorted(unknown)}")
    return block


def _mean_profile(value) -> np.ndarray:
    arr = np.full(wind_kl.HOURS, float(value)) if np.isscalar(value) \
        else np.asarray(value, dtype=float)
    if arr.shape != (wind_kl.HOURS,):
        raise ConfigError("mean_wind must be a scalar or 24 values")
    return arr


def build_forecast_spec(cfg: ExperimentConfig, case: GridCase) -> forecast.ForecastSpec:
    block = cfg.forecast
    if not block:
        raise ConfigError("config has no `forecast` block")
    if "sites" not in block:
        raise ConfigError("forecast block missing 'sites'")
    site_block = block["sites"]
    sigma_p = _positive(block, "sigma_p", "forecast")
    truncation = _integer(block.get("truncation", 6), "forecast.truncation")
    if truncation < 1:
        raise ConfigError(f"`forecast.truncation` must be at least 1, got {truncation}")
    case_sites = {s.site_label: s for s in case.renewable_sites}
    if set(site_block) != set(case_sites):
        raise ConfigError(
            f"forecast sites {sorted(site_block)} do not match case sites "
            f"{sorted(case_sites)}")
    sites = []
    for label in (s.site_label for s in case.renewable_sites):
        entry = site_block[label]
        nameplate = case_sites[label].nameplate
        curve = datagen.default_power_curve(nameplate)
        mean_wind = _mean_profile(entry.get("mean_wind", 8.0))
        where = f"forecast.sites.{label}"
        kernel = forecast.MaternKernel(_positive(entry, "matern_l", where),
                                       _positive(entry, "matern_nu", where), 1.0)
        sigma_w = forecast.sigma_w_from_sigma_p(sigma_p, mean_wind, curve)
        sites.append(forecast.SiteModel(label, mean_wind, kernel, sigma_w,
                                        min(truncation, wind_kl.HOURS), curve))
    try:
        groups = tuple(tuple((str(site), int(mode)) for site, mode in group)
                       for group in block.get("dependence", ()))
        return forecast.ForecastSpec(tuple(sites), sigma_p, groups)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"`forecast.dependence`: {exc}") from None


def write_manifest(outdir: Path, cfg: ExperimentConfig, command: str):
    manifest = {
        "command": command,
        "config_sha256": cfg.digest(),
        "seed": cfg.seed,
        "jobs": cfg.jobs,
        "windsed_version": __version__,
        "numpy_version": np.__version__,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# -- kl -----------------------------------------------------------------------

def _wind_sources(cfg: ExperimentConfig, outdir: Path) -> dict:
    """site -> CSV path, generating synthetic files first when configured."""
    paths = dict(cfg.wind_data)
    synth = cfg.wind_synthetic
    if synth:
        days = int(synth.get("days", 93))
        start = str(synth.get("start", "2004-01-01"))
        for k, (label, entry) in enumerate(sorted((synth.get("sites") or {}).items())):
            kernel = forecast.MaternKernel(float(entry["matern_l"]),
                                           float(entry["matern_nu"]), 1.0)
            site = datagen.SyntheticSite(label, kernel,
                                         float(entry.get("sigma_w", 0.3)),
                                         float(entry.get("mean_wind", 8.0)))
            rows = datagen.synthetic_wind_table(site, days, cfg.seed + k, start=start)
            path = outdir / f"wind_{label}.csv"
            datagen.write_wind_csv(path, rows)
            paths[label] = str(path)
    if not paths:
        raise ConfigError("kl needs wind.data paths or a wind.synthetic block")
    return paths


def cmd_kl(cfg: ExperimentConfig, outdir: Path) -> int:
    paths = _wind_sources(cfg, outdir)
    bases = {}
    xi_by_site = {}
    varfrac_rows = ["site,n_modes,percent"]
    ks_rows = ["site,mode,ks_distance"]
    fit_rows = ["site,length_scale,smoothness"]
    for label in sorted(paths):
        records, _scatter = datagen.read_wind_csv(paths[label])
        samples = wind_kl.hourly_average(records, label)
        cov = wind_kl.empirical_covariance(samples)
        basis = wind_kl.kl_decompose(cov, samples.samples.mean(axis=0))
        bases[label] = basis
        (outdir / f"klbasis_{label}.txt").write_text(basis.to_text(),
                                                     encoding="utf-8")
        if basis.eigenvalues.sum() == 0:
            print(f"kl: site {label}: degenerate field (all eigenvalues zero)")
        for n in range(1, wind_kl.HOURS + 1):
            varfrac_rows.append(
                f"{label},{n},{wind_kl.variance_fraction(basis, n)!r}")
        xi, _skipped = wind_kl.project_samples(basis, samples)
        xi_by_site[label] = xi
        for mode in range(min(15, wind_kl.HOURS)):
            if basis.eigenvalues[mode] > 1e-12:
                ks_rows.append(
                    f"{label},{mode + 1},{wind_kl.compare_to_normal(xi[:, mode])!r}")
        try:
            fit = forecast.fit_matern(cov)
            fit_rows.append(f"{label},{fit.length_scale!r},{fit.smoothness!r}")
        except forecast.ForecastError:
            fit_rows.append(f"{label},,")
    dcor_rows = ["site_a,site_b,mode,dcor"]
    labels = sorted(xi_by_site)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            n = min(len(xi_by_site[a]), len(xi_by_site[b]))
            for mode in range(4):
                d = wind_kl.distance_correlation(xi_by_site[a][:n, mode],
                                                 xi_by_site[b][:n, mode])
                dcor_rows.append(f"{a},{b},{mode + 1},{d!r}")
    (outdir / "variance_fraction.csv").write_text("\n".join(varfrac_rows) + "\n")
    (outdir / "ks_normal.csv").write_text("\n".join(ks_rows) + "\n")
    (outdir / "dcor_modes.csv").write_text("\n".join(dcor_rows) + "\n")
    (outdir / "matern_fit.csv").write_text("\n".join(fit_rows) + "\n")
    print(f"kl: wrote bases and diagnostics for {len(paths)} site(s) to {outdir}")
    return 0


# -- dispatch -------------------------------------------------------------------

def _parse_germ(text: str, dimension: int) -> np.ndarray:
    try:
        germ = np.array([float(v) for v in text.split(",")])
    except ValueError:
        germ = np.empty(0)
    if germ.shape != (dimension,) or not np.all(np.isfinite(germ)):
        raise ConfigError(f"--germ needs {dimension} finite comma-separated "
                          f"numbers, got {text!r}")
    return germ


def cmd_dispatch(cfg: ExperimentConfig, outdir: Path, germ_arg: str | None,
                 scenario_file: str | None, scenario_index: int,
                 dump_lp: bool) -> int:
    case = load_case(cfg.case_path)
    spec = build_forecast_spec(cfg, case)
    if scenario_file:
        try:
            scen = forecast.ScenarioSet.from_binary(Path(scenario_file).read_bytes())
        except (struct.error, ValueError) as exc:
            raise DataError(f"{scenario_file} is not a scenario dump: {exc}") from None
        if not 0 <= scenario_index < len(scen):
            raise ConfigError(f"--scenario-index {scenario_index} is outside "
                              f"0..{len(scen) - 1} of {scenario_file}")
        germ = scen.germs[scenario_index]
    elif germ_arg:
        germ = _parse_germ(germ_arg, spec.dimension)
    else:
        germ = np.zeros(spec.dimension)
    evaluator = SedEvaluator(case, spec, cfg.segments)
    sol = evaluator.solve(germ)
    if dump_lp:
        (outdir / "dispatch.lp").write_text(evaluator.inst.lp.to_text(),
                                            encoding="utf-8")
    (outdir / "dispatch.csv").write_text(sol.to_csv(), encoding="utf-8")
    summary = {
        "objective": sol.objective,
        "total_shed_mw": sol.total_shed(),
        "iterations": sol.iterations,
        "germ": [float(v) for v in germ],
    }
    (outdir / "dispatch_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"dispatch: Q = {sol.objective:.2f} $, shed = {sol.total_shed():.3f} MWh")
    return 0


# -- study ----------------------------------------------------------------------

def _verify_report(report: estimate.ConvergenceReport) -> list:
    problems = []
    c0 = {r.level: r.c0 for r in report.pce_records}
    levels = sorted(c0)
    for lvl, _n, err in report.pce_errors:
        nxt = levels[levels.index(lvl) + 1]
        want = abs(c0[lvl] - c0[nxt]) / abs(c0[nxt])
        if not np.isfinite(err) or abs(err - want) > 1e-12 * (1 + want):
            problems.append(f"PCE error at level {lvl} inconsistent with c0 records")
    means = {}
    for rec in report.mc_records:
        means.setdefault(rec.n_samples, {})[rec.realization] = rec.mean
    sizes = sorted(means)
    for n, j, err in report.mc_errors:
        nxt = sizes[sizes.index(n) + 1]
        grand = float(np.mean(list(means[nxt].values())))
        want = abs(means[n][j] - grand) / abs(grand)
        if abs(err - want) > 1e-12 * (1 + want):
            problems.append(f"MC error at ({n},{j}) inconsistent with means")
    return problems


def cmd_study(cfg: ExperimentConfig, outdir: Path, verify: bool) -> int:
    case = load_case(cfg.case_path)
    spec = build_forecast_spec(cfg, case)
    model = SedEvaluator(case, spec, cfg.segments)
    report = estimate.convergence_study(
        model, spec.dimension, levels=cfg.pce_levels,
        mc_schedule=cfg.mc_schedule, realizations=cfg.mc_realizations,
        seed=cfg.seed, jobs=cfg.jobs)
    (outdir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (outdir / "report_long.csv").write_text(report.long_table(), encoding="utf-8")
    for lvl, _n, err in report.pce_errors:
        print(f"study: E_PC at level {lvl}: {err:.3e}")
    if report.mc_fit:
        print(f"study: fitted MC rate b = {report.mc_fit.rate:.3f}")
    if report.pce_fit:
        print(f"study: fitted PCE rate b = {report.pce_fit.rate:.3f}")
    if verify:
        problems = _verify_report(report)
        if problems:
            for p in problems:
                print(f"study: VERIFY FAILED: {p}", file=sys.stderr)
            return 4
        print("study: verify pass: report invariants hold")
    return 0


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="windsed",
        description="Stochastic economic dispatch under wind uncertainty")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the documented config schema and exit")
    sub = parser.add_subparsers(dest="command")
    for name, helptext in (("kl", "build KL bases and diagnostics from wind data"),
                           ("dispatch", "solve one dispatch scenario"),
                           ("study", "run the MC vs PCE convergence study")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--jobs", type=int, default=None,
                       help="override the config worker count")
        p.add_argument("--out", default=None, help="override the output dir")
        if name == "dispatch":
            p.add_argument("--germ", default=None,
                           help="comma-separated germ vector (default: zeros)")
            p.add_argument("--scenario-file", default=None,
                           help="binary ScenarioSet dump to read a germ from")
            p.add_argument("--scenario-index", type=int, default=0)
            p.add_argument("--dump-lp", action="store_true",
                           help="write the assembled LP in text form")
        if name == "study":
            p.add_argument("--verify", action="store_true",
                           help="re-check report invariants after the run")
    args = parser.parse_args(argv)
    if args.print_schema:
        print(SCHEMA, end="")
        return 0
    if not args.command:
        parser.print_help()
        return 2
    try:
        overrides = {key: getattr(args, key) for key in ("seed", "jobs", "out")
                     if getattr(args, key) is not None}
        cfg = dataclasses.replace(ExperimentConfig.load(args.config), **overrides)
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "kl":
            rc = cmd_kl(cfg, outdir)
        elif args.command == "dispatch":
            rc = cmd_dispatch(cfg, outdir, args.germ, args.scenario_file,
                              args.scenario_index, args.dump_lp)
        else:
            rc = cmd_study(cfg, outdir, args.verify)
        if rc == 0:
            write_manifest(outdir, cfg, args.command)
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CaseFormatError, WindDataError, DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (LpError, DispatchError, forecast.ForecastError,
            ModelEvaluationError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven command line: data prep (kl), single dispatch evaluation
(dispatch), and the MC-vs-PCE convergence experiment (study).

Exit codes: 0 success, 2 config or argument error, 3 data error,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__, datagen, estimate, forecast, wind_kl
from .grid_model import CaseFormatError, GridCase, load_case
from .lp_solver import LpError
from .pce import MAX_LEVEL
from .sed_model import DispatchError, SedEvaluator, build_instance, solve_dispatch
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
                            # mean_wind, here as under forecast: one speed
                            # (m/s) or a list of 24 hourly speeds

forecast:                   # required by `dispatch` and `study`
  sigma_p: 0.35             # relative day-ahead power uncertainty
  truncation: 6             # KL modes per site, 1..24
  sites:                    # labels must match the case's RENEWABLE block
    site_a: {mean_wind: 8.0, matern_l: 11.4, matern_nu: 0.56}
    site_b: {mean_wind: 8.5, matern_l: 9.79, matern_nu: 0.78}
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
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date that does not exist
            raise ConfigError(f"config is not valid YAML: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a mapping")
        _check_keys(raw)
        known = {"case", "segments", "seed", "out", "jobs", "wind", "forecast",
                 "pce", "mc"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "case" not in raw:
            raise ConfigError("config needs a `case` path")
        wind = _block(raw, "wind", {"data", "synthetic"})
        pce_block = _block(raw, "pce", {"levels"})
        mc_block = _block(raw, "mc", {"schedule", "realizations"})
        wind_data = _block(wind, "data", where="wind.")
        for label, path in wind_data.items():
            if not isinstance(path, str):
                raise ConfigError(f"`wind.data.{label}` must be a file path, got {path!r}")
        return cls(
            case_path=str(raw["case"]),
            segments=_integer(raw.get("segments", 3), "segments"),
            seed=_integer(raw.get("seed", 42), "seed"),
            out=str(raw.get("out", "out")),
            jobs=_integer(raw.get("jobs", 1), "jobs"),
            wind_data=dict(wind_data),
            wind_synthetic=dict(_block(wind, "synthetic", {"days", "start", "sites"},
                                       where="wind.")),
            forecast=dict(_block(raw, "forecast",
                                 {"sigma_p", "truncation", "sites", "dependence"})),
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


def _check_keys(value, where: str = ""):
    """ConfigError naming the first mapping key anywhere in the config that
    is not a string, such as a site label YAML read as a number."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                name = f"`{where}`" if where else "config"
                raise ConfigError(f"{name} keys must be strings, got {key!r}")
            _check_keys(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for item in value:
            _check_keys(item, where)


def _integer(value, name: str) -> int:
    """value as an int when it is an integer or an integral float, else a
    ConfigError naming `name`; YAML's `yes` reads as a bool, not an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"`{name}` must be an integer, got {value!r}")


def _integers(values, name: str) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"`{name}` must be a list of integers, got {values!r}")
    return tuple(_integer(v, name) for v in values)


def _number(value) -> float:
    """value as a float, or nan when it is no number: YAML's `yes` reads as
    a bool, and an integer too large for a float overflows."""
    if isinstance(value, bool):
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _positive(block: dict, key: str, where: str, default=None) -> float:
    """block[key] (or the default) as a positive finite float, else a
    ConfigError naming where.key."""
    value = block.get(key, default)
    number = _number(value)
    if not 0 < number < float("inf"):
        raise ConfigError(f"`{where}.{key}` must be a positive finite number, "
                          f"got {value!r}")
    return number


def _block(raw: dict, name: str, known: set | None = None, where: str = "") -> dict:
    """raw[name] as a mapping ({} when absent or empty), with no keys outside
    `known` when that is given; errors name the key as where + name."""
    block = raw.get(name) or {}
    if not isinstance(block, dict):
        raise ConfigError(f"`{where}{name}` must be a mapping")
    if known is not None and set(block) - known:
        raise ConfigError(
            f"unknown `{where}{name}` keys: {sorted(set(block) - known)}")
    return block


def _site_shape(entry: dict, where: str) -> tuple[np.ndarray, forecast.MaternKernel]:
    """A site entry's mean wind profile and Matern kernel: `mean_wind` is one
    positive speed or 24 of them (default 8.0), `matern_l` and `matern_nu`
    positive numbers.  Errors name the key as where.key."""
    value = entry.get("mean_wind", 8.0)
    speeds = value if isinstance(value, list) else [value] * wind_kl.HOURS
    arr = np.array([_number(v) for v in speeds])
    if arr.shape != (wind_kl.HOURS,) or not np.all((arr > 0) & np.isfinite(arr)):
        raise ConfigError(f"`{where}.mean_wind` must be a positive finite number "
                          f"or 24 of them, got {value!r}")
    return arr, forecast.MaternKernel(_positive(entry, "matern_l", where),
                                      _positive(entry, "matern_nu", where))


def build_forecast_spec(cfg: ExperimentConfig, case: GridCase) -> forecast.ForecastSpec:
    block = cfg.forecast
    if not block:
        raise ConfigError("config has no `forecast` block")
    if "sites" not in block:
        raise ConfigError("forecast block missing 'sites'")
    site_block = _block(block, "sites", where="forecast.")
    sigma_p = _positive(block, "sigma_p", "forecast")
    truncation = _integer(block.get("truncation", 6), "forecast.truncation")
    if not 1 <= truncation <= wind_kl.HOURS:
        raise ConfigError(f"`forecast.truncation` must be in 1..{wind_kl.HOURS}, "
                          f"got {truncation}")
    case_sites = {s.site_label: s for s in case.renewable_sites}
    if set(site_block) != set(case_sites):
        raise ConfigError(
            f"forecast sites {sorted(site_block)} do not match case sites "
            f"{sorted(case_sites)}")
    sites = []
    for label in (s.site_label for s in case.renewable_sites):
        entry = _block(site_block, label, {"mean_wind", "matern_l", "matern_nu"},
                       where="forecast.sites.")
        mean_wind, kernel = _site_shape(entry, f"forecast.sites.{label}")
        curve = datagen.default_power_curve(case_sites[label].nameplate)
        sigma_w = forecast.sigma_w_from_sigma_p(sigma_p, mean_wind, curve)
        sites.append(forecast.SiteModel(label, mean_wind, kernel, sigma_w, truncation,
                                        curve))
    dependence = block.get("dependence", ())
    if not isinstance(dependence, (list, tuple)):
        raise ConfigError(f"`forecast.dependence` must be a list of groups, "
                          f"got {dependence!r}")
    groups = []
    for k, group in enumerate(dependence, start=1):
        if not (isinstance(group, (list, tuple)) and all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in group)):
            raise ConfigError(f"`forecast.dependence` group {k} must be a list of "
                              f"[site, mode] pairs, got {group!r}")
        groups.append(tuple((str(site), _integer(mode, "forecast.dependence"))
                            for site, mode in group))
    try:
        return forecast.ForecastSpec(tuple(sites), tuple(groups))
    except ValueError as exc:
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
    text = json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False)
    (outdir / "manifest.json").write_text(text + "\n", encoding="utf-8")


# -- kl -----------------------------------------------------------------------

def _wind_records(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """site -> (timestamp, speed) records, and site -> the rows of each
    synthetic site's CSV, for `cmd_kl` to write on success.  A synthetic
    site replaces a `wind.data` file of its label; its records are its rows,
    the floats its CSV reads back (`float(repr(s)) == s`)."""
    tables = {}
    synth = cfg.wind_synthetic
    if synth:
        days = _integer(synth.get("days", 93), "wind.synthetic.days")
        if days < 2:  # a covariance needs two days
            raise ConfigError(f"`wind.synthetic.days` must be at least 2, got {days}")
        start = str(synth.get("start", "2004-01-01"))
        try:
            datetime.date.fromisoformat(start)
        except ValueError:
            raise ConfigError(f"`wind.synthetic.start` must be a YYYY-MM-DD date, "
                              f"got {start!r}") from None
        site_block = _block(synth, "sites", where="wind.synthetic.")
        curve = datagen.default_power_curve()
        sites = []
        for label in sorted(site_block):
            entry = _block(site_block, label,
                           {"matern_l", "matern_nu", "sigma_w", "mean_wind"},
                           where="wind.synthetic.sites.")
            where = f"wind.synthetic.sites.{label}"
            mean_wind, kernel = _site_shape(entry, where)
            sigma_w = _positive(entry, "sigma_w", where, 0.3)
            sites.append(forecast.SiteModel(label, mean_wind, kernel, sigma_w,
                                            wind_kl.HOURS, curve))
        for k, site in enumerate(sites):  # seed + k wraps: any uint64 seed is allowed
            tables[site.label] = datagen.synthetic_wind_table(
                site, days, (cfg.seed + k) % 2 ** 64, start=start)
    records = {label: datagen.read_wind_csv(path)
               for label, path in sorted(cfg.wind_data.items()) if label not in tables}
    records.update((label, [row[:2] for row in rows]) for label, rows in tables.items())
    if not records:
        raise ConfigError("kl needs wind.data paths or a wind.synthetic block")
    return records, tables


def cmd_kl(cfg: ExperimentConfig, outdir: Path) -> int:
    """Bases and diagnostics per site, written only once every site is read,
    checked and decomposed, so a failure leaves `outdir` as it was."""
    records, tables = _wind_records(cfg)
    texts = {}  # file name -> contents
    xi_by_day = {}  # site -> date -> mode coordinates of that day
    varfrac_rows = ["site,n_modes,percent"]
    ks_rows = ["site,mode,ks_distance"]
    fit_rows = ["site,length_scale,smoothness"]
    for label in sorted(records):
        samples, days, dropped = wind_kl.hourly_average(records[label], label)
        if any(dropped.values()):
            print(f"kl: site {label}: dropped {sum(dropped.values())} day(s) {dropped}")
        cov = wind_kl.empirical_covariance(samples)
        basis = wind_kl.kl_decompose(cov, samples.mean(axis=0))
        texts[f"klbasis_{label}.txt"] = basis.to_text()
        if basis.eigenvalues.sum() == 0:
            print(f"kl: site {label}: degenerate field (all eigenvalues zero)")
        for n in range(1, wind_kl.HOURS + 1):
            varfrac_rows.append(
                f"{label},{n},{wind_kl.variance_fraction(basis, n)!r}")
        xi, skipped = wind_kl.project_samples(basis, samples)
        xi_by_day[label] = dict(zip(days, xi))
        for mode in range(min(15, wind_kl.HOURS)):
            if mode not in skipped:
                ks_rows.append(
                    f"{label},{mode + 1},{wind_kl.compare_to_normal(xi[:, mode])!r}")
        try:
            fit = forecast.fit_matern(cov)
            fit_rows.append(f"{label},{fit.length_scale!r},{fit.smoothness!r}")
        except forecast.ForecastError:
            fit_rows.append(f"{label},,")
    dcor_rows = ["site_a,site_b,mode,dcor"]
    labels = sorted(xi_by_day)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            shared = sorted(xi_by_day[a].keys() & xi_by_day[b].keys())
            if len(shared) < 2:
                print(f"kl: sites {a} and {b} share {len(shared)} day(s); "
                      "dcor needs 2")
                dcor_rows += [f"{a},{b},{mode + 1}," for mode in range(4)]
                continue
            xa, xb = (np.array([xi_by_day[site][day] for day in shared]) for site in (a, b))
            for mode in range(4):
                d = wind_kl.distance_correlation(xa[:, mode], xb[:, mode])
                dcor_rows.append(f"{a},{b},{mode + 1},{d!r}")
    for name, rows in (("variance_fraction", varfrac_rows), ("ks_normal", ks_rows),
                       ("dcor_modes", dcor_rows), ("matern_fit", fit_rows)):
        texts[f"{name}.csv"] = "\n".join(rows) + "\n"
    for label, rows in tables.items():
        datagen.write_wind_csv(outdir / f"wind_{label}.csv", rows)
    for name, text in texts.items():
        (outdir / name).write_text(text, encoding="utf-8")
    print(f"kl: wrote bases and diagnostics for {len(records)} site(s) to {outdir}")
    return 0


# -- dispatch -------------------------------------------------------------------

def _parse_germ(text: str, dimension: int, where: str = "--germ",
                error: type = ConfigError) -> np.ndarray:
    """`dimension` finite comma-separated numbers, else an `error` naming
    where they came from."""
    try:
        germ = np.array([float(v) for v in text.split(",")])
    except ValueError:
        germ = np.empty(0)
    if germ.shape != (dimension,) or not np.all(np.isfinite(germ)):
        raise error(f"{where} needs {dimension} finite comma-separated "
                    f"numbers, got {text!r}")
    return germ


def _read_germ(path: str, index: int, dimension: int) -> np.ndarray:
    """The index-th germ of a germ list: one germ per non-blank line, as
    `--germ` takes it (`np.savetxt(path, germs, delimiter=",")` writes one)."""
    if not path:  # Path("") is the working directory
        raise DataError("--scenario-file names no file")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    if not lines:
        raise DataError(f"{path} holds no germs")
    if not 0 <= index < len(lines):
        raise ConfigError(f"--scenario-index {index} is outside "
                          f"0..{len(lines) - 1} of {path}")
    lineno, line = lines[index]
    return _parse_germ(line, dimension, f"{path}: line {lineno}", DataError)


def cmd_dispatch(cfg: ExperimentConfig, outdir: Path, germ_arg: str | None,
                 scenario_file: str | None, scenario_index: int | None,
                 dump_lp: bool) -> int:
    if germ_arg is not None and scenario_file is not None:  # no flag goes unread
        raise ConfigError("--germ and --scenario-file both give the germ; pass one")
    if scenario_index is not None and scenario_file is None:
        raise ConfigError("--scenario-index picks a germ of --scenario-file, "
                          "which is not given")
    case = load_case(cfg.case_path)
    spec = build_forecast_spec(cfg, case)
    if scenario_file is not None:  # an empty value is refused, not ignored
        germ = _read_germ(scenario_file, scenario_index or 0, spec.dimension)
    elif germ_arg is not None:
        germ = _parse_germ(germ_arg, spec.dimension)
    else:
        germ = np.zeros(spec.dimension)
    power = spec.power(germ)
    try:
        sol = solve_dispatch(case, power, cfg.segments)
    except (DispatchError, LpError) as exc:
        raise DispatchError(f"dispatch at germ {germ!r}: {exc}") from exc
    if dump_lp:
        (outdir / "dispatch.lp").write_text(
            build_instance(case, power, cfg.segments).lp.to_text(), encoding="utf-8")
    (outdir / "dispatch.csv").write_text(sol.to_csv(), encoding="utf-8")
    summary = {
        "objective": sol.objective,
        "total_shed_mw": sol.total_shed(),
        "iterations": sol.iterations,
        "germ": [float(v) for v in germ],
    }
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    (outdir / "dispatch_summary.json").write_text(text + "\n", encoding="utf-8")
    print(f"dispatch: Q = {sol.objective:.2f} $, shed = {sol.total_shed():.3f} MWh")
    return 0


# -- study ----------------------------------------------------------------------

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
    for r in report.rows:
        if r.method == "pce" and r.error is not None:
            print(f"study: E_PC at level {r.resolution}: {r.error:.3e}")
    if report.mc_fit:
        print(f"study: fitted MC rate b = {report.mc_fit.rate:.3f}")
    if report.pce_fit:
        print(f"study: fitted PCE rate b = {report.pce_fit.rate:.3f}")
    if verify:
        problems = report.problems()
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
                           help="germ list to read a germ from: one germ per "
                                "line, comma-separated as for --germ")
            p.add_argument("--scenario-index", type=int, default=None,
                           help="which germ of --scenario-file (default: 0)")
            p.add_argument("--dump-lp", action="store_true",
                           help="write the assembled LP in text form")
        if name == "study":
            p.add_argument("--verify", action="store_true",
                           help="re-check report invariants after the run")
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--germ" in argv[:-1]:  # argparse takes a germ like -0.5,0 for an option
        k = argv.index("--germ")
        argv[k:k + 2] = [f"--germ={argv[k + 1]}"]
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
            estimate.ModelEvaluationError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic dispatch instance: network data, generator parameters, loads,
and the sectioned case-file parser (docs/case_format.md)."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class CaseFormatError(Exception):
    """Malformed case file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class Bus:
    id: int
    load: tuple  # MW demand per period, length T

    def __post_init__(self):
        if any(d < 0 for d in self.load):
            raise ValueError(f"bus {self.id}: negative load")


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: float  # per unit; susceptance is 1/reactance
    flow_min: float   # MW
    flow_max: float   # MW

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError("line endpoints must differ")
        if not (self.reactance > 0 and math.isfinite(1.0 / self.reactance)):
            raise ValueError(
                f"reactance must be positive with a finite reciprocal, got {self.reactance}")
        if self.flow_min > self.flow_max:
            raise ValueError("flow_min exceeds flow_max")

    @property
    def susceptance(self) -> float:
        return 1.0 / self.reactance


@dataclass(frozen=True)
class ThermalGenerator:
    bus: int
    p_min: float
    p_max: float
    cost_const: float   # a_g, $ per on-period
    cost_linear: float  # b_g, $/MW
    cost_quad: float    # c_g, $/MW^2
    ramp_up: float
    ramp_down: float
    startup: float
    shutdown: float
    commitment: tuple   # binary, length T

    def __post_init__(self):
        if not 0 <= self.p_min <= self.p_max:
            raise ValueError("generator limits must satisfy 0 <= p_min <= p_max")
        if self.cost_quad < 0:
            raise ValueError("quadratic cost coefficient must be nonnegative")
        # a convex cost is largest at an end of [p_min, p_max]
        if not all(math.isfinite(self.quadratic_cost(p)) for p in (self.p_min, self.p_max)):
            raise ValueError("cost must be finite from p_min to p_max")
        if min(self.ramp_up, self.ramp_down, self.startup, self.shutdown) < 0:
            raise ValueError("ramp and startup rates must be nonnegative")
        if any(x not in (0, 1) for x in self.commitment):
            raise ValueError("commitment entries must be 0/1")

    def quadratic_cost(self, p):
        return self.cost_const + self.cost_linear * p + self.cost_quad * p * p


@dataclass(frozen=True)
class RenewableSite:
    bus: int
    site_label: str
    nameplate: float  # MW

    def __post_init__(self):
        if not 0.0 < self.nameplate < math.inf:
            raise ValueError(f"nameplate must be positive and finite, got {self.nameplate}")


@dataclass(frozen=True)
class GridCase:
    buses: tuple
    lines: tuple
    generators: tuple
    renewable_sites: tuple
    periods: int
    shed_penalty: float = 5000.0  # $/MWh
    base_mva: float = 100.0

    def __post_init__(self):
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        if self.shed_penalty <= 0:
            raise ValueError("shed penalty must be positive")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate bus id")
        idset = set(ids)
        for ln in self.lines:
            for b in (ln.from_bus, ln.to_bus):
                if b not in idset:
                    raise ValueError(f"line references unknown bus {b}")
        for g in self.generators:
            if g.bus not in idset:
                raise ValueError(f"generator references unknown bus {g.bus}")
            if len(g.commitment) != self.periods:
                raise ValueError("commitment vector length != periods")
        for s in self.renewable_sites:
            if s.bus not in idset:
                raise ValueError(f"renewable site references unknown bus {s.bus}")
        for b in self.buses:
            if len(b.load) != self.periods:
                raise ValueError(f"bus {b.id}: load vector length != periods")
        if np.any(self.islands()):
            warnings.warn("case network is not connected", stacklevel=2)

    def islands(self) -> np.ndarray:
        """Each bus's island, islands numbered in the order of their first
        bus, each found by a breadth-first search over the lines."""
        pos = self.bus_index()
        neighbours = [[] for _ in self.buses]
        for ln in self.lines:
            neighbours[pos[ln.from_bus]].append(pos[ln.to_bus])
            neighbours[pos[ln.to_bus]].append(pos[ln.from_bus])
        island = np.full(len(self.buses), -1)
        count = 0
        for first in range(len(self.buses)):
            if island[first] >= 0:
                continue
            island[first] = count
            queue = [first]
            for bus in queue:
                for other in neighbours[bus]:
                    if island[other] < 0:
                        island[other] = count
                        queue.append(other)
            count += 1
        return island

    @property
    def reference_bus(self) -> int:
        """Lowest-id bus carrying a generator (thermal or renewable)."""
        gen_buses = {g.bus for g in self.generators} | {s.bus for s in self.renewable_sites}
        if not gen_buses:
            return self.buses[0].id
        return min(gen_buses)

    def bus_index(self) -> dict:
        return {b.id: k for k, b in enumerate(self.buses)}


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """Convex piecewise-linear interpolant of the quadratic production cost."""

    breakpoints: tuple
    slopes: tuple      # one per segment, nondecreasing
    value_at_first: float

    def __call__(self, p):
        bp = self.breakpoints
        if not bp[0] - 1e-9 <= p <= bp[-1] + 1e-9:
            raise ValueError(f"power {p} outside [{bp[0]}, {bp[-1]}]")
        val = self.value_at_first
        for k, s in enumerate(self.slopes):
            seg = min(max(p - bp[k], 0.0), bp[k + 1] - bp[k])
            val += s * seg
        return val


def linearize_cost(gen: ThermalGenerator, segments: int = 3) -> PiecewiseLinearCost:
    """Secant interpolation of the quadratic cost at equally spaced breakpoints
    on [p_min, p_max]; slopes are nondecreasing because cost_quad >= 0."""
    if segments < 1:
        raise ValueError("segments must be >= 1")
    if gen.p_max == gen.p_min:
        return PiecewiseLinearCost(
            (gen.p_min, gen.p_max), (gen.cost_linear,), gen.quadratic_cost(gen.p_min)
        )
    bp = np.linspace(gen.p_min, gen.p_max, segments + 1)
    vals = [gen.quadratic_cost(p) for p in bp]
    slopes = tuple(
        (vals[k + 1] - vals[k]) / (bp[k + 1] - bp[k]) for k in range(segments)
    )
    return PiecewiseLinearCost(tuple(bp.tolist()), slopes, vals[0])


# ---------------------------------------------------------------------------
# case file parsing (sectioned whitespace tables, '#' comments)

_SECTIONS = ("CASE", "BUS", "BRANCH", "GEN", "RENEWABLE", "COMMITMENT")


def _integer(value: float, what: str, lineno: int) -> int:
    """`value` as an int, else a CaseFormatError at `lineno` naming `what`."""
    if not value.is_integer():
        raise CaseFormatError(f"{what} must be an integer, got {value!r}", lineno)
    return int(value)


def parse_case(text: str) -> GridCase:
    """Parse the documented case format into a validated GridCase."""
    periods = None
    options = {"SHED_PENALTY": 5000.0, "BASE_MVA": 100.0}
    bus_rows, branch_rows, gen_rows, ren_rows, commit_rows = [], [], [], [], []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        token = line.split()[0].upper()
        if token in _SECTIONS:
            section = token
            if token == "CASE":
                for kv in line.split()[1:]:
                    if "=" not in kv:
                        raise CaseFormatError(f"bad CASE option {kv!r}", lineno)
                    key, val = kv.split("=", 1)
                    key = key.upper()
                    try:
                        if key == "T":
                            periods = int(val)
                            if periods < 1:
                                raise CaseFormatError(f"T must be at least 1, got {val}",
                                                      lineno)
                        elif key in options:
                            options[key] = float(val)
                            if not 0.0 < options[key] < float("inf"):
                                raise CaseFormatError(
                                    f"{key} must be positive and finite, got {val}", lineno)
                        else:
                            raise CaseFormatError(f"unknown CASE option {key}", lineno)
                    except ValueError as exc:
                        raise CaseFormatError(str(exc), lineno) from None
            continue
        if section is None:
            raise CaseFormatError("data before any section header", lineno)
        if section == "RENEWABLE":
            parts = line.split()
        else:
            try:
                parts = [float(tok) for tok in line.split()]
            except ValueError:
                raise CaseFormatError(f"non-numeric token in {section}", lineno) from None
            # a flow limit may be -inf or inf (an unlimited line); no other number
            bounded = parts[:3] if section == "BRANCH" else parts
            if not all(map(math.isfinite, bounded)) or any(map(math.isnan, parts)):
                raise CaseFormatError(f"non-finite number in {section}", lineno)
        {
            "BUS": bus_rows, "BRANCH": branch_rows, "GEN": gen_rows,
            "RENEWABLE": ren_rows, "COMMITMENT": commit_rows, "CASE": [],
        }[section].append((lineno, parts))

    if periods is None:
        raise CaseFormatError("missing CASE section with T=<periods>")

    buses, idset = [], set()
    for lineno, row in bus_rows:
        if len(row) != 1 + periods:
            raise CaseFormatError(
                f"BUS row needs id plus {periods} load values, got {len(row)}", lineno)
        bus_id = _integer(row[0], "bus id", lineno)
        if bus_id in idset:
            raise CaseFormatError(f"duplicate bus id {bus_id}", lineno)
        idset.add(bus_id)
        try:
            buses.append(Bus(bus_id, tuple(row[1:])))
        except ValueError as exc:
            raise CaseFormatError(str(exc), lineno) from None

    lines = []
    for lineno, row in branch_rows:
        if len(row) != 5:
            raise CaseFormatError("BRANCH row needs: from to x_pu fmin fmax", lineno)
        f, t = (_integer(v, "branch bus id", lineno) for v in row[:2])
        if f not in idset or t not in idset:
            raise CaseFormatError(f"branch references unknown bus {f if f not in idset else t}", lineno)
        try:
            lines.append(Line(f, t, *row[2:]))
        except ValueError as exc:
            raise CaseFormatError(str(exc), lineno) from None

    commitments = {}
    for lineno, row in commit_rows:
        if len(row) != 1 + periods:
            raise CaseFormatError(
                f"COMMITMENT row needs gen index plus {periods} binaries", lineno)
        if any(v not in (0.0, 1.0) for v in row[1:]):
            raise CaseFormatError("commitment entries must be 0/1", lineno)
        gidx = _integer(row[0], "generator index", lineno)
        if not 0 <= gidx < len(gen_rows):
            raise CaseFormatError(f"COMMITMENT references unknown generator {gidx}", lineno)
        if gidx in commitments:
            raise CaseFormatError(f"second COMMITMENT row for generator {gidx}", lineno)
        commitments[gidx] = tuple(int(v) for v in row[1:])

    gens = []
    for k, (lineno, row) in enumerate(gen_rows):
        if len(row) != 10:
            raise CaseFormatError(
                "GEN row needs: bus pmin pmax a b c ramp_up ramp_down startup shutdown",
                lineno)
        bus = _integer(row[0], "generator bus id", lineno)
        if bus not in idset:
            raise CaseFormatError(f"generator references unknown bus {bus}", lineno)
        commit = commitments.get(k, tuple([1] * periods))
        try:
            gens.append(ThermalGenerator(bus, *row[1:], commitment=commit))
        except ValueError as exc:
            raise CaseFormatError(str(exc), lineno) from None

    sites, labels = [], set()
    for lineno, row in ren_rows:
        if len(row) != 3:
            raise CaseFormatError("RENEWABLE row needs: bus label nameplate_mw", lineno)
        try:
            bus, nameplate = float(row[0]), float(row[2])
        except ValueError:
            raise CaseFormatError("non-numeric token in RENEWABLE", lineno) from None
        bus = _integer(bus, "renewable site bus id", lineno)
        if bus not in idset:
            raise CaseFormatError(f"renewable site references unknown bus {bus}", lineno)
        if row[1] in labels:
            raise CaseFormatError(f"duplicate renewable site label {row[1]}", lineno)
        labels.add(row[1])
        try:
            sites.append(RenewableSite(bus, row[1], nameplate))
        except ValueError as exc:
            raise CaseFormatError(str(exc), lineno) from None

    return GridCase(tuple(buses), tuple(lines), tuple(gens), tuple(sites),
                    periods, options["SHED_PENALTY"], options["BASE_MVA"])


def load_case(path) -> GridCase:
    """The case in the file at `path`; every CaseFormatError names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_case(fh.read())
    except UnicodeDecodeError as exc:
        raise CaseFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except CaseFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from case_text import serialize_case
from windsed.grid_model import (Bus, CaseFormatError, GridCase, Line,
                                ThermalGenerator, linearize_cost, parse_case)

MINI_CASE = """
CASE T=2 SHED_PENALTY=5000.0
BUS
1 10.0 12.0
2 0.0 0.0
3 20.0 22.0
BRANCH
1 2 0.1 -100.0 100.0
2 3 0.2 -100.0 100.0
1 3 0.15 -100.0 100.0
GEN
1 0.0 50.0 10.0 20.0 0.1 50.0 50.0 50.0 50.0
2 0.0 40.0 12.0 25.0 0.05 40.0 40.0 40.0 40.0
"""


def test_parse_three_bus_fixture_echo(case3):
    assert len(case3.buses) == 3
    assert len(case3.lines) == 3
    assert len(case3.generators) == 2
    assert case3.periods == 24
    assert case3.shed_penalty == 5000.0


def test_118_bus_case_shape(case118):
    assert len(case118.buses) == 118
    assert len(case118.generators) == 54 - 3  # wind replaces three units
    assert len(case118.renewable_sites) == 3
    assert {s.bus for s in case118.renewable_sites} == {10, 69, 89}


def test_mini_case_defaults():
    case = parse_case(MINI_CASE)
    assert all(g.commitment == (1, 1) for g in case.generators)  # all-on default
    assert case.reference_bus == 1


def test_dangling_bus_reference_rejected():
    bad = MINI_CASE.replace("1 3 0.15 -100.0 100.0", "1 999 0.15 -100.0 100.0")
    with pytest.raises(CaseFormatError, match="999"):
        parse_case(bad)


def test_duplicate_bus_id_rejected():
    bad = MINI_CASE.replace("2 0.0 0.0", "1 0.0 0.0")
    with pytest.raises(CaseFormatError, match="duplicate"):
        parse_case(bad)


def test_syntax_error_carries_line_number():
    bad = MINI_CASE.replace("2 3 0.2 -100.0 100.0", "2 3 oops -100.0 100.0")
    with pytest.raises(CaseFormatError) as err:
        parse_case(bad)
    assert err.value.line is not None
    assert "line" in str(err.value)


def test_data_before_section_rejected():
    with pytest.raises(CaseFormatError):
        parse_case("1 2 3\nBUS\n")


def test_commitment_length_checked():
    bad = MINI_CASE + "COMMITMENT\n0 1\n"
    with pytest.raises(CaseFormatError):
        parse_case(bad)


def test_round_trip_is_identity(case3, case118):
    for case in (parse_case(MINI_CASE), case3, case118):
        text = serialize_case(case)
        again = parse_case(text)
        assert again == case
        assert serialize_case(again) == text  # bit-exact numeric text


def test_disconnected_network_warns():
    disconnected = """
CASE T=1
BUS
1 5.0
2 0.0
3 0.0
BRANCH
1 2 0.1 -10.0 10.0
GEN
1 0.0 10.0 0.0 1.0 0.0 10.0 10.0 10.0 10.0
"""
    with pytest.warns(UserWarning, match="not connected"):
        parse_case(disconnected)


def test_linearize_linear_cost_single_slope():
    gen = ThermalGenerator(1, 0.0, 10.0, 5.0, 3.0, 0.0, 10, 10, 10, 10,
                           commitment=(1,))
    pwl = linearize_cost(gen, segments=4)
    assert all(abs(s - 3.0) < 1e-12 for s in pwl.slopes)


def test_linearize_unit_quadratic_breakpoints():
    gen = ThermalGenerator(1, 0.0, 2.0, 0.0, 0.0, 1.0, 10, 10, 10, 10,
                           commitment=(1,))
    pwl = linearize_cost(gen, segments=2)
    assert pwl.breakpoints == (0.0, 1.0, 2.0)
    assert pwl.slopes == (1.0, 3.0)


def test_linearize_rejects_zero_segments():
    gen = ThermalGenerator(1, 0.0, 2.0, 0.0, 0.0, 1.0, 10, 10, 10, 10,
                           commitment=(1,))
    with pytest.raises(ValueError):
        linearize_cost(gen, segments=0)


@given(pmin=st.floats(0, 50), width=st.floats(0.5, 100),
       a=st.floats(0, 100), b=st.floats(0, 50), c=st.floats(0, 2),
       segments=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_linearization_dominates_quadratic(pmin, width, a, b, c, segments):
    gen = ThermalGenerator(1, pmin, pmin + width, a, b, c, 10, 10, 10, 10,
                           commitment=(1,))
    pwl = linearize_cost(gen, segments)
    assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(pwl.slopes, pwl.slopes[1:]))
    grid = np.linspace(gen.p_min, gen.p_max, 41)
    for p in grid:
        assert pwl(p) >= gen.quadratic_cost(p) - 1e-7 * (1 + abs(pwl(p)))
    for bp in pwl.breakpoints:
        assert abs(pwl(bp) - gen.quadratic_cost(bp)) < 1e-7 * (1 + abs(pwl(bp)))


def test_interpolation_gap_quadratic_in_segments():
    gen = ThermalGenerator(1, 0.0, 10.0, 0.0, 0.0, 1.0, 10, 10, 10, 10,
                           commitment=(1,))
    def max_gap(segments):
        pwl = linearize_cost(gen, segments)
        grid = np.linspace(0, 10, 2001)
        return max(pwl(p) - gen.quadratic_cost(p) for p in grid)
    g2, g4, g8 = max_gap(2), max_gap(4), max_gap(8)
    assert g4 == pytest.approx(g2 / 4, rel=0.05)
    assert g8 == pytest.approx(g4 / 4, rel=0.05)


def test_type_invariants():
    with pytest.raises(ValueError):
        Bus(1, (-1.0,))
    with pytest.raises(ValueError):
        Line(1, 1, 0.1, -10, 10)
    with pytest.raises(ValueError):
        Line(1, 2, -0.1, -10, 10)
    with pytest.raises(ValueError):
        Line(1, 2, 0.1, 10, -10)
    with pytest.raises(ValueError):
        ThermalGenerator(1, 5.0, 2.0, 0, 0, 0, 1, 1, 1, 1, commitment=(1,))
    with pytest.raises(ValueError):
        ThermalGenerator(1, 0.0, 2.0, 0, 0, -1.0, 1, 1, 1, 1, commitment=(1,))
    with pytest.raises(ValueError):
        GridCase((Bus(1, (1.0,)),), (), (), (), periods=0)


def test_make_case118_writes_the_bundled_case():
    """scripts/make_case118.py regenerates data/case118.txt byte for byte."""
    root = Path(__file__).parent.parent
    proc = subprocess.run([sys.executable, str(root / "scripts" / "make_case118.py")],
                          capture_output=True, check=True)
    assert proc.stdout == (root / "data" / "case118.txt").read_bytes()

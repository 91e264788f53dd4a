import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from power_curve_reference import default_power_curve_filtered

from windsed import wind_kl as wk
from windsed.cli import main
from windsed.datagen import default_power_curve, read_wind_csv
from windsed.forecast import MaternKernel

DATA = Path(__file__).parent.parent / "data"


def ten_minute_day(date, speeds_by_interval):
    return [(f"{date}T{h:02d}:{m:02d}:00", speeds_by_interval(h, m))
            for h in range(24) for m in range(0, 60, 10)]


# -- hourly averaging --------------------------------------------------------

def test_constant_day_gives_log_constant():
    recs = ten_minute_day("2004-01-01", lambda h, m: 6.0)
    samples, _, _ = wk.hourly_average(recs, "x")
    assert samples.shape == (1, 24)
    assert np.allclose(samples, math.log(6.0))


def test_alternating_speeds_average_before_log():
    recs = ten_minute_day("2004-01-02", lambda h, m: 4.0 if (m // 10) % 2 == 0 else 8.0)
    samples, _, _ = wk.hourly_average(recs)
    assert np.allclose(samples, math.log(6.0))  # mean of raw, then log


def test_incomplete_day_dropped_and_counted():
    full = ten_minute_day("2004-01-01", lambda h, m: 5.0)
    partial = ten_minute_day("2004-01-02", lambda h, m: 5.0)[:-1]
    samples, days, dropped = wk.hourly_average(full + partial)
    assert len(samples) == 1 and days == ["2004-01-01"]
    assert dropped["missing"] == 1


def test_day_with_repeated_timestamp_dropped_and_counted():
    """144 records with 00:40 written twice and 00:50 missing is no
    complete day."""
    full = ten_minute_day("2004-01-01", lambda h, m: 5.0)
    twice = ten_minute_day("2004-01-02", lambda h, m: 5.0)
    twice[5] = (twice[4][0], 9.0)
    samples, _, dropped = wk.hourly_average(full + twice)
    assert len(samples) == 1
    assert dropped["missing"] == 1


def test_day_with_off_mark_timestamp_dropped_and_counted():
    """144 distinct records with 00:55 in place of 00:50 is no complete
    day: each record must sit on one of its day's ten-minute marks."""
    full = ten_minute_day("2004-01-01", lambda h, m: 5.0)
    off = ten_minute_day("2004-01-02", lambda h, m: 5.0)
    off[5] = ("2004-01-02T00:55:00", 9.0)
    samples, _, dropped = wk.hourly_average(full + off)
    assert len(samples) == 1
    assert dropped["missing"] == 1


def test_nonpositive_speed_rejects_day_with_reason():
    bad = ten_minute_day("2004-01-03", lambda h, m: 0.0 if h == 12 else 5.0)
    good = ten_minute_day("2004-01-04", lambda h, m: 5.0)
    samples, days, dropped = wk.hourly_average(bad + good)
    assert len(samples) == 1 and days == ["2004-01-04"]
    assert dropped["nonpositive"] == 1
    with pytest.raises(wk.WindDataError):
        wk.hourly_average(bad)


# -- covariance ---------------------------------------------------------------

def test_identical_samples_zero_covariance():
    mat = np.tile(np.linspace(1, 2, 24), (5, 1))
    assert np.allclose(wk.empirical_covariance(mat), 0.0)


def test_two_point_covariance_by_hand():
    d = 0.3
    a = np.zeros(24)
    b = np.zeros(24)
    a[0], b[0] = d, -d
    cov = wk.empirical_covariance(np.array([a, b]))
    assert cov[0, 0] == pytest.approx(2 * d * d)
    assert np.abs(cov).sum() == pytest.approx(2 * d * d)


def test_covariance_psd_and_needs_two_samples():
    rng = np.random.default_rng(1)
    cov = wk.empirical_covariance(rng.normal(size=(40, 24)))
    assert np.allclose(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10
    with pytest.raises(wk.WindDataError):
        wk.empirical_covariance(np.zeros((1, 24)))


# -- KL decomposition -------------------------------------------------------------

def test_identity_covariance_flat_spectrum():
    basis = wk.kl_decompose(np.eye(24), np.zeros(24))
    assert np.allclose(basis.eigenvalues, 1.0)


def test_rank_one_covariance_analytic():
    v = np.linspace(0.1, 1.0, 24)
    basis = wk.kl_decompose(np.outer(v, v), np.zeros(24))
    assert basis.eigenvalues[0] == pytest.approx(float(v @ v))
    assert np.max(np.abs(basis.eigenvalues[1:])) < 1e-12
    assert np.allclose(np.abs(basis.eigenvectors[:, 0]), v / np.linalg.norm(v))
    assert basis.eigenvectors[np.argmax(np.abs(basis.eigenvectors[:, 0])), 0] > 0


def test_trace_identity_and_orthonormality():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(60, 24)) @ np.diag(np.linspace(0.1, 1, 24))
    cov = wk.empirical_covariance(mat)
    basis = wk.kl_decompose(cov, mat.mean(axis=0))
    assert abs(basis.eigenvalues.sum() - np.trace(cov)) < 1e-8
    gram = basis.eigenvectors.T @ basis.eigenvectors
    assert np.max(np.abs(gram - np.eye(24))) < 1e-10


def test_asymmetric_covariance_rejected():
    cov = np.eye(24)
    cov[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        wk.kl_decompose(cov, np.zeros(24))


def test_variance_fraction_cases():
    lam = np.zeros(24)
    lam[0], lam[1] = 3.0, 1.0
    basis = wk.KLBasis(np.zeros(24), lam, np.eye(24))
    assert wk.variance_fraction(basis, 1) == pytest.approx(75.0)
    assert wk.variance_fraction(basis, 24) == 100.0
    degenerate = wk.KLBasis(np.zeros(24), np.zeros(24), np.eye(24))
    assert wk.variance_fraction(degenerate, 3) == 100.0
    with pytest.raises(ValueError):
        wk.variance_fraction(basis, 0)


# -- projection / reconstruction ------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_basis():
    cov = 0.25 * MaternKernel(11.0, 0.6).covariance_matrix()
    return wk.kl_decompose(cov, np.linspace(1.5, 2.5, 24))


def test_projecting_mean_gives_zero(gaussian_basis):
    xi, skipped = wk.project_samples(gaussian_basis, gaussian_basis.mean[None, :])
    assert np.max(np.abs(xi)) < 1e-10
    assert skipped == []


def test_unit_mode_projection(gaussian_basis):
    b = gaussian_basis
    sample = b.mean + math.sqrt(b.eigenvalues[0]) * b.eigenvectors[:, 0]
    xi, _ = wk.project_samples(b, sample[None, :])
    assert xi[0, 0] == pytest.approx(1.0)
    assert np.max(np.abs(xi[0, 1:])) < 1e-9


def test_full_rank_round_trip(gaussian_basis):
    rng = np.random.default_rng(3)
    samples = wk.reconstruct(gaussian_basis, rng.standard_normal((20, 24)), 24)
    xi, _ = wk.project_samples(gaussian_basis, samples)
    again = wk.reconstruct(gaussian_basis, xi, 24)
    assert np.max(np.abs(again - samples)) < 1e-8


def test_zero_germ_reconstructs_mean(gaussian_basis):
    assert np.allclose(wk.reconstruct(gaussian_basis, np.zeros(24), 6),
                       gaussian_basis.mean)


def test_truncation_error_is_parseval_tail(gaussian_basis):
    b = gaussian_basis
    rng = np.random.default_rng(4)
    xi = rng.standard_normal(24)
    n = 6
    full = wk.reconstruct(b, xi, 24)
    trunc = wk.reconstruct(b, xi, n)
    err2 = float(np.sum((full - trunc) ** 2))
    tail = float(np.sum(b.eigenvalues[n:] * xi[n:] ** 2))
    assert err2 == pytest.approx(tail, rel=1e-10)


@pytest.mark.parametrize("n", [1, 7, 600])
def test_reconstruct_batch_rows_equal_single_germs_bit_for_bit(gaussian_basis, n):
    xi = np.random.default_rng(n).standard_normal((n, 24))
    batch = wk.reconstruct(gaussian_basis, xi, 24)
    for k in {0, n // 2, n - 1}:
        assert np.array_equal(batch[k], wk.reconstruct(gaussian_basis, xi[k], 24))


def test_reconstruct_bounds_checked(gaussian_basis):
    with pytest.raises(ValueError):
        wk.reconstruct(gaussian_basis, np.zeros(24), 25)
    with pytest.raises(ValueError):
        wk.reconstruct(gaussian_basis, np.zeros(3), 6)


def test_zero_eigenvalue_columns_skipped():
    lam = np.zeros(24)
    lam[0] = 2.0
    basis = wk.KLBasis(np.zeros(24), lam, np.eye(24))
    xi, skipped = wk.project_samples(basis, np.ones((2, 24)))
    assert skipped == list(range(1, 24))
    assert np.all(xi[:, 1:] == 0.0)


def test_sampled_covariance_converges_to_input(gaussian_basis):
    b = gaussian_basis
    rng = np.random.default_rng(11)
    fields = wk.reconstruct(b, rng.standard_normal((100_000, 24)), 24)
    emp = wk.empirical_covariance(fields)
    target = b.eigenvectors @ np.diag(b.eigenvalues) @ b.eigenvectors.T
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.05


# -- CDFs and KS --------------------------------------------------------------------

def test_ks_normal_sample_small():
    rng = np.random.default_rng(21)
    ks = wk.compare_to_normal(rng.standard_normal(10_000))
    assert ks < 0.03


def test_ks_degenerate_sample_large():
    assert wk.compare_to_normal(np.zeros(50)) >= 0.5
    with pytest.raises(ValueError):
        wk.compare_to_normal([1.0])


# -- distance correlation -------------------------------------------------------------

def dcor_oracle(x, y):
    """Direct double-centering computation, O(n^2) memory."""
    x = np.atleast_2d(np.asarray(x, float).T).T
    y = np.atleast_2d(np.asarray(y, float).T).T
    a = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    b = np.sqrt(((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    A = a - a.mean(axis=0) - a.mean(axis=1)[:, None] + a.mean()
    B = b - b.mean(axis=0) - b.mean(axis=1)[:, None] + b.mean()
    dcov2 = (A * B).mean()
    dvx = (A * A).mean()
    dvy = (B * B).mean()
    return math.sqrt(dcov2 / math.sqrt(dvx * dvy))


def test_dcor_self_dependence_is_one():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100)
    assert wk.distance_correlation(x, x) == pytest.approx(1.0)


def test_dcor_five_point_hand_sample():
    x = np.array([0.1, -1.2, 0.7, 2.0, -0.4])
    y = np.array([1.0, 0.3, -0.6, 1.1, 0.0])
    assert wk.distance_correlation(x, y) == pytest.approx(dcor_oracle(x, y), abs=1e-12)


def test_dcor_independent_samples_small():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(10_000)
    y = rng.standard_normal(10_000)
    assert wk.distance_correlation(x, y) < 0.1


def test_dcor_constant_input_zero():
    assert wk.distance_correlation(np.ones(30), np.arange(30.0)) == 0.0


def test_dcor_symmetric():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(60)
    y = x ** 2 + 0.1 * rng.standard_normal(60)
    assert wk.distance_correlation(x, y) == pytest.approx(
        wk.distance_correlation(y, x), abs=1e-12)


@given(a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
       b=st.floats(-10, 10))
@settings(max_examples=25, deadline=None)
def test_dcor_affine_invariant(a, b):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(50)
    y = np.sin(x) + 0.2 * rng.standard_normal(50)
    d1 = wk.distance_correlation(x, y)
    d2 = wk.distance_correlation(a * x + b, y)
    assert abs(d1 - d2) < 1e-10


# -- power curve -----------------------------------------------------------------------

def test_power_zero_outside_cut_in_out():
    sp = np.linspace(3.2, 26.0, 457)
    curve = wk.PowerCurve(sp, sp / 30, 3.2, 26.0, 26.0 / 30)
    assert curve(2.0) == 0.0   # below cut-in
    assert curve(27.0) == 0.0  # beyond cut-out
    assert curve(10.0) > 0.0


def test_default_curve_reproduces_its_logistic_at_the_knots():
    """Between cut-in and cut-out the default curve passes within 1e-3 of
    the nameplate of the logistic it bins, at each bin center."""
    curve = default_power_curve(1.0)
    centers = curve.knot_speeds[(curve.knot_speeds >= 3.2) & (curve.knot_speeds <= 26.0)]
    logistic = 1.0 / (1.0 + np.exp(-(centers - 9.0) / 1.7))
    assert np.max(np.abs(curve(centers) - logistic)) < 1e-3


def _bundled_nameplates():
    """The nameplate of each renewable site in the bundled cases."""
    from windsed.grid_model import load_case
    return [site.nameplate for name in ("case3.txt", "case118.txt")
            for site in load_case(DATA / name).renewable_sites]


def _bundled_site_curves():
    """The power curve of each renewable site in the bundled cases."""
    return [default_power_curve(nameplate) for nameplate in _bundled_nameplates()]


@pytest.mark.parametrize("nameplate", [150.0] + _bundled_nameplates())
def test_default_curve_equals_the_scatter_filter_bit_for_bit(nameplate):
    """The default curve's knots and spline coefficients equal those the
    general top-hat scatter filter (`power_curve_reference`) gives for the
    same logistic samples, at the default nameplate and every bundled one."""
    want = default_power_curve_filtered(nameplate)
    got = default_power_curve(nameplate)
    assert got.knot_speeds.tobytes() == want.knot_speeds.tobytes()
    assert got.knot_powers.tobytes() == want.knot_powers.tobytes()
    assert got._coef.tobytes() == want._coef.tobytes()
    assert (got.cut_in, got.cut_out, got.nameplate) == (want.cut_in, want.cut_out,
                                                        want.nameplate)


def test_natural_spline_matches_scipy_cubic_spline_bit_for_bit():
    """Coefficients and values equal scipy's CubicSpline(bc_type="natural")
    bit for bit: on the bundled site curves, at 20,000 speeds and the knots,
    and on random knot sets down to two knots."""
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(5)
    curves = _bundled_site_curves()
    assert len(curves) == 5
    for n in [2, 3, 4] + [int(k) for k in rng.integers(5, 60, 60)]:
        speeds = np.cumsum(rng.uniform(1e-3, 3.0, n)) + rng.uniform(-5.0, 5.0)
        curves.append(wk.PowerCurve(speeds, rng.normal(size=n) * 40.0,
                                     -np.inf, np.inf, np.inf))
    for curve in curves:
        ks = curve.knot_speeds
        ref = CubicSpline(ks, curve.knot_powers, bc_type="natural")
        assert curve._coef.tobytes() == ref.c.tobytes()
        speeds = np.concatenate([np.linspace(ks[0], ks[-1], 20_000), ks])
        assert curve._spline(speeds).tobytes() == ref(speeds).tobytes()


def test_power_curve_rejects_unordered_knots():
    with pytest.raises(ValueError, match="strictly increasing"):
        wk.PowerCurve(np.array([1.0, 3.0, 2.0]), np.zeros(3), 0.0, 5.0, 1.0)


def test_power_clamped_to_nameplate():
    sp = np.linspace(3.2, 26.0, 457)
    curve = wk.PowerCurve(sp, sp, 3.2, 26.0, 10.0)
    speeds = np.linspace(0, 30, 500)
    out = curve(speeds)
    assert out.min() >= 0.0 and out.max() <= 10.0


# -- serialization ----------------------------------------------------------------------

def kl_basis_from_text(text: str) -> wk.KLBasis:
    """Parse a `klbasis_<site>.txt` (`KLBasis.to_text`) back into a basis."""
    lines = [l.split() for l in text.splitlines() if l.strip()]
    if lines[0][0] != "KLBASIS":
        raise ValueError("not a KL basis file")
    mean = np.array([float(v) for v in lines[1][1:]])
    lam = np.array([float(v) for v in lines[2][1:]])
    vec = np.empty((wk.HOURS, wk.HOURS))
    for row in lines[3:]:
        vec[:, int(row[1])] = [float(v) for v in row[2:]]
    return wk.KLBasis(mean, lam, vec)


def test_kl_basis_text_round_trip(tmp_path):
    """The `klbasis_<site>.txt` that `windsed kl` writes reads back as the
    KL basis of the site's wind CSV, bit for bit."""
    cfg = {"case": str(DATA / "case3.txt"), "out": str(tmp_path),
           "wind": {"synthetic": {"days": 40, "sites": {
               "site_a": {"matern_l": 11.40, "matern_nu": 0.56}}}}}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["kl", "--config", str(path)]) == 0
    samples, _, _ = wk.hourly_average(read_wind_csv(tmp_path / "wind_site_a.csv"), "site_a")
    want = wk.kl_decompose(wk.empirical_covariance(samples), samples.mean(axis=0))
    again = kl_basis_from_text((tmp_path / "klbasis_site_a.txt").read_text())
    for got, expected in ((again.mean, want.mean), (again.eigenvalues, want.eigenvalues),
                          (again.eigenvectors, want.eigenvectors)):
        assert got.tobytes() == expected.tobytes()

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import matern_fit_reference as ref
from specs import sample_germs
from windsed import cli, wind_kl
from windsed import forecast as fc
from windsed.datagen import default_power_curve, synthetic_wind_table
from windsed.wind_kl import PowerCurve

DATA = Path(__file__).parent.parent / "data"

TABLE_KERNELS = [(11.40, 0.56), (11.15, 0.57), (9.79, 0.78)]


def bessel_k_oracle(nu, x):
    """Independent K_nu via its integral representation, by quadrature."""
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                  0.0, 30.0, limit=400)
    return val


# -- kernel ------------------------------------------------------------------

def test_matern_zero_lag_is_variance():
    k = fc.MaternKernel(10.0, 0.7, 2.5)
    assert fc.matern(0.0, k) == 2.5
    assert fc.matern(np.array([0.0, 0.0]), k).tolist() == [2.5, 2.5]


@pytest.mark.parametrize("lag", [1.0, 5.0, 12.0])
def test_matern_half_smoothness_is_exponential(lag):
    k = fc.MaternKernel(10.0, 0.5, 1.7)
    assert fc.matern(lag, k) == pytest.approx(1.7 * math.exp(-lag / 10.0), abs=1e-8)


def test_matern_matches_bessel_oracle_at_table_parameters():
    ell, nu = 11.40, 0.56
    k = fc.MaternKernel(ell, nu, 1.0)
    for lag in range(1, 24):
        z = math.sqrt(2 * nu) * lag / ell
        want = (2 ** (1 - nu) / math.gamma(nu)) * z ** nu * bessel_k_oracle(nu, z)
        assert fc.matern(float(lag), k) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("ell,nu", TABLE_KERNELS)
def test_matern_normalized_decay_on_day_grid(ell, nu):
    k = fc.MaternKernel(ell, nu, 1.0)
    vals = fc.matern(np.arange(24.0), k)
    ratios = vals[1:] / vals[0]
    assert np.all(ratios > 0.0) and np.all(ratios <= 1.0)
    assert np.all(np.diff(vals) < 0.0)  # monotone decay for nu <= 1


def test_matern_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fc.MaternKernel(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        fc.MaternKernel(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fc.matern(-1.0, fc.MaternKernel(1.0, 0.5, 1.0))


# -- fitting ------------------------------------------------------------------

def test_fit_recovers_exponential_kernel():
    cov = fc.MaternKernel(10.0, 0.5, 1.0).covariance_matrix()
    fit = fc.fit_matern(cov)
    assert 9.0 <= fit.length_scale <= 11.0
    assert 0.45 <= fit.smoothness <= 0.55


def test_fit_recovers_table_row():
    cov = fc.MaternKernel(11.15, 0.57, 1.0).covariance_matrix()
    fit = fc.fit_matern(cov)
    assert fit.length_scale == pytest.approx(11.15, rel=0.10)
    assert fit.smoothness == pytest.approx(0.57, rel=0.10)


def test_fit_scale_invariant_to_variance():
    cov = fc.MaternKernel(11.15, 0.57, 1.0).covariance_matrix() * 0.09
    fit = fc.fit_matern(cov)
    assert fit.length_scale == pytest.approx(11.15, rel=0.10)


def test_fit_rejects_constant_covariance():
    with pytest.raises(fc.ForecastError, match="decay"):
        fc.fit_matern(np.ones((24, 24)))


def _study_small_covariances():
    """The empirical covariance of each synthetic site of the bundled small
    study, as `windsed kl` computes it."""
    records, _ = cli._wind_records(cli.ExperimentConfig.load(str(DATA / "study_small.yaml")))
    return [wind_kl.empirical_covariance(wind_kl.hourly_average(records[label], label)[0])
            for label in sorted(records)]


@pytest.mark.parametrize("site", [0, 1], ids=["site_a", "site_b"])
def test_fit_matches_the_multistart_reference(site):
    """On each bundled site the fit is, bit for bit, the reference's search
    from the grid start of least residual, and it agrees with the best of
    the reference's 25 searches."""
    cov = _study_small_covariances()[site]
    fit = fc.fit_matern(cov)
    residual = ref.pooled_residual(cov)
    start = min(ref.STARTS, key=residual)
    one = ref.search(cov, start)
    assert (fit.length_scale, fit.smoothness) == (float(one.x[0]), float(one.x[1]))
    best = ref.multistart_fit(cov)
    assert fit.length_scale == pytest.approx(best.x[0], rel=1e-7, abs=0.0)
    assert fit.smoothness == pytest.approx(best.x[1], rel=1e-7, abs=0.0)
    assert residual((fit.length_scale, fit.smoothness)) <= best.fun * (1.0 + 1e-12)


def test_short_record_fit_emits_no_runtime_warning():
    """A two-day record, whose fit runs to smoothness where the Matern
    terms overflow, fits without a numpy warning."""
    site = fc.SiteModel("site_b", np.full(24, 8.5), fc.MaternKernel(9.79, 0.78), 0.3,
                        24, default_power_curve())
    rows = synthetic_wind_table(site, 2, seed=42)
    samples, _ = wind_kl.hourly_average([row[:2] for row in rows], "site_b")
    cov = wind_kl.empirical_covariance(samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fc.fit_matern(cov)
    assert fit.length_scale > 0 and fit.smoothness > 0


def test_pooled_lag_data_matches_the_pairwise_loop():
    """The lag cloud the fit runs on is, bit for bit, the loop over anchor
    rows i and columns j: lag |i - j| against cov[i, j] / cov[i, i]."""
    a = np.random.default_rng(3).normal(size=(24, 24))
    cov = a @ a.T + 24.0 * np.eye(24)
    pairs = [(i, j) for i in range(24) for j in range(24)]
    lags, vals = fc._pooled_lag_data(cov)
    assert np.array_equal(lags, np.array([abs(i - j) for i, j in pairs], dtype=float))
    assert np.array_equal(vals, np.array([cov[i, j] / cov[i, i] for i, j in pairs]))


def test_power_curve_on_an_array_matches_scalar_calls():
    """A power curve maps an array of speeds, cut-in and cut-out included,
    to the same bits as one call per speed (synthetic wind tables map a
    whole (days, 24) array at once)."""
    curve = default_power_curve()
    speeds = np.exp(np.random.default_rng(4).normal(2.0, 0.6, (40, 24)))
    speeds[0, :5] = [0.5, 3.2, 9.0, 26.0, 40.0]
    assert np.array_equal(curve(speeds), [[curve(float(s)) for s in row] for row in speeds])


# -- sigma_P -> sigma_W --------------------------------------------------------

def test_sigma_w_zero_for_zero_sigma_p():
    curve = default_power_curve(100.0)
    assert fc.sigma_w_from_sigma_p(0.0, np.full(24, 8.0), curve) == 0.0


def test_sigma_w_linear_curve_matches_mc_oracle():
    sp = np.linspace(0.1, 60.0, 1200)
    curve = PowerCurve(sp, sp, 0.0, 1e9, 1e9)
    sw = fc.sigma_w_from_sigma_p(0.35, np.full(24, 8.0), curve)
    # linear curve: power is lognormal, std/mean = sqrt(exp(s^2) - 1)
    assert sw == pytest.approx(math.sqrt(math.log(1 + 0.35 ** 2)), rel=2e-3)
    rng = np.random.default_rng(1)
    p = 8.0 * np.exp(sw * rng.standard_normal(1_000_000))
    assert float(p.std() / p.mean()) == pytest.approx(0.35, rel=0.02)


def test_sigma_w_default_curve_matches_mc_oracle():
    curve = default_power_curve(150.0)
    mean_wind = np.full(24, 8.0)
    sw = fc.sigma_w_from_sigma_p(0.35, mean_wind, curve)
    rng = np.random.default_rng(2)
    p = curve(8.0 * np.exp(sw * rng.standard_normal(1_000_000)))
    assert float(p.std() / p.mean()) == pytest.approx(0.35, rel=0.02)


def test_sigma_w_flat_curve_errors():
    # flat output everywhere and no reachable cut-out: zero sensitivity
    sp = np.linspace(0.1, 30.0, 300)
    curve = PowerCurve(sp, np.full_like(sp, 80.0), 0.0, 1e12, 80.0)
    with pytest.raises(fc.ForecastError):
        fc.sigma_w_from_sigma_p(0.35, np.full(24, 8.0), curve)


# -- forecast spec + scenarios ------------------------------------------------------

def three_site_spec():
    curve = default_power_curve(150.0)
    sites = []
    for label, (ell, nu) in zip(("a", "b", "c"), TABLE_KERNELS):
        sites.append(fc.SiteModel(label, np.full(24, 8.0),
                                  fc.MaternKernel(ell, nu, 1.0), 0.12, 6, curve))
    groups = ((("a", 1), ("b", 1)), (("a", 2), ("b", 2)))
    return fc.ForecastSpec(tuple(sites), groups)


def test_germ_dimension_with_shared_modes():
    spec = three_site_spec()
    assert spec.dimension == 3 * 6 - 2  # 16


def test_germ_layout_shares_exact_coordinates():
    spec = three_site_spec()
    layout, dim = spec.germ_layout()
    assert layout[("a", 1)] == layout[("b", 1)]
    assert layout[("a", 2)] == layout[("b", 2)]
    assert layout[("a", 3)] != layout[("b", 3)]
    assert len({layout[("c", m)] for m in range(1, 7)}) == 6


def test_dependence_groups_must_be_disjoint_and_in_range():
    with pytest.raises(ValueError, match="disjoint"):
        fc.ForecastSpec(three_site_spec().sites,
                        ((("a", 1), ("b", 1)), (("a", 1), ("c", 1))))
    with pytest.raises(ValueError, match="truncation"):
        fc.ForecastSpec(three_site_spec().sites, ((("a", 7), ("b", 7)),))


def test_zero_germ_gives_mean_forecast_power():
    spec = three_site_spec()
    ss = fc.generate_scenarios(spec, germs=np.zeros((1, 16)))
    want = spec.sites[0].curve(np.full(24, 8.0))
    for j in range(3):
        assert np.allclose(ss.power[0, j], want)


def test_symmetric_germs_give_symmetric_log_wind():
    spec = three_site_spec()
    site = spec.sites[2]
    basis = site.kl_basis()
    xi = np.random.default_rng(5).standard_normal(6)
    up = basis.mean + (basis.eigenvectors[:, :6] * np.sqrt(basis.eigenvalues[:6])) @ xi
    dn = basis.mean + (basis.eigenvectors[:, :6] * np.sqrt(basis.eigenvalues[:6])) @ (-xi)
    assert np.allclose(up + dn, 2 * basis.mean)


def test_scenario_power_within_nameplate():
    spec = three_site_spec()
    ss = fc.generate_scenarios(spec, sample_germs(3, 500, spec.dimension))
    assert ss.power.min() >= 0.0
    assert ss.power.max() <= 150.0


def test_generated_field_covariance_matches_model():
    spec = three_site_spec()
    site = spec.sites[0]
    basis = site.kl_basis()
    rng = np.random.default_rng(13)
    xi = rng.standard_normal((100_000, 24))
    fields = basis.mean + xi @ (basis.eigenvectors * np.sqrt(basis.eigenvalues)).T
    emp = np.cov(fields.T)
    target = (site.sigma_w ** 2) * site.kernel.covariance_matrix()
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def test_unshared_coordinates_uncorrelated():
    spec = three_site_spec()
    layout, dim = spec.germ_layout()
    germs = sample_germs(19, 100_000, dim)
    a3 = germs[:, layout[("a", 3)]]
    b3 = germs[:, layout[("b", 3)]]
    assert abs(np.corrcoef(a3, b3)[0, 1]) < 0.02
    shared = germs[:, layout[("a", 1)]]
    assert np.corrcoef(shared, germs[:, layout[("b", 1)]])[0, 1] == 1.0


def test_germ_dimension_mismatch_rejected():
    spec = three_site_spec()
    with pytest.raises(fc.ForecastError, match="dimension"):
        fc.generate_scenarios(spec, germs=np.zeros((1, 5)))


"""Forecast specs for the bundled 3-bus and 118-bus cases."""
import numpy as np

from windsed import forecast as fc
from windsed.datagen import default_power_curve


def make_spec3(case, truncation: int = 3, sigma_p: float = 0.35):
    """Forecast spec for the 3-bus fixture: two independent sites."""
    curves = {s.site_label: default_power_curve(s.nameplate)
              for s in case.renewable_sites}
    kernels = {"site_a": fc.MaternKernel(11.40, 0.56, 1.0),
               "site_b": fc.MaternKernel(9.79, 0.78, 1.0)}
    sites = []
    for label in ("site_a", "site_b"):
        mean_wind = np.full(24, 8.0)
        sw = fc.sigma_w_from_sigma_p(sigma_p, mean_wind, curves[label])
        sites.append(fc.SiteModel(label, mean_wind, kernels[label], sw,
                                  truncation, curves[label]))
    return fc.ForecastSpec(tuple(sites), sigma_p)


def make_spec118(case):
    """Paper-style three-site spec: Wyoming pair shares its first two modes."""
    curves = {s.site_label: default_power_curve(s.nameplate)
              for s in case.renewable_sites}
    params = {"site_15414": (11.40, 0.56), "site_16238": (11.15, 0.57),
              "site_3560": (9.79, 0.78)}
    sites = []
    for label in ("site_15414", "site_16238", "site_3560"):
        mean_wind = np.full(24, 8.0)
        sw = fc.sigma_w_from_sigma_p(0.35, mean_wind, curves[label])
        l, nu = params[label]
        sites.append(fc.SiteModel(label, mean_wind, fc.MaternKernel(l, nu, 1.0),
                                  sw, 6, curves[label]))
    groups = ((("site_15414", 1), ("site_16238", 1)),
              (("site_15414", 2), ("site_16238", 2)))
    return fc.ForecastSpec(tuple(sites), 0.35, groups)

"""Each cross-check fails once its closed form is off by ten times the
check's tolerance (the tolerances of ``qslip verify``)."""

import math

import numpy as np
import pytest

from qslip import BlochVector, IntegratorConfig, ModelParams, bipartite, crosscheck, semigroup

P = ModelParams(0.1, 0.9)
R0 = BlochVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
TIMES = np.linspace(0.0, 0.5, 9).tolist()


@pytest.mark.parametrize("module, name, tol, check", [
    (semigroup, "bloch_trajectory", 1e-8,
     lambda: crosscheck.propagator_vs_rk4(P, R0, IntegratorConfig(step=1e-3, t_max=0.5))),
    (bipartite, "eigenvalues_closed_form", 1e-10, lambda: crosscheck.spectrum_vs_jacobi(P, 0.2, TIMES)),
    (bipartite, "eigenvalues_closed_form", 1e-10,
     lambda: crosscheck.spectrum_vs_jacobi(P, 0.2, TIMES, transposed=True)),
    (bipartite, "concurrence_curve", 1e-10,
     lambda: crosscheck.concurrence_vs_wootters(P, [0.2, 0.25], TIMES)[0]),
    (bipartite, "r4_max", 1e-6, lambda: crosscheck.maxima_vs_golden_section(P)),
], ids=["propagator", "spectrum", "partial_transpose", "concurrence", "maxima"])
def test_check_catches_its_closed_form_off_by_ten_tolerances(monkeypatch, module, name, tol, check):
    assert check() <= tol
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: np.add(original(*args), 10.0 * tol))
    assert check() > tol

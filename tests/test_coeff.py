import numpy as np
import pytest

import ergodica as eg
from ergodica.cli import build_problem


def apply_bellman(spec, eps, grid, phi):
    """The Bellman operator at the interior nodes at phi, a full-node array
    that is 0 on the boundary: the nodewise max over the controls' frozen
    operators, as `corrector.nonlinear_expansion` takes it."""
    ops = eg.bellman_operators(spec, eps, grid)
    return np.max([op @ grid.restrict(phi) for op in ops], axis=0)


class TestBellman:
    def test_direct_max(self):
        # L 1 = c for each control: its rows, boundary weights included, sum
        # to c, so the Bellman operator at phi = 1 is the max over controls
        # {0.3, -0.1}, and 1-homogeneity forces F(0) = 0
        spec = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0, c0=0.3), 1, 1, c1=0.3),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0, c0=-0.1), 1, 1, c1=0.1),
        ])
        g = eg.DomainGrid.unit(1, 16)
        one = np.max([sum(op.neighbours.values()) + op.diag
                      for op in eg.bellman_operators(spec, 1.0, g)], axis=0)
        assert np.allclose(one, 0.3, rtol=0, atol=1e-12)
        zero = apply_bellman(spec, 1.0, g, np.zeros(g.shape))
        assert np.all(zero == 0.0)

    def test_envelope_is_1d_only(self):
        # the nodewise min of 2D matrices is no envelope of the controls
        spec = eg.BellmanSpec([eg.LinearOperatorSpec(eg.constant_field(2, 1.0),
                                                     1, 1)])
        with pytest.raises(eg.InputError, match="1D only"):
            spec.envelope()

    def test_singleton_matches_linear(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.4, b_amp=0.2,
                                                     c0=0.1, c_amp=0.1),
                                     0.6, 1.4, c1=0.2)
        g = eg.DomainGrid.unit(1, 32)
        x = g.points()[:, 0]
        phi = np.sin(np.pi * x) + x * (1 - x)
        out = apply_bellman(eg.BellmanSpec([spec]), 0.25, g, phi)
        linear = eg.assemble_oscillatory(spec, 0.25, g) @ g.restrict(phi)
        assert np.array_equal(out, linear)

    def test_pucci_as_two_control_bellman(self):
        # second differences are exact on m (x^2 - x) / 2, which is 0 on the
        # boundary, so each constant control kappa gives kappa m and the
        # Bellman max is M^+(m) = max(lambda m, Lambda m)
        bspec = eg.pucci_controls_1d(eg.PucciSpec(1.0, 2.0))
        g = eg.DomainGrid.unit(1, 16)
        x = g.points()[:, 0]
        for m in (-3.0, -2.0, -0.5, 0.0, 0.7, 3.0):
            vals = apply_bellman(bspec, 1.0, g, 0.5 * m * (x ** 2 - x))
            assert np.allclose(vals, max(m, 2.0 * m), rtol=0, atol=1e-9)


class TestPucci:
    def test_known_values_1d(self):
        # M^+(m) for lambda = 1, Lambda = 2, read off the two-control Bellman
        # form on the quadratic m (x^2 - x) / 2; M^-(m) = -M^+(-m) by duality
        bspec = eg.pucci_controls_1d(eg.PucciSpec(1.0, 2.0))
        g = eg.DomainGrid.unit(1, 16)
        x = g.points()[:, 0]

        def m_plus(m):
            vals = apply_bellman(bspec, 1.0, g, 0.5 * m * (x ** 2 - x))
            assert np.ptp(vals) < 1e-9
            return vals[0]

        assert m_plus(3.0) == pytest.approx(6.0)
        assert m_plus(-3.0) == pytest.approx(-3.0)
        assert -m_plus(-3.0) == pytest.approx(3.0)
        assert -m_plus(3.0) == pytest.approx(-6.0)
        with pytest.raises(eg.ConfigError):
            eg.PucciSpec(2.0, 1.0)


def sin_spec(lam=0.5, Lam=1.5, c1=0.6, **field):
    return eg.LinearOperatorSpec(eg.sin_field_1d(**field), lam, Lam, c1)


def asymmetric_spec():
    def a(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = 1.0
        out[:, 0, 1] = 0.1
        return out
    field = eg.CoefficientField(2, a, lambda pts: np.zeros((len(pts), 2)),
                                lambda pts: np.zeros(len(pts)))
    return eg.LinearOperatorSpec(field, 0.5, 1.5)


def catalog(name, **params):
    return lambda: build_problem(name, params)["spec"]


# corners of the benchmark's seed ranges (bench/workloads.py)
CORNERS = (
    [("sin-abc", dict(delta=d, b_amp=b, c_amp=c))
     for d in (0.45, 0.55) for b in (0.9, 1.1) for c in (0.35, 0.45)]
    + [("bellman-2ctl-1d", dict(delta=d, a2=a2))
       for d in (0.45, 0.55) for a2 in (1.15, 1.25)]
    + [("sep-2d", dict(delta=d)) for d in (0.45, 0.55)]
)

STRUCTURE_CASES = [
    # (id, spec factory, None when accepted, else the expected message)
    ("understated-lambda", lambda: sin_spec(lam=0.51),
     "control 0 violates eig a >= lambda_ell = 0.51 by 0.01 at y = (0.75)"),
    ("understated-Lambda", lambda: sin_spec(Lam=1.49),
     "control 0 violates eig a <= Lambda_ell = 1.49 by 0.01 at y = (0.25)"),
    ("c1-for-b", lambda: sin_spec(c1=0.9, b_amp=1.0),
     "control 0 violates |b| <= c1 = 0.9 by 0.1 at y = (0)"),
    ("c1-for-c", lambda: sin_spec(c1=0.5, c0=0.2, c_amp=0.4),
     "control 0 violates |c| <= c1 = 0.5 by 0.1 at y = (0.25)"),
    ("asymmetric-a", asymmetric_spec,
     "control 0 violates a = a^T by 0.1 at y = (0, 0)"),
    ("bellman-control-1", lambda: eg.BellmanSpec([
        sin_spec(),
        eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.15)]),
     "control 1 violates eig a <= Lambda_ell = 1.15 by 0.05 at y = (0)"),
    *[(f"catalog-{name}", catalog(name), None)
      for name in ("sin-a", "sin-abc", "sep-2d", "pucci-1d",
                   "bellman-2ctl-1d", "constant")],
    ("catalog-constant-2d-drift", catalog("constant", dim=2, b0=1.0, c0=0.3),
     None),
    *[(f"corner-{name}-" + "-".join(f"{v:g}" for v in params.values()),
       catalog(name, **params), None) for name, params in CORNERS],
]


class TestStructure:
    @pytest.mark.parametrize("make, message",
                             [case[1:] for case in STRUCTURE_CASES],
                             ids=[case[0] for case in STRUCTURE_CASES])
    def test_check_structure(self, make, message):
        spec = make()
        points = eg.PeriodicGrid(spec.dim, 64).points()
        if message is None:
            eg.check_structure(spec, points)
        else:
            with pytest.raises(eg.ConfigError) as exc:
                eg.check_structure(spec, points)
            assert str(exc.value) == message

    def test_constant_declares_its_drift(self):
        # a scalar b0 is the drift (1, 1) in 2D: c1 = max(|b|, |c|) = sqrt(2)
        spec = build_problem("constant", {"dim": 2, "b0": 1.0, "c0": 0.3})["spec"]
        assert spec.c1 == pytest.approx(np.sqrt(2.0))
        spec = build_problem("constant", {"b0": -0.2, "c0": 0.3})["spec"]
        assert spec.c1 == pytest.approx(0.3)


class TestCatalog:
    def test_constant_field_shapes(self):
        f = eg.constant_field(2, np.diag([1.0, 2.0]), b0=[0.1, 0.2], c0=0.3)
        a, b, c = f.sample(np.zeros((5, 2)))
        assert a.shape == (5, 2, 2) and b.shape == (5, 2) and c.shape == (5,)
        assert np.allclose(a[0], np.diag([1.0, 2.0]))

    def test_constant_field_scalar_drift_broadcasts(self):
        # a scalar b0 is the same drift on every axis, as a scalar a0 is
        # the same diffusion
        f = eg.constant_field(2, 1.5, b0=0.7)
        a, b, _ = f.sample(np.zeros((3, 2)))
        assert np.array_equal(a[0], 1.5 * np.eye(2))
        assert np.array_equal(b, np.full((3, 2), 0.7))

    @pytest.mark.parametrize("a0, b0", [
        (np.eye(3), None),
        (np.ones(2), None),
        (1.0, [0.1, 0.2, 0.3]),
        (1.0, np.ones((2, 2))),
    ], ids=["a0-3x3", "a0-vector", "b0-length-3", "b0-matrix"])
    def test_constant_field_wrong_shape_is_config_error(self, a0, b0):
        with pytest.raises(eg.ConfigError):
            eg.constant_field(2, a0, b0=b0)

    def test_separable_field_diag(self):
        f = eg.separable_sin_field_2d(delta=0.5)
        pts = np.array([[0.25, 0.0]])
        a = f.a(pts)[0]
        assert a[0, 0] == pytest.approx(1.5)
        assert a[1, 1] == pytest.approx(1.0)
        assert a[0, 1] == 0.0

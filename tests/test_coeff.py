import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ergodica as eg
from ergodica.coeff import linear_value


def sym(d, vals):
    X = np.array(vals, dtype=float).reshape(d, d)
    return 0.5 * (X + X.T)


class TestPucci:
    def test_known_values_1d(self):
        spec = eg.PucciSpec(1.0, 2.0, "plus")
        assert eg.eval_pucci(spec, [[3.0]]) == pytest.approx(6.0)
        assert eg.eval_pucci(spec, [[-3.0]]) == pytest.approx(-3.0)
        minus = eg.PucciSpec(1.0, 2.0, "minus")
        assert eg.eval_pucci(minus, [[3.0]]) == pytest.approx(3.0)
        assert eg.eval_pucci(minus, [[-3.0]]) == pytest.approx(-6.0)

    def test_mixed_eigenvalues_2d(self):
        # eigenvalues +1 and -1
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = eg.PucciSpec(0.5, 2.0, "plus")
        assert eg.eval_pucci(spec, X) == pytest.approx(2.0 - 0.5)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.floats(0.1, 1.0), st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_duality_and_homogeneity(self, vals, lam, gap):
        Lam = lam + gap
        X = sym(2, vals)
        plus = eg.PucciSpec(lam, Lam, "plus")
        minus = eg.PucciSpec(lam, Lam, "minus")
        # M^-(X) = -M^+(-X), M^- <= M^+, positive 1-homogeneity
        assert eg.eval_pucci(minus, X) == pytest.approx(
            -eg.eval_pucci(plus, -X), abs=1e-10)
        assert eg.eval_pucci(minus, X) <= eg.eval_pucci(plus, X) + 1e-12
        assert eg.eval_pucci(plus, 2.0 * X) == pytest.approx(
            2.0 * eg.eval_pucci(plus, X), abs=1e-10)

    @given(st.lists(st.floats(-3, 3), min_size=4, max_size=4),
           st.lists(st.floats(-3, 3), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_subadditivity_of_m_plus(self, v1, v2):
        X, Y = sym(2, v1), sym(2, v2)
        spec = eg.PucciSpec(0.5, 2.0, "plus")
        assert eg.eval_pucci(spec, X + Y) <= \
            eg.eval_pucci(spec, X) + eg.eval_pucci(spec, Y) + 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(eg.InputError):
            eg.eval_pucci(eg.PucciSpec(1, 2, "plus"), [[0, 1], [0, 0]])


class TestBellman:
    def test_direct_max(self):
        # p=0, X=0, r=1 with c values {0.3, -0.1} -> 0.3 (max over controls)
        spec = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0, c0=0.3), 1, 1, c1=0.3),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0, c0=-0.1), 1, 1, c1=0.1),
        ])
        assert eg.eval_bellman(spec, [0.0], 1.0, [0.0], [[0.0]]) == \
            pytest.approx(0.3)
        # 1-homogeneity forces F(y, 0, 0, 0) = 0
        assert eg.eval_bellman(spec, [0.0], 0.0, [0.0], [[0.0]]) == 0.0

    def test_singleton_matches_linear(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.4, b_amp=0.2,
                                                     c0=0.1, c_amp=0.1),
                                     0.6, 1.4, c1=0.2)
        y, r, p, X = [0.3], 1.2, [0.7], [[2.0]]
        assert eg.eval_bellman(eg.BellmanSpec([spec]), y, r, p, X) == \
            pytest.approx(linear_value(spec, y, r, p, X))

    def test_pucci_as_two_control_bellman(self):
        pspec = eg.PucciSpec(1.0, 2.0, "plus")
        bspec = eg.pucci_controls_1d(pspec)
        for m in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert eg.eval_bellman(bspec, [0.0], 0.0, [0.0], [[m]]) == \
                pytest.approx(eg.eval_pucci(pspec, [[m]]))

    def test_pucci_minus_rejected(self):
        with pytest.raises(eg.ConfigError):
            eg.pucci_controls_1d(eg.PucciSpec(1.0, 2.0, "minus"))


class TestStructure:
    def test_linear_operator_passes(self):
        spec = eg.LinearOperatorSpec(
            eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
            0.5, 1.5, c1=0.6)
        report = eg.validate_structure(spec, 200, seed=1)
        assert report.ok, report.violations

    def test_understated_ellipticity_fails(self):
        # claim a tighter ellipticity interval than the field satisfies
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.9, 1.1)
        report = eg.validate_structure(spec, 200, seed=1)
        assert not report.ok

    def test_understated_c1_fails(self):
        spec = eg.LinearOperatorSpec(
            eg.sin_field_1d(delta=0.5, b_amp=1.0), 0.5, 1.5, c1=0.0)
        report = eg.validate_structure(spec, 200, seed=1)
        assert not report.ok


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

    def test_field_check_catches_bad_ellipticity(self):
        f = eg.sin_field_1d(delta=0.5)
        assert f.check(0.4, 1.6) == []
        assert f.check(0.8, 1.6)  # interval too tight -> violations reported

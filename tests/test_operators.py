"""Rational Dunkl operators for the sign-flip group and the chain rule."""

import math
import warnings

import numpy as np
import pytest

import _oracles as oracle
from _oracles import exp_field, gaussian_field, positive_poly_field
import dunklheat as dh
from dunklheat.operators import (
    EPS_REFLECTION_SCALE,
    PSI_CUBE,
    PSI_EXP,
    PSI_LOG,
    PSI_SQUARE,
    ChainRuleResidual,
    MultiplicityZ2,
    ScalarField,
    SmoothFunction,
    chain_rule_residual,
    compose_field,
    dunkl_derivative,
    dunkl_laplacian,
    pi_psi,
    reflect,
    reflection_epsilon,
)
from dunklheat.quadrature import DomainError


# ---------------------------------------------------------------------------
# analytic test fields


def poly_field():
    # x0^2 x1 + 3 x0 - x1^3 + 5, not invariant under either sign flip
    return ScalarField(
        value=lambda x: x[0] ** 2 * x[1] + 3.0 * x[0] - x[1] ** 3 + 5.0,
        gradient=lambda x: np.array([2.0 * x[0] * x[1] + 3.0, x[0] ** 2 - 3.0 * x[1] ** 2]),
        hessian_diag=lambda x: np.array([2.0 * x[1], -6.0 * x[1]]),
    )


def monomial_1d(n):
    return ScalarField(
        value=lambda x: x[0] ** n,
        gradient=lambda x: np.array([n * x[0] ** (n - 1)]),
        hessian_diag=lambda x: np.array([n * (n - 1) * x[0] ** (n - 2) if n >= 2 else 0.0]),
    )


# ---------------------------------------------------------------------------
# multiplicity and reflections


def test_multiplicity_of_accepts_scalars_sequences_and_self():
    k = MultiplicityZ2.of(0.5)
    assert k.values == (0.5,) and k.d == 1
    k2 = MultiplicityZ2.of([0.5, 1.5])
    assert k2.values == (0.5, 1.5) and k2.d == 2
    assert MultiplicityZ2.of(k2) is k2
    assert MultiplicityZ2.of(np.float64(2.0)).values == (2.0,)


def test_multiplicity_lambda_total_and_array():
    k = MultiplicityZ2.of([0.25, 0.0, 2.5])
    assert k.lambda_total == 2.75
    assert MultiplicityZ2.of(np.array([0.25, 0.0, 2.5])) == k


def test_multiplicity_rejects_bad_values():
    with pytest.raises(DomainError):
        MultiplicityZ2.of([0.5, -0.1])
    with pytest.raises(DomainError):
        MultiplicityZ2.of(float("nan"))
    with pytest.raises(DomainError):
        MultiplicityZ2(())


@pytest.mark.parametrize("kappa", [1e-9, 1e-12, 2e-16, 1e-300, 5e-324])
def test_multiplicity_rejects_values_below_the_floor(kappa):
    # the documented domain is kappa = 0 or kappa >= 1e-8
    with pytest.raises(DomainError, match=f"multiplicity {kappa!r} is below the floor 1e-08"):
        MultiplicityZ2.of([0.5, kappa])
    assert MultiplicityZ2.of([0.0, 1e-8]).values == (0.0, 1e-8)


def test_reflect_flips_one_sign_and_leaves_input_alone():
    x = np.array([1.0, 2.0])
    y = reflect(x, 0)
    np.testing.assert_array_equal(y, [-1.0, 2.0])
    np.testing.assert_array_equal(x, [1.0, 2.0])
    with pytest.raises(DomainError):
        reflect(x, 2)
    with pytest.raises(DomainError):
        reflect(x, -1)


def test_reflection_epsilon_scales_with_norm():
    assert reflection_epsilon(np.zeros(2)) == EPS_REFLECTION_SCALE
    assert abs(reflection_epsilon(np.array([3.0, 4.0])) - 6.0 * EPS_REFLECTION_SCALE) < 1e-22


# ---------------------------------------------------------------------------
# one time check and one point check behind every entry point

_K = [0.5]
_DATUM = dh.InitialDatum.bumps([0.0], [1.0])
_SOLUTION = dh.semigroup_solution(_DATUM, _K)
# a field that checks nothing itself, so only the check's own validation acts
_CONSTANT_FIELD = dh.SpaceTimeField(
    log_value=lambda t, x: 0.0,
    log_gradient=lambda t, x: np.zeros(1),
    log_hessian_diag=lambda t, x: np.zeros(1),
    log_time_derivative=lambda t, x: 0.0,
)

TIME_ENTRY_POINTS = {
    "log_kernel": lambda t: dh.log_kernel(t, [1.0], [0.5], _K),
    "log_kernel_derivatives": lambda t: dh.log_kernel_derivatives(t, [1.0], [0.5], _K),
    "kernel_derivatives_1d_batch": lambda t: dh.kernel_derivatives_1d_batch(t, 1.0, [0.5], 0.5),
    "liyau_functional": lambda t: dh.liyau_functional(t, [1.0], [0.5], _K),
    "log_convexity_check": lambda t: dh.log_convexity_check(t, [1.0], [0.5], _K),
    "log_convexity_midpoint_check": lambda t: dh.log_convexity_midpoint_check(t, [1.0], [0.0], [0.5], _K),
    "semigroup_solution": lambda t: dh.semigroup_solution(_DATUM, _K).log_value(t, [0.5]),
    "liyau_for_solution": lambda t: dh.liyau_for_solution(_SOLUTION, t, [0.5], _K),
    "normalization_check": lambda t: dh.normalization_check(t, [0.5], _K),
    "chapman_kolmogorov_check s": lambda t: dh.chapman_kolmogorov_check(t, 1.0, [1.0], [0.5], _K),
    "chapman_kolmogorov_check t": lambda t: dh.chapman_kolmogorov_check(1.0, t, [1.0], [0.5], _K),
    "heat_residual": lambda t: dh.heat_residual(t, [1.0], [0.5], _K),
    "liyau_coordinate_table": lambda t: dh.liyau_coordinate_table(t, 0.5),
    "liyau_grid_extrema": lambda t: dh.liyau_grid_extrema(t, _K),
    "gradient_form_check": lambda t: dh.gradient_form_check(_CONSTANT_FIELD, t, [0.5], 1.0),
    "harnack_check s": lambda t: dh.harnack_check(_CONSTANT_FIELD, t, [0.1], 2.0, [0.2], lambda_kappa=0.5, d=1),
    "harnack_check t": lambda t: dh.harnack_check(_CONSTANT_FIELD, 0.5, [0.1], t, [0.2], lambda_kappa=0.5, d=1),
}

POINT_ENTRY_POINTS = {
    "log_kernel x": lambda x: dh.log_kernel(1.0, x, [0.5], _K),
    "log_kernel y": lambda x: dh.log_kernel(1.0, [0.5], x, _K),
    "log_kernel_derivatives": lambda x: dh.log_kernel_derivatives(1.0, x, [0.5], _K),
    "liyau_functional": lambda x: dh.liyau_functional(1.0, [0.5], x, _K),
    "log_convexity_check": lambda x: dh.log_convexity_check(1.0, x, [0.5], _K),
    "log_convexity_midpoint_check z2": lambda x: dh.log_convexity_midpoint_check(1.0, [1.0], x, [0.5], _K),
    "kernel_solution_field": lambda x: dh.kernel_solution_field(x, _K),
    "normalization_check": lambda x: dh.normalization_check(1.0, x, _K),
    "chapman_kolmogorov_check": lambda x: dh.chapman_kolmogorov_check(1.0, 1.0, [1.0], x, _K),
    "heat_residual": lambda x: dh.heat_residual(1.0, x, [0.5], _K),
    "InitialDatum.value": lambda x: _DATUM.value(x),
    "dunkl_derivative": lambda x: dunkl_derivative(ScalarField.from_callable(lambda z: 1.0), x, 0, _K),
    "dunkl_laplacian": lambda x: dunkl_laplacian(ScalarField.from_callable(lambda z: 1.0), x, _K),
    "pi_psi": lambda x: pi_psi(ScalarField.from_callable(lambda z: 1.0), PSI_LOG, x, _K),
    "harnack_check x": lambda x: dh.harnack_check(_CONSTANT_FIELD, 0.5, x, 1.0, [0.2], lambda_kappa=0.5, d=1),
    "harnack_check y": lambda x: dh.harnack_check(_CONSTANT_FIELD, 0.5, [0.1], 1.0, x, lambda_kappa=0.5, d=1),
}

# the functions of one coordinate's kappa_i, each checked against the floor
KAPPA_ENTRY_POINTS = {
    "log_gaussian_mass": lambda k: dh.log_gaussian_mass(k),
    "log_e_kappa": lambda k: dh.log_e_kappa(1.0, 1.0, k),
    "moment_stats": lambda k: dh.moment_stats([1.0], k),
    "kernel_derivatives_1d_batch": lambda k: dh.kernel_derivatives_1d_batch(1.0, 1.0, [0.5], k),
    "f_of_a": lambda k: dh.f_of_a(0.5, k),
    "f_of_a at a = 0": lambda k: dh.f_of_a(0.0, k),
    "h_of_a": lambda k: dh.h_of_a(0.5, k),
    "h_of_a at a = 0": lambda k: dh.h_of_a(0.0, k),
    "liyau_coordinate_table": lambda k: dh.liyau_coordinate_table(1.0, k, [0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(TIME_ENTRY_POINTS))
@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan, "1.0", None])
def test_every_time_entry_point_rejects_bad_times(name, t):
    with pytest.raises(DomainError):
        TIME_ENTRY_POINTS[name](t)


@pytest.mark.parametrize("name", sorted(POINT_ENTRY_POINTS))
@pytest.mark.parametrize("x", [[math.nan], [math.inf], [1.0, 2.0], [[0.5]]])
def test_every_point_entry_point_rejects_bad_points(name, x):
    if name == "dunkl_laplacian" and np.ndim(x) == 2:
        # the Laplacian also takes n points as an (n, d) array, [[0.5]] being
        # one point of R^1; an array of more dimensions is no batch
        x = [x]
    with pytest.raises(DomainError):
        POINT_ENTRY_POINTS[name](x)


@pytest.mark.parametrize("name", sorted(KAPPA_ENTRY_POINTS))
@pytest.mark.parametrize(
    "kappa,message",
    [
        (1e-300, "multiplicity 1e-300 is below the floor 1e-08: each must be 0 or >= 1e-08"),
        (1e-12, "multiplicity 1e-12 is below the floor 1e-08: each must be 0 or >= 1e-08"),
        (-1.0, "multiplicities must be finite and >= 0, got -1.0"),
        (math.nan, "multiplicities must be finite and >= 0, got nan"),
        (math.inf, "multiplicities must be finite and >= 0, got inf"),
    ],
    ids=["1e-300", "1e-12", "-1", "nan", "inf"],
)
def test_every_kappa_entry_point_rejects_bad_multiplicities(name, kappa, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError) as exc:
            KAPPA_ENTRY_POINTS[name](kappa)
    assert str(exc.value) == message


@pytest.mark.parametrize("x", [[math.nan], [0.5, math.inf], [[[0.5]]]])
def test_gradient_form_check_rejects_bad_points(x):
    # the field fixes no dimension, so any length of a 1-d point, or of the
    # rows of an (n, d) array of points, is accepted
    with pytest.raises(DomainError):
        dh.gradient_form_check(_CONSTANT_FIELD, 1.0, x, 1.0)


@pytest.mark.parametrize("coords", [[0.0, math.inf], [0.0, math.nan], [-math.inf, 0.0]])
def test_grid_functions_reject_non_finite_coordinates(coords):
    with pytest.raises(DomainError, match="coordinates must be finite"):
        dh.liyau_coordinate_table(1.0, 0.5, coords)
    with pytest.raises(DomainError, match="coordinates must be finite"):
        dh.liyau_grid_extrema(1.0, [0.5, 0.0], coords)


# ---------------------------------------------------------------------------
# fields and composition


def test_from_callable_matches_analytic_derivatives():
    f = exp_field()
    g = ScalarField.from_callable(f.value)
    x = np.array([0.7, -1.2])
    np.testing.assert_allclose(g.gradient(x), f.gradient(x), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(g.hessian_diag(x), f.hessian_diag(x), rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("psi", [PSI_LOG, PSI_EXP, PSI_SQUARE, PSI_CUBE])
def test_smooth_function_derivatives_are_consistent(psi):
    for s in (0.3, 1.0, 2.7):
        d1 = oracle.central_d1(psi.value, s, 1e-4)
        d2 = oracle.central_d2(psi.value, s, 1e-3)
        assert abs(psi.deriv(s) - d1) <= 1e-8 * max(1.0, abs(d1))
        assert abs(psi.second_deriv(s) - d2) <= 1e-6 * max(1.0, abs(d2))


def test_compose_field_chain_rule():
    f = positive_poly_field()
    g = compose_field(PSI_LOG, f)
    x = np.array([1.1, -0.4])
    fx = f.value(x)
    assert abs(g.value(x) - math.log(fx)) < 1e-15
    np.testing.assert_allclose(g.gradient(x), f.gradient(x) / fx, rtol=1e-14)
    want = f.hessian_diag(x) / fx - (f.gradient(x) / fx) ** 2
    np.testing.assert_allclose(g.hessian_diag(x), want, rtol=1e-13)


# ---------------------------------------------------------------------------
# Dunkl derivative


@pytest.mark.parametrize("kappa", [0.25, 1.0, 2.5])
@pytest.mark.parametrize("u", [0.0, 0.7, -2.0])
def test_derivative_of_coordinate_is_constant(kappa, u):
    # D x = 1 + 2 kappa, exactly, on and off the hyperplane
    f = monomial_1d(1)
    assert dunkl_derivative(f, [u], 0, kappa) == 1.0 + 2.0 * kappa


@pytest.mark.parametrize("kappa,u", [(0.5, 1.3), (2.5, -0.8)])
def test_derivative_of_low_monomials(kappa, u):
    # D x^2 = 2x (even powers lose the reflection term), D x^3 = (3 + 2k) x^2
    assert abs(dunkl_derivative(monomial_1d(2), [u], 0, kappa) - 2.0 * u) < 1e-14
    want = (3.0 + 2.0 * kappa) * u * u
    assert abs(dunkl_derivative(monomial_1d(3), [u], 0, kappa) - want) < 1e-13


def test_derivative_zero_multiplicity_is_plain_derivative():
    f = poly_field()
    x = np.array([0.9, -1.4])
    for i in range(2):
        assert dunkl_derivative(f, x, i, [0.0, 0.0]) == f.gradient(x)[i]


def test_derivative_hyperplane_limit_is_continuous():
    f = exp_field()
    kappa = [1.5, 0.25]
    limit = dunkl_derivative(f, np.array([0.0, 1.0]), 0, kappa)
    expect = (1.0 + 2.0 * 1.5) * f.gradient(np.array([0.0, 1.0]))[0]
    assert abs(limit - expect) < 1e-15
    for eps, tol in [(1e-3, 1e-3), (1e-5, 1e-5)]:
        off = dunkl_derivative(f, np.array([eps, 1.0]), 0, kappa)
        assert abs(off - limit) <= tol * max(1.0, abs(limit))


def test_dimension_mismatch_raises():
    f = poly_field()
    with pytest.raises(DomainError):
        dunkl_derivative(f, [1.0, 2.0], 0, [0.5])
    with pytest.raises(DomainError):
        dunkl_laplacian(f, [1.0, 2.0], [0.5, 0.5, 0.5])
    with pytest.raises(DomainError):
        dunkl_derivative(f, [1.0, 2.0], 5, [0.5, 0.5])


# ---------------------------------------------------------------------------
# Dunkl Laplacian


@pytest.mark.parametrize("kappa,u", [(0.25, 0.9), (1.0, -1.7), (2.5, 3.0)])
def test_laplacian_of_square_monomials(kappa, u):
    # L x^2 = 2 + 4 kappa, L x^3 = (6 + 4 kappa) x
    got2 = dunkl_laplacian(monomial_1d(2), [u], kappa)
    assert abs(got2 - (2.0 + 4.0 * kappa)) < 1e-12
    got3 = dunkl_laplacian(monomial_1d(3), [u], kappa)
    assert abs(got3 - (6.0 + 4.0 * kappa) * u) <= 1e-12 * max(1.0, abs(u))


def test_laplacian_of_norm_squared():
    kappa = [0.5, 1.5, 0.0]
    f = ScalarField(
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hessian_diag=lambda x: 2.0 * np.ones(x.size),
    )
    want = sum(2.0 + 4.0 * k for k in kappa)
    for x in ([1.0, -2.0, 0.4], [0.0, 1.0, 2.0]):
        assert abs(dunkl_laplacian(f, x, kappa) - want) < 1e-12


def test_laplacian_is_square_of_derivative():
    # L = sum_i D_i D_i; the outer application differentiates numerically
    f = poly_field()
    kappa = [0.5, 1.25]
    x = np.array([0.8, -1.3])
    composed = 0.0
    for i in range(2):
        inner = ScalarField.from_callable(
            lambda z, i=i: dunkl_derivative(f, z, i, kappa)
        )
        composed += dunkl_derivative(inner, x, i, kappa)
    direct = dunkl_laplacian(f, x, kappa)
    assert abs(direct - composed) <= 1e-7 * max(1.0, abs(direct))


def test_laplacian_invariant_field_reduces_to_radial_form():
    # f even in each coordinate: L f = Delta f + sum_i 2 kappa_i/x_i d_i f
    f = gaussian_field()
    kappa = [0.75, 2.0]
    x = np.array([1.2, -0.6])
    want = float(f.hessian_diag(x).sum()) + sum(
        2.0 * kappa[i] / x[i] * f.gradient(x)[i] for i in range(2)
    )
    assert abs(dunkl_laplacian(f, x, kappa) - want) <= 1e-13 * max(1.0, abs(want))


def test_laplacian_zero_multiplicity_is_plain_laplacian():
    f = poly_field()
    x = np.array([0.3, 2.1])
    assert dunkl_laplacian(f, x, [0.0, 0.0]) == float(f.hessian_diag(x).sum())


def test_laplacian_hyperplane_limit_is_continuous():
    f = exp_field()
    kappa = [2.0, 0.5]
    on = dunkl_laplacian(f, np.array([0.0, 0.7]), kappa)
    for eps, tol in [(1e-3, 2e-3), (1e-5, 2e-5)]:
        off = dunkl_laplacian(f, np.array([eps, 0.7]), kappa)
        assert abs(off - on) <= tol * max(1.0, abs(on))


# ---------------------------------------------------------------------------
# reflection defect of a composition


def test_pi_psi_sign_for_convex_and_concave_wrappers():
    rng = np.random.default_rng(53)
    f = positive_poly_field()
    for _ in range(25):
        x = rng.uniform(-2.0, 2.0, size=2)
        kappa = rng.uniform(0.0, 2.5, size=2)
        assert pi_psi(f, PSI_LOG, x, kappa) <= 1e-15
        assert pi_psi(f, PSI_EXP, x, kappa) >= -1e-12
        assert pi_psi(f, PSI_SQUARE, x, kappa) >= -1e-15


def test_pi_psi_vanishes_for_invariant_fields():
    f = gaussian_field()
    assert pi_psi(f, PSI_SQUARE, [1.1, -0.4], [0.5, 1.5]) == 0.0


def test_pi_psi_linear_field_square_wrapper_is_constant():
    # f = x, psi = t^2: the defect is 4 kappa at every point, both branches
    f = monomial_1d(1)
    for kappa in (0.25, 1.0, 2.5):
        for u in (0.0, 1e-9, 0.37, -5.0):
            got = pi_psi(f, PSI_SQUARE, [u], kappa)
            assert abs(got - 4.0 * kappa) < 1e-12


def test_pi_psi_hyperplane_limit_is_continuous():
    f = exp_field()
    kappa = [1.25, 0.0]  # isolate the hyperplane coordinate
    on = pi_psi(f, PSI_CUBE, np.array([0.0, 0.9]), kappa)
    want = 2.0 * 1.25 * PSI_CUBE.second_deriv(f.value(np.array([0.0, 0.9]))) * (
        f.gradient(np.array([0.0, 0.9]))[0] ** 2
    )
    assert abs(on - want) < 1e-14
    for eps, tol in [(1e-3, 5e-3), (1e-4, 5e-4)]:
        off = pi_psi(f, PSI_CUBE, np.array([eps, 0.9]), kappa)
        assert abs(off - on) <= tol * max(1.0, abs(on))


def test_pi_psi_zero_multiplicity_is_zero():
    f = exp_field()
    assert pi_psi(f, PSI_EXP, [0.4, -1.0], [0.0, 0.0]) == 0.0


# ---------------------------------------------------------------------------
# chain rule


def chain_rule_corpus():
    pts2 = [
        np.array([0.8, -1.3]),
        np.array([1.6, 0.45]),
        np.array([-0.35, -1.9]),
        np.array([0.0, 1.1]),  # on the first hyperplane
    ]
    cases = []
    for f in (positive_poly_field(), exp_field((0.4, 0.15))):
        for psi in (PSI_LOG, PSI_EXP, PSI_SQUARE, PSI_CUBE):
            for x in pts2:
                cases.append((f, psi, x, [0.5, 1.5]))
    f = gaussian_field()
    for psi in (PSI_EXP, PSI_SQUARE):
        cases.append((f, psi, np.array([1.0, 0.3]), [2.5, 0.25]))
    return cases


def test_chain_rule_identity_on_analytic_corpus():
    cases = chain_rule_corpus()
    assert len(cases) >= 10
    for f, psi, x, kappa in cases:
        out = chain_rule_residual(f, psi, x, kappa)
        assert isinstance(out, ChainRuleResidual)
        assert abs(out.residual) <= 1e-10 * out.scale, (psi.name, x)
        assert out.residual == out.lhs - out.rhs


def test_chain_rule_exact_on_hyperplane():
    # the limit branches of L, D and Pi_psi must agree with each other:
    # (1+2k)(psi' f'' + psi'' f'^2) on both sides, residual at round-off
    f = exp_field((0.9, 0.2))
    for psi in (PSI_EXP, PSI_SQUARE, PSI_CUBE):
        out = chain_rule_residual(f, psi, np.array([0.0, 0.5]), [1.75, 0.0])
        assert abs(out.residual) <= 1e-13 * out.scale


def test_chain_rule_zero_multiplicity_is_classical():
    f = poly_field()
    out = chain_rule_residual(f, PSI_SQUARE, np.array([0.7, -0.2]), [0.0, 0.0])
    assert abs(out.residual) <= 1e-12 * out.scale


def test_fields_are_frozen():
    f = poly_field()
    with pytest.raises(Exception):
        f.value = None
    k = MultiplicityZ2.of(0.5)
    with pytest.raises(Exception):
        k.values = (1.0,)

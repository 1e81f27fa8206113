import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from conftest import rand_admissible_shaping, rand_plant, rand_spd
from flexjoint import (
    AssemblyError,
    EnvironmentImpedance,
    ImpedanceGains,
    LinearRobotParams,
    NotApplicableError,
    OuterLoop,
    RationalTF,
    ShapedParams,
    StateSpace,
    TargetImpedance,
    ValidationError,
    admittance_1dof,
    assemble_closed_loop,
    assemble_coupled,
    assemble_plant_loop,
    env_impedance_tf,
    freq_response,
    poles_zeros,
    positive_real_check,
    recover_shaped,
    ss_to_tf,
    synthesize_gains,
    target_admittance,
    two_link_arm,
)
from flexjoint.lti import _modal_response, evaluate
from flexjoint.poly import ROOT_BACKWARD_ERROR, _certify, aberth_roots

PAPER_TARGET = TargetImpedance(1, 3.0, 10.0, 100.0)
OUTER = OuterLoop(100.0, 10.0)
LAG = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def per_point_response(ss, svals):
    """Reference resolvent of a SISO system: one solve per point, inf on a pole."""
    out = np.empty(len(svals), dtype=complex)
    for i, s in enumerate(svals):
        try:
            x = np.linalg.solve(s * np.eye(ss.n_states) - ss.A, ss.B[:, 0])
        except np.linalg.LinAlgError:
            out[i] = np.inf
        else:
            out[i] = ss.C[0] @ x + ss.Dmat[0, 0]
    return out


def refined_response(ss, svals):
    """Reference resolvent of a SISO system: per-point LU and three steps of
    iterative refinement, with residuals and the output in long double."""
    A, b, c = (np.asarray(m, np.longdouble) for m in (ss.A, ss.B[:, 0], ss.C[0]))
    out = np.empty(len(svals), dtype=complex)
    for i, s in enumerate(svals):
        Z = s * np.eye(ss.n_states) - ss.A
        x = np.linalg.solve(Z, ss.B[:, 0]).astype(np.clongdouble)
        for _ in range(3):
            r = b - (np.clongdouble(s) * x - A @ x)
            x += np.linalg.solve(Z, r.astype(complex))
        out[i] = complex(c @ x + ss.Dmat[0, 0])
    return out


def traced_peak(fn, *args):
    """Peak traced memory of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def siso(ss):
    """The first input/output pair of a state-space system."""
    return StateSpace(ss.A, ss.B[:, :1], ss.C[:1], ss.Dmat[:1, :1])


def shaped_siso(rng, n, outer):
    """A random shaped loop of ``n`` joints, with a random outer loop or none."""
    plant = rand_plant(rng, n)
    _, sp = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))
    loop = (OuterLoop(np.diag(rng.uniform(10.0, 200.0, n)), np.diag(rng.uniform(1.0, 20.0, n)))
            if outer else None)
    return siso(assemble_closed_loop(plant, sp, loop))


def open_loop_matrix(plant):
    """Hand-built open-loop dynamics matrix in (q, theta, p, s)."""
    n = plant.n
    Minv = np.linalg.inv(plant.M)
    Jinv = np.linalg.inv(plant.J)
    Z = np.zeros((n, n))
    Ta = np.hstack([-plant.K, plant.K, -plant.D @ Minv, plant.D @ Jinv])
    return np.vstack([np.hstack([Z, Z, Minv, Z]), np.hstack([Z, Z, Z, Jinv]), Ta, -Ta])


class TestAssembleClosedLoop:
    def test_identity_shaping_keeps_plant_spectrum(self, paper_plant):
        sp = ShapedParams(paper_plant.J, paper_plant.K, paper_plant.D)
        ss = assemble_closed_loop(paper_plant, sp)
        got = np.sort_complex(np.linalg.eigvals(ss.A))
        want = np.sort_complex(np.linalg.eigvals(open_loop_matrix(paper_plant)))
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_rigid_body_mode_without_outer_loop(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        ev = np.linalg.eigvals(assemble_closed_loop(paper_plant, sp).A)
        assert np.min(np.abs(ev)) <= 1e-8

    def test_outer_loop_removes_rigid_mode(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        ev = np.linalg.eigvals(assemble_closed_loop(paper_plant, sp, OUTER).A)
        assert np.min(np.abs(ev)) > 1e-3
        assert np.max(ev.real) <= 1e-12

    def test_varying_mass_plant_rejected(self, demo_arm):
        from flexjoint import ValidationError
        sp = ShapedParams(np.eye(2), 2.0 * demo_arm.K, np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            assemble_closed_loop(demo_arm, sp)


class TestAssemblePlantLoop:
    def test_identity_gains_give_open_loop(self, paper_plant):
        g = ImpedanceGains(0.0, 0.0, 1.0)
        ss = assemble_plant_loop(paper_plant, g)
        assert np.allclose(ss.A, open_loop_matrix(paper_plant), rtol=1e-14, atol=0.0)

    def test_response_matches_shaped_loop(self):
        # built from the gains alone, the plant chart must realize the same
        # port admittance as the shaped chart
        rng = np.random.default_rng(7)
        plant = rand_plant(rng, 2)
        g, sp = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))
        outer = OuterLoop(rand_spd(rng, 2, 50.0, 200.0), rand_spd(rng, 2, 5.0, 20.0))
        plant_ss = assemble_plant_loop(plant, g, outer)
        closed_ss = assemble_closed_loop(plant, sp, outer)
        svals = 1j * np.logspace(-1, 3, 25)
        for i in range(2):
            for j in range(2):
                a = evaluate(StateSpace(plant_ss.A, plant_ss.B[:, j:j + 1], plant_ss.C[i:i + 1],
                                        np.zeros((1, 1))), svals)
                b = evaluate(StateSpace(closed_ss.A, closed_ss.B[:, j:j + 1],
                                        closed_ss.C[i:i + 1], np.zeros((1, 1))), svals)
                assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(b))


class TestAssembleCoupled:
    def test_zero_environment_reduces_to_closed_loop(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        env0 = EnvironmentImpedance(1, 0.0, 0.0, 0.0)
        a = assemble_coupled(paper_plant, sp, env0).A
        b = assemble_closed_loop(paper_plant, sp).A
        assert np.allclose(a, b)

    def test_random_psd_interconnection_is_stable(self, paper_plant):
        rng = np.random.default_rng(41)
        for _ in range(25):
            sp = recover_shaped(paper_plant, float(rng.uniform(-0.9, 0.9)),
                                float(rng.uniform(0.0, 4.0)))
            env = EnvironmentImpedance(1, float(rng.uniform(0, 5)),
                                       float(rng.uniform(0, 5)), float(rng.uniform(0, 50)))
            outer = OuterLoop(float(rng.uniform(0, 200)), float(rng.uniform(0, 20)))
            ev = np.linalg.eigvals(assemble_coupled(paper_plant, sp, env, outer).A)
            assert np.max(ev.real) <= 1e-9

    def test_joint_count_mismatch_raises_assembly_error(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        sp2 = ShapedParams(np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)))
        outer2 = OuterLoop(np.eye(2), np.eye(2))
        env = EnvironmentImpedance(1, 1.0, 2.0, 50.0)
        for shaped, outer in ((sp2, None), (sp, outer2)):
            with pytest.raises(AssemblyError):
                assemble_closed_loop(paper_plant, shaped, outer)
            with pytest.raises(AssemblyError):
                assemble_coupled(paper_plant, shaped, env, outer)

    def test_added_mass_rescales_link_row(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.0, 0.0)
        env = EnvironmentImpedance(1, 1.0, 0.0, 0.0)
        ss = assemble_coupled(paper_plant, sp, env)
        assert ss.A[0, 2] == pytest.approx(0.25)   # 1/(M + M_h) vs 1/3


class TestAdmittance:
    def test_unit_parameter_hand_value(self):
        sp = ShapedParams(1.0, 1.0, 1.0)
        tf = admittance_1dof(sp, 1.0)
        assert tf.num.tolist() == [1.0, 1.0, 1.0]
        assert tf.den.tolist() == [0.0, 2.0, 2.0, 1.0]

    def test_zeros_are_numerator_roots(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        tf = admittance_1dof(sp, 3.0)
        _, zeros = poles_zeros(tf)
        vals = np.abs((sp.J_e[0, 0] * zeros ** 2 + sp.D_e[0, 0] * zeros
                       + sp.K_e[0, 0]))
        assert np.max(vals) <= 1e-8 * sp.K_e[0, 0]

    def test_matches_state_space_response(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        tf = admittance_1dof(sp, 3.0)
        ss = assemble_closed_loop(paper_plant, sp)
        w = np.logspace(-2, 3, 50)
        a = evaluate(tf, 1j * w)
        b = evaluate(ss, 1j * w)
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-8

    def test_multi_joint_not_applicable(self):
        sp = ShapedParams(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(NotApplicableError):
            admittance_1dof(sp, np.eye(2))


class TestTargetAdmittance:
    def test_paper_parameters(self):
        tf = target_admittance(PAPER_TARGET)
        assert tf.num.tolist() == [0.0, 1.0]
        assert tf.den.tolist() == [100.0, 10.0, 3.0]

    def test_zero_at_origin(self):
        tf = target_admittance(PAPER_TARGET)
        assert abs(evaluate(tf, 0.0)[0]) == 0.0

    def test_poles_match_quadratic_formula(self):
        poles, zeros = poles_zeros(target_admittance(PAPER_TARGET))
        upper = poles[np.argmax(poles.imag)]
        assert upper.real == pytest.approx(-5.0 / 3.0, rel=1e-10)
        assert upper.imag == pytest.approx(np.sqrt(1100.0) / 6.0, rel=1e-10)
        assert zeros.tolist() == [0.0]


class TestStateSpace:
    def test_blocks_are_read_only_copies(self):
        blocks = [np.array([[-1.0, 2.0], [0.0, -3.0]]), np.ones((2, 1)), np.ones((1, 2)),
                  np.zeros((1, 1))]
        ss = StateSpace(*blocks)
        for name, block in zip(("A", "B", "C", "Dmat"), blocks):
            kept = getattr(ss, name)
            assert kept is not block and block.flags.writeable and not kept.flags.writeable
            before = kept.copy()
            block += 1.0
            np.testing.assert_array_equal(kept, before)


class TestSsToTf:
    def test_first_order_lag(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        tf = ss_to_tf(ss)
        assert np.allclose(tf.num, [1.0])
        assert np.allclose(tf.den, [1.0, 1.0])

    def test_double_integrator(self):
        ss = StateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        tf = ss_to_tf(ss)
        assert np.allclose(tf.num, [1.0])
        assert np.allclose(tf.den, [0.0, 0.0, 1.0])

    def test_feedthrough(self):
        ss = StateSpace([[-2.0]], [[1.0]], [[1.0]], [[3.0]])
        tf = ss_to_tf(ss)   # 3 + 1/(s+2) = (3s + 7)/(s + 2)
        assert np.allclose(tf.num, [7.0, 3.0])
        assert np.allclose(tf.den, [2.0, 1.0])

    def test_closed_loop_reduces_to_admittance(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        tf = ss_to_tf(assemble_closed_loop(paper_plant, sp))
        ref = admittance_1dof(sp, 3.0)
        assert tf.cancelled == (0j,)     # the rigid-body s, stripped exactly
        # same rational function up to common scaling
        scale = ref.den[-1] / tf.den[-1]
        assert np.max(np.abs(ref.num - scale * tf.num)) <= 1e-7 * np.max(np.abs(ref.num))
        assert np.max(np.abs(ref.den - scale * tf.den)) <= 1e-7 * np.max(np.abs(ref.den))

    def test_matches_resolvent_sampling(self, paper_plant):
        rng = np.random.default_rng(51)
        sp = recover_shaped(paper_plant, -0.9, 1.0)
        for outer in (None, OUTER):
            ss = assemble_closed_loop(paper_plant, sp, outer)
            tf = ss_to_tf(ss)
            w = np.logspace(-2, 3, 50)
            a = evaluate(tf, 1j * w)
            b = evaluate(ss, 1j * w)
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-6

    def test_converts_without_root_finder(self, paper_plant, monkeypatch):
        def refuse(coeffs):
            raise AssertionError("ss_to_tf called the root finder")
        monkeypatch.setattr("flexjoint.lti.aberth_roots", refuse)
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        for outer in (None, OUTER):
            ss_to_tf(assemble_closed_loop(paper_plant, sp, outer))
        rng = np.random.default_rng(12)
        plant = rand_plant(rng, 2)
        _, shaped = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))
        outer = OuterLoop(np.diag([100.0, 50.0]), np.diag([10.0, 5.0]))
        ss_to_tf(assemble_closed_loop(plant, shaped, outer))

    def test_two_joint_loops_match_resolvent(self):
        # small interior coefficients of n = 2 polynomials are genuine
        rng = np.random.default_rng(2)
        outer = OuterLoop(np.diag([100.0, 50.0]), np.diag([10.0, 5.0]))
        s = 1j * np.logspace(-2, 3, 400)
        for _ in range(30):
            plant = rand_plant(rng, 2)
            _, shaped = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))
            ss = assemble_closed_loop(plant, shaped, outer)
            siso = StateSpace(ss.A, ss.B[:, :1], ss.C[:1], ss.Dmat[:1, :1])
            a, b = evaluate(ss_to_tf(ss), s), evaluate(siso, s)
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-6

    def test_non_minimal_realization_keeps_hidden_factor(self):
        # 1/(s+2) with an unobservable mode at -1: (s+1)/((s+1)(s+2)), not reduced
        ss = StateSpace(np.diag([-2.0, -1.0]), [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        tf = ss_to_tf(ss)
        assert tf.cancelled == ()
        assert np.allclose(tf.num, [1.0, 1.0]) and np.allclose(tf.den, [2.0, 3.0, 1.0])
        s = 1j * np.logspace(-2, 3, 60)
        a, b = evaluate(tf, s), evaluate(ss, s)
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("outer", [False, True])
    def test_random_designs_match_resolvent(self, n, outer):
        # on these draws, the polynomial route this replaced disagreed with
        # the resolvent on 11 of 12 loops at n = 3 and on all 12 at n = 4
        rng = np.random.default_rng(100 * n + outer)
        s = 1j * np.logspace(-2, 3, 400)
        for _ in range(6):
            ss = shaped_siso(rng, n, outer)
            tf = ss_to_tf(ss)
            a, b = evaluate(tf, s), evaluate(ss, s)
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-6
            assert positive_real_check(tf).verdict == "passive"
            assert tf._poles.size == 4 * n - len(tf.cancelled)
            for roots, coeffs in ((tf._poles, tf.den), (tf._zeros, tf.num)):
                assert np.max(_certify(roots, coeffs), initial=0.0) <= ROOT_BACKWARD_ERROR
                # sorted, and closed under conjugation bit for bit
                assert np.array_equal(np.sort_complex(roots.conj()), roots)

    def test_relative_degree_two_zero(self):
        # (2s + 10) / ((s + 1)(s + 2)(s + 3)) in companion form: c b = 0,
        # so the gain is c A b = 2 and the one zero is that of (s + 5)
        A = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]]
        tf = ss_to_tf(StateSpace(A, [[0.0], [0.0], [1.0]], [[10.0, 2.0, 0.0]], [[0.0]]))
        poles, zeros = poles_zeros(tf)
        assert zeros.size == 1 and zeros[0] == pytest.approx(-5.0, rel=1e-12)
        assert np.allclose(np.sort(poles.real), [-3.0, -2.0, -1.0], rtol=1e-12)
        assert np.allclose(tf.num, [10.0, 2.0], rtol=1e-12)
        assert np.allclose(tf.den, [6.0, 11.0, 6.0, 1.0], rtol=1e-12)

    def test_feedthrough_has_a_zero_per_state(self):
        # 2 + 1/(s + 1) + 1/(s + 2) = (2s^2 + 8s + 7) / ((s + 1)(s + 2)),
        # zeros -2 -+ sqrt(2)/2
        tf = ss_to_tf(StateSpace(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]],
                                 [[2.0]]))
        zeros = poles_zeros(tf)[1]
        assert zeros.size == 2
        assert np.allclose(np.sort(zeros.real), [-2.0 - 0.5 ** 0.5, -2.0 + 0.5 ** 0.5],
                           rtol=1e-12)
        assert not np.any(zeros.imag)
        assert np.allclose(tf.num, [7.0, 8.0, 2.0], rtol=1e-12)

    def test_zero_markov_parameters_give_the_zero_function(self):
        # b is unobservable from c: c A^k b = 0 for every k
        tf = ss_to_tf(StateSpace(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]]))
        assert np.array_equal(tf.num, [0.0]) and tf.cancelled == ()
        assert poles_zeros(tf)[1].size == 0
        assert np.array_equal(evaluate(tf, [1j, 2.0]), [0.0, 0.0])

    def test_refuses_large_systems(self):
        m = 24
        ss = StateSpace(-np.eye(m), np.ones((m, 1)), np.ones((1, m)), [[0.0]])
        with pytest.raises(AssemblyError):
            ss_to_tf(ss)

    @pytest.mark.parametrize("A, b, c, d, what", [
        ([[-1.0]], [[1.0]], [[1e300]], [[1e-300]], "A - b c / d"),
        ([[0.0, 1e200], [-1e200, 0.0]], [[0.0], [1.0]], [[1e200, 0.0]], [[0.0]], "c A^k b"),
        (np.diag([1e300, 1e300]), [[1.0], [0.0]], [[1e10, 1e10]], [[0.0]], "the zero dynamics"),
        (np.diag([-1e200, -1e200]), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]], "||A||_F"),
    ], ids=["feedthrough", "markov", "zero_dynamics", "norm"])
    def test_refuses_what_overflows(self, A, b, c, d, what):
        # an overflowed product is refused before LAPACK, with no RuntimeWarning
        with pytest.raises(AssemblyError, match=f"^transfer function: {re.escape(what)} "
                                                "overflows float64"):
            ss_to_tf(StateSpace(A, b, c, d))


class TestFreqResponse:
    def test_first_order_corner(self):
        mag, phase = freq_response(RationalTF([1.0], [1.0, 1.0]), [1.0])
        assert mag[0] == pytest.approx(-3.0103, abs=1e-3)
        assert phase[0] == pytest.approx(-45.0, abs=1e-9)

    def test_target_rolloff_slope(self):
        tf = target_admittance(PAPER_TARGET)
        mag, _ = freq_response(tf, [1e4, 1e5])
        assert mag[1] - mag[0] == pytest.approx(-20.0, abs=1e-3)

    def test_pole_on_axis_flags_infinite(self):
        tf = RationalTF([1.0], [1.0, 0.0, 1.0])   # 1/(s^2+1), poles at +-j
        mag, phase = freq_response(tf, [1.0])
        assert np.isinf(mag[0])
        assert np.isnan(phase[0])

    def test_state_space_exact_pole_is_infinite(self):
        # 1/s: the point on the pole is inf, the others are finite
        out = evaluate(StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]]), [0.0, 1j])
        assert np.isinf(out[0])
        assert out[1] == -1j

    def test_state_space_exact_pole_past_first_block(self):
        # 1/s on 2,000 points: the pole at point 1,500 sits in a later block
        # of the modal solve.  It reads inf, and the other points are exactly
        # those of the grid without it, within 1e-12 of a per-point solve
        ss = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        s = 1j * np.logspace(-2, 2, 2000)
        s[1500] = 0.0
        out = evaluate(ss, s)
        assert np.isinf(out[1500])
        rest = np.delete(out, 1500)
        assert np.array_equal(rest, evaluate(ss, np.delete(s, 1500)))
        want = np.delete(per_point_response(ss, s), 1500)
        assert np.all(np.abs(rest - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2), (3, 2), (2, 3, 1), (0,), (2, 0)], ids=str)
    def test_state_space_keeps_point_shape(self, shape):
        # two states, so a row of two points must not broadcast against sI - A
        ss = StateSpace([[0.0, 1.0], [-4.0, -0.4]], [[0.0], [1.0]], [[0.0, 1.0]], [[0.0]])
        tf = RationalTF([0.0, 1.0], [4.0, 0.4, 1.0])
        s = 1j * np.linspace(0.5, 3.0, int(np.prod(shape))).reshape(shape)
        want = evaluate(tf, s)
        got = evaluate(ss, s)
        assert got.shape == want.shape == np.atleast_1d(s).shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), points=st.integers(1, 300))
    def test_state_space_matches_per_point_solve(self, seed, n, points):
        rng = np.random.default_rng(seed)
        plant = rand_plant(rng, n)
        _, sp = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))
        ss = assemble_closed_loop(plant, sp, OuterLoop(100.0 * np.eye(n), 10.0 * np.eye(n)))
        ss = StateSpace(ss.A, ss.B[:, :1], ss.C[:1], ss.Dmat[:1, :1])
        s = 1j * 10.0 ** rng.uniform(-2.0, 4.0, points)
        want = per_point_response(ss, s)
        assert np.all(np.abs(evaluate(ss, s) - want) <= 1e-12 * np.abs(want))

    def test_state_space_memory_is_bounded_by_the_block(self):
        # a 16-state system on 20,000 points; one stack for the whole grid
        # would trace about 84 MiB
        rng = np.random.default_rng(0)
        A = rng.normal(size=(16, 16))
        ss = StateSpace(A, rng.normal(size=(16, 1)), rng.normal(size=(1, 16)), [[0.0]])
        s = 1j * np.logspace(-2, 4, 20000)
        assert traced_peak(evaluate, ss, s) < 4 * 2**20

    def test_uncertified_memory_is_bounded_by_the_block(self):
        # the same with A one 16-state Jordan block, which sends every point
        # to the stacked LU
        rng = np.random.default_rng(0)
        ss = StateSpace(np.eye(16, k=1), rng.normal(size=(16, 1)), rng.normal(size=(1, 16)),
                        [[0.0]])
        s = 1j * np.logspace(-2, 4, 20000)
        assert not np.any(_modal_response(ss, s)[1])
        assert traced_peak(evaluate, ss, s) < 4 * 2**20

    def test_state_space_is_as_accurate_as_refined_solve(self):
        # against per-point LU with three refinement steps whose residuals are
        # taken in long double; a plain LU solve misses 2e-14 on these loops
        rng = np.random.default_rng(5)
        w = 1j * np.logspace(-2, 3, 400)
        for n in (1, 2, 3, 4) * 3:
            ss = shaped_siso(rng, n, outer=True)
            want = refined_response(ss, w)
            assert np.max(np.abs(evaluate(ss, w) - want) / np.abs(want)) <= 2e-14

    def test_certificate_is_componentwise(self):
        # a companion realization of (s + 1)(s + 1.01)(s + 1.02)(s + 1.03):
        # at high frequency its output x_0 is far below ||x||, and modal
        # results off by 3e-11 meet a normwise bound; the componentwise
        # bound sends them to LU
        A = np.eye(4, k=1)
        A[-1] = -np.poly([-1.0, -1.01, -1.02, -1.03])[:0:-1]
        ss = StateSpace(A, [[0.0], [0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0, 0.0]], [[0.0]])
        w = 1j * np.logspace(-2, 3, 400)
        want = refined_response(ss, w)
        assert np.max(np.abs(evaluate(ss, w) - want) / np.abs(want)) <= 2e-14

    def test_uncertified_loops_match_per_point_solve(self, paper_plant):
        # without an outer loop the rigid-body double pole at the origin makes
        # A defective, so the modal solve is not certified there
        w = 1j * np.logspace(-2, 3, 400)
        for ss in (siso(assemble_closed_loop(paper_plant, recover_shaped(paper_plant, 0.5, 2.0))),
                   shaped_siso(np.random.default_rng(9), 2, outer=False)):
            want = per_point_response(ss, w)
            assert np.all(np.abs(evaluate(ss, w) - want) <= 1e-12 * np.abs(want))

    def test_outer_loop_designs_are_certified(self):
        # a guard on speed: every point of these loops takes the modal solve
        rng = np.random.default_rng(11)
        w = 1j * np.logspace(-2, 3, 400)
        for k in range(200):
            ss = shaped_siso(rng, 1 + k % 4, outer=True)
            assert np.all(_modal_response(ss, w)[1]), k

    def test_rejects_negative_frequency(self):
        from flexjoint import ValidationError
        with pytest.raises(ValidationError):
            freq_response(RationalTF([1.0], [1.0, 1.0]), [-1.0])


class TestPolesZeros:
    def test_poles_match_eigenvalues(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        ss = assemble_closed_loop(paper_plant, sp, OUTER)
        poles, _ = poles_zeros(ss_to_tf(ss))
        ev = np.sort_complex(np.linalg.eigvals(ss.A))
        assert np.max(np.abs(np.sort_complex(poles) - ev)) \
            <= 1e-6 * max(1.0, np.max(np.abs(ev)))

    def test_conjugate_closure(self, paper_plant):
        sp = recover_shaped(paper_plant, -0.9, 0.0)
        poles, zeros = poles_zeros(ss_to_tf(assemble_closed_loop(paper_plant, sp, OUTER)))
        for roots in (poles, zeros):
            assert {(r.real, r.imag) for r in roots} == {(r.real, -r.imag) for r in roots}


    def test_roots_are_found_once_per_transfer_function(self, paper_plant, monkeypatch):
        from flexjoint import lti
        calls = []

        def counted(coeffs):
            calls.append(coeffs)
            return aberth_roots(coeffs)

        monkeypatch.setattr(lti, "aberth_roots", counted)
        ss = assemble_closed_loop(paper_plant, recover_shaped(paper_plant, 0.9, 4.0), OUTER)
        # a converted function keeps the realization's roots: no root finding
        tf = ss_to_tf(ss)
        poles, zeros = poles_zeros(tf)
        verdict = positive_real_check(tf)
        assert calls == [] and verdict.verdict == "passive"
        # the returned roots are copies: writing over them changes no verdict
        poles[:] = 1.0
        zeros[:] = 1.0
        assert positive_real_check(tf) == verdict
        assert np.array_equal(poles_zeros(tf)[0], ss_to_tf(ss)._poles)
        assert calls == []
        # one built from coefficients finds its poles and its zeros once each
        built = RationalTF(tf.num, tf.den)
        for _ in range(3):
            poles_zeros(built)
            positive_real_check(built)
        assert len(calls) == 2
        assert np.array_equal(calls[0], tf.den) and np.array_equal(calls[1], tf.num)

    def test_failed_root_finding_is_not_kept(self, monkeypatch):
        from flexjoint import RootFindingError, lti
        tf = RationalTF([1.0], [1.0, 1.0])

        def refuse(coeffs):
            raise RootFindingError("refused")

        monkeypatch.setattr(lti, "aberth_roots", refuse)
        for _ in range(2):
            with pytest.raises(RootFindingError):
                positive_real_check(tf)
        monkeypatch.setattr(lti, "aberth_roots", aberth_roots)
        assert positive_real_check(tf).verdict == "passive"


class TestPositiveReal:
    def test_canonical_lag_is_passive(self):
        assert positive_real_check(RationalTF([1.0], [1.0, 1.0])).verdict == "passive"

    def test_pure_spring_is_passive(self):
        # 1/s: simple axis pole with positive residue, Re == 0 on the grid
        assert positive_real_check(RationalTF([1.0], [0.0, 1.0])).verdict == "passive"

    def test_double_integrator_not_passive(self):
        v = positive_real_check(RationalTF([1.0], [0.0, 0.0, 1.0]))
        assert v.verdict == "not-passive"
        assert v.condition == "repeated imaginary-axis pole"

    def test_negative_real_part_detected(self):
        v = positive_real_check(RationalTF([-1.0, 1.0], [1.0, 2.0, 1.0]))
        assert v.verdict == "not-passive"
        assert v.condition == "negative real part on frequency grid"
        assert v.witness is not None

    def test_unstable_pole_detected(self):
        v = positive_real_check(RationalTF([1.0], [-1.0, 1.0]))   # 1/(s-1)
        assert v.verdict == "not-passive"
        assert v.condition == "pole in right half-plane"

    def test_negative_axis_residue_detected(self):
        v = positive_real_check(RationalTF([-1.0], [0.0, 1.0]))   # -1/s
        assert v.verdict == "not-passive"
        assert v.condition == "negative residue at imaginary-axis pole"

    def test_verdict_needs_no_zeros(self):
        # A numerator of a random n = 3 design: near its root s = -188.6 the
        # terms reach 4e23, so rounding alone leaves |p| near 1e8, far above
        # 1e-8 of the coefficient norm, yet every root is exact to a backward
        # error near 1e-16 and is certified.  The verdict depends on the
        # poles only.
        num = [85356.97739933849, 19121066613085.785, 2498659819465.384,
               2238779314491.1616, 150864908345.04465, 59270371396.649574,
               529376649.3877739, 48319724.03422368, 250105.74320346105]
        roots = aberth_roots(num)
        assert roots.size == 8
        backward = np.abs(P.polyval(roots, num)) / P.polyval(np.abs(roots), np.abs(num))
        assert np.max(backward) <= 1e-12
        assert np.max(np.abs(P.polyval(roots, num))) > 1e-8 * np.max(np.abs(num))
        v = positive_real_check(RationalTF(num, [1.0, 1.0]))
        assert v.verdict == "not-passive"

    # the doubt band: a pole real part in (1e-9, 1e-6] of max(1, |p|), or a
    # grid minimum in [-1e-6, -1e-9), is beyond what the grid can decide
    def test_marginal_pole_is_inconclusive(self):
        # poles 1e-2 +- 1e5 j, real part 1e-7 of the modulus; Re > 0 on the grid
        v = positive_real_check(RationalTF([1.0], [1e10 + 1e-4, -2e-2, 1.0]))
        assert v.verdict == "inconclusive"
        assert v.condition == "pole real part within grid doubt band"
        assert v.witness.real == pytest.approx(1e-2, rel=1e-6)
        assert abs(v.witness.imag) == pytest.approx(1e5, rel=1e-12)
        assert v.min_real > 0.0

    def test_grid_minimum_in_doubt_band_is_inconclusive(self):
        # 1/(s + 1) - 1.1e-6: Re = 1/(1 + w^2) - 1.1e-6, about -1e-7 at the grid's 1e3 rad/s
        v = positive_real_check(RationalTF([1.0 - 1.1e-6, -1.1e-6], [1.0, 1.0]))
        assert v.verdict == "inconclusive"
        assert v.condition == "grid real-part minimum within doubt band"
        assert v.witness == pytest.approx(1e3)
        assert v.min_real == pytest.approx(1.0 / (1.0 + 1e6) - 1.1e-6, rel=1e-6)

    def test_grid_violation_outranks_marginal_pole(self):
        # 1/(s - 1e-7): the pole is in the doubt band, but Re = -1e-7 / (w^2 + 1e-14)
        # reaches -1e-3 at the grid's 1e-2 rad/s
        v = positive_real_check(RationalTF([1.0], [-1e-7, 1.0]))
        assert v.verdict == "not-passive"
        assert v.condition == "negative real part on frequency grid"
        assert v.witness == pytest.approx(1e-2)
        assert v.min_real == pytest.approx(-1e-3, rel=1e-6)

    def test_rejects_non_finite_coefficients(self):
        # a NaN coefficient must not reach the verdict
        from flexjoint import ValidationError
        with pytest.raises(ValidationError, match="finite"):
            RationalTF([1.0, 1.0], [1.0, np.nan, 1.0, 1.0])

    def test_shaped_loop_with_outer_is_passive(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        tf = ss_to_tf(assemble_closed_loop(paper_plant, sp, OUTER))
        v = positive_real_check(tf)
        assert v.verdict == "passive"
        assert v.min_real >= -1e-9

    @pytest.mark.parametrize("grid", [[-1.0, np.nan, 1.0], [-1.0, 1.0], [1.0, np.inf]])
    def test_rejects_invalid_grid(self, grid):
        from flexjoint import ValidationError
        with pytest.raises(ValidationError):
            positive_real_check(RationalTF([1.0], [1.0, 1.0]), grid)

    def test_rejects_empty_grid(self):
        from flexjoint import ValidationError
        with pytest.raises(ValidationError, match="frequency grid is empty"):
            positive_real_check(RationalTF([1.0], [1.0, 1.0]), [])

    def test_gain_outside_interval_fails_upstream(self, paper_plant):
        from flexjoint import ShapingInfeasibleError
        with pytest.raises(ShapingInfeasibleError):
            recover_shaped(paper_plant, -1.5, 0.0)


class TestEnvironmentImpedance:
    def test_pure_spring(self):
        env = EnvironmentImpedance(1, 0.0, 0.0, 1.0)
        tf = env_impedance_tf(env)
        assert tf.num.tolist() == [1.0]
        assert tf.den.tolist() == [0.0, 1.0]

    def test_full_hand_value(self):
        tf = env_impedance_tf(EnvironmentImpedance(1, 1.0, 2.0, 3.0))
        assert tf.num.tolist() == [3.0, 2.0, 1.0]
        assert tf.den.tolist() == [0.0, 1.0]

    def test_real_part_is_damping(self):
        env = EnvironmentImpedance(1, 1.3, 2.4, 3.5)
        w = np.logspace(-1, 2, 20)
        re = np.real(evaluate(env_impedance_tf(env), 1j * w))
        assert np.max(np.abs(re - 2.4)) <= 1e-9

    def test_rejects_indefinite(self):
        from flexjoint import ValidationError
        with pytest.raises(ValidationError):
            EnvironmentImpedance(1, -1.0, 0.0, 0.0)


def test_random_spd_helper_shapes():
    rng = np.random.default_rng(0)
    a = rand_spd(rng, 3)
    assert np.allclose(a, a.T)
    assert np.min(np.linalg.eigvalsh(a)) > 0



@pytest.mark.parametrize("call, error, fragment", [
    (lambda: StateSpace([[1.0, 2.0]], [[1.0]], [[1.0]], [[0.0]]), ValidationError,
     "A must be square"),
    (lambda: StateSpace(np.eye(2), [[1.0]], [[1.0, 1.0]], [[0.0]]), ValidationError,
     "B rows 1 != states 2"),
    (lambda: StateSpace(np.eye(2), np.ones((2, 1)), [[1.0]], [[0.0]]), ValidationError,
     "C cols 1 != states 2"),
    (lambda: StateSpace(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 2))),
     ValidationError, "Dmat shape (2, 2) != (1, 1)"),
    (lambda: RationalTF([1.0], [0.0, 0.0]), ValidationError, "denominator is identically zero"),
    (lambda: assemble_plant_loop(two_link_arm([0.5, 0.4], [4.0, 2.5], [1.0, 1.0], 1e4, 0.0),
                                 ImpedanceGains(0.0, 0.0, 1.0)),
     ValidationError, "requires a constant-mass plant"),
    # K_F = J / M makes J - K_F M singular
    (lambda: assemble_plant_loop(LinearRobotParams(1, 3.0, 3.0, 1e6, 1.0),
                                 ImpedanceGains(1.0, 0.0, 2.0)), AssemblyError,
     "singular inertia block"),
    (lambda: target_admittance(TargetImpedance(2, 1.0, 1.0, 1.0)), NotApplicableError,
     "defined for n=1, got n=2"),
    (lambda: env_impedance_tf(EnvironmentImpedance(2, 1.0, 1.0, 1.0)), NotApplicableError,
     "defined for n=1, got n=2"),
    (lambda: ss_to_tf(LAG, input_index=1), ValidationError, "index out of range"),
    (lambda: ss_to_tf(LAG, output_index=-1), ValidationError, "index out of range"),
    (lambda: evaluate(StateSpace(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2))), 1j),
     ValidationError, "single input/output pair"),
    (lambda: evaluate([1.0], 1j), ValidationError, "unsupported system type list"),
], ids=["A_not_square", "B_rows", "C_cols", "Dmat_shape", "zero_denominator",
        "plant_loop_varying_mass", "plant_loop_singular_motor_block", "target_n2", "env_n2",
        "input_index", "output_index", "evaluate_mimo", "evaluate_type"])
def test_invalid_arguments_are_rejected(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()

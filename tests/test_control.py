import dataclasses
import re

import numpy as np
import pytest

import flexjoint.control
import flexjoint.sim
from conftest import rand_admissible_shaping, rand_plant, rand_spd
from flexjoint import (
    ConfigurationError,
    ImpedanceGains,
    LinearRobotParams,
    NotApplicableError,
    OpenLoopState,
    OuterLoop,
    ParametrizationSingularError,
    Scenario,
    ShapedParams,
    ShapingInfeasibleError,
    ValidationError,
    colgate_interval,
    equivalence_residual,
    linear_control,
    nonlinear_control,
    outer_loop_torque,
    recover_shaped,
    simulate_plant_with_controller,
    synthesize_gains,
)
from flexjoint.control import (
    ShapedLoop,
    check_gain_consistency,
    gain_consistency_error,
    gains_at,
)
from flexjoint.model import as_model


class TestSynthesizeGains:
    def test_identity_shaping_leaves_plant_unchanged(self, paper_plant):
        g, sp = synthesize_gains(paper_plant, paper_plant.J, paper_plant.K)
        assert np.allclose(g.K_F, 0.0, atol=1e-12)
        assert np.allclose(g.K_G, 0.0, atol=1e-12)
        assert np.allclose(g.K_H, np.eye(1))
        assert np.allclose(sp.D_e, paper_plant.D)

    def test_hand_values(self, paper_plant):
        g, sp = synthesize_gains(paper_plant, 1.5, 5e5)
        assert g.K_F[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert g.K_G[0, 0] == pytest.approx(-0.5, rel=1e-12)
        assert g.K_H[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert sp.D_e[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_stiffening_reaches_feedback_boundary(self, paper_plant):
        # doubling the stiffness needs K_F = -1, the passivity boundary of
        # the pure force-feedback design
        g, _ = synthesize_gains(paper_plant, 3.0, 2e6)
        assert g.K_F[0, 0] == pytest.approx(-1.0, rel=1e-12)
        assert g.K_G[0, 0] == pytest.approx(g.K_H[0, 0], rel=1e-12)

    def test_gain_identity_holds(self, paper_plant):
        rng = np.random.default_rng(11)
        for _ in range(50):
            J_e, K_e = rand_admissible_shaping(rng, paper_plant)
            g, _ = synthesize_gains(paper_plant, J_e, K_e)
            assert gain_consistency_error(g) <= 1e-12 * max(np.max(np.abs(g.K_H)), 1.0)

    def test_asymmetric_damping_rejected(self):
        # generic SPD K_e makes D K^-1 K_e asymmetric when D and K do not commute
        rng = np.random.default_rng(5)
        plant = LinearRobotParams(n=2, M=np.eye(2), J=np.eye(2),
                                  K=np.diag([1.0, 4.0]),
                                  D=np.array([[1.0, 0.5], [0.5, 1.0]]))
        K_e = rand_spd(rng, 2, 0.5, 3.0)
        with pytest.raises(ShapingInfeasibleError):
            synthesize_gains(plant, np.eye(2), K_e)

    @pytest.mark.parametrize("J_e, K_e, name", [(-1.0, 1e6, "J_e"), (1.0, -1e6, "K_e"),
                                                 (1.0, 0.0, "K_e")])
    def test_infeasible_names_offender(self, paper_plant, J_e, K_e, name):
        with pytest.raises(ShapingInfeasibleError) as exc:
            synthesize_gains(paper_plant, J_e, K_e)
        assert exc.value.matrix_name == name

    def test_lossless_flag_for_undamped_plant(self, demo_arm):
        _, sp = synthesize_gains(demo_arm, np.eye(2), 2.0 * demo_arm.K)
        assert sp.lossless

    def test_damped_shaping_not_lossless(self, paper_plant):
        _, sp = synthesize_gains(paper_plant, 1.5, 5e5)
        assert not sp.lossless


class TestRecoverShaped:
    def test_zero_gains_recover_plant(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.0, 0.0)
        assert np.allclose(sp.J_e, paper_plant.J)
        assert np.allclose(sp.K_e, paper_plant.K)
        assert np.allclose(sp.D_e, paper_plant.D)

    def test_hand_values(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 0.0)
        assert sp.J_e[0, 0] == pytest.approx(0.3 / 1.9, rel=1e-10)
        assert sp.K_e[0, 0] == pytest.approx(1e5, rel=1e-10)
        assert sp.D_e[0, 0] == pytest.approx(0.1, rel=1e-10)

    def test_roundtrip_both_directions(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3):
            plant = rand_plant(rng, n)
            for _ in range(30):
                J_e, K_e = rand_admissible_shaping(rng, plant)
                g, sp = synthesize_gains(plant, J_e, K_e)
                back = recover_shaped(plant, g.K_F, g.K_G)
                for a, b in ((back.J_e, sp.J_e), (back.K_e, sp.K_e), (back.D_e, sp.D_e)):
                    assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(b)), 1e-30)
                g2, _ = synthesize_gains(plant, back.J_e, back.K_e)
                for a, b in ((g2.K_F, g.K_F), (g2.K_G, g.K_G), (g2.K_H, g.K_H)):
                    assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(b)), 1.0)

    def test_singular_parametrization(self, paper_plant):
        with pytest.raises(ParametrizationSingularError):
            recover_shaped(paper_plant, 0.5, -1.5)

    def test_infeasible_names_offender(self, paper_plant):
        with pytest.raises(ShapingInfeasibleError) as exc:
            recover_shaped(paper_plant, 1.5, 0.0)   # J - K_F M < 0
        assert exc.value.matrix_name in ("J_e", "K_e", "D_e")


class TestShapedParams:
    def test_indefinite_damping_names_offender(self):
        with pytest.raises(ShapingInfeasibleError) as exc:
            ShapedParams(1.0, 1.0, -1.0)
        assert exc.value.matrix_name == "D_e"
        assert "positive semidefinite" in str(exc.value)

    def test_asymmetric_damping_names_offender(self):
        with pytest.raises(ShapingInfeasibleError) as exc:
            ShapedParams(np.eye(2), np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert exc.value.matrix_name == "D_e"
        assert "not symmetric" in str(exc.value)


class TestChecksRunOnce:
    """Each admissibility check runs once, in ShapedParams, as one stacked
    pass over J_e, K_e and D_e, and nothing downstream of a built
    ShapedParams re-synthesizes the gains."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"checked": [], "synth": 0}
        stacked = flexjoint.control.require_admissible

        def checked(entries):
            counts["checked"].append(tuple((name, spd) for _, name, spd, _ in entries))
            return stacked(entries)

        def synth(*args, **kwargs):
            counts["synth"] += 1
            return synthesize_gains(*args, **kwargs)

        monkeypatch.setattr(flexjoint.control, "require_admissible", checked)
        monkeypatch.setattr(flexjoint.control, "synthesize_gains", synth)
        monkeypatch.setattr(flexjoint.sim, "synthesize_gains", synth, raising=False)
        return counts

    SHAPING = [(("J_e", True), ("K_e", True), ("D_e", False))]

    def test_synthesize_gains(self, paper_plant, counts):
        synthesize_gains(paper_plant, 1.5, 5e5)
        assert counts["checked"] == self.SHAPING

    def test_recover_shaped(self, paper_plant, counts):
        recover_shaped(paper_plant, 0.9, 4.0)
        assert counts["checked"] == self.SHAPING

    def test_built_shaping_is_used_as_given(self, demo_arm, counts):
        _, sp = synthesize_gains(demo_arm, 0.5 * np.eye(2), 2.0 * demo_arm.K)
        counts.update(checked=[], synth=0)
        gains_at(demo_arm, sp, np.array([0.3, 1.1]))
        simulate_plant_with_controller(Scenario(plant=demo_arm, controller=sp,
                                                T=1e-3, dt=5e-5))
        assert counts == {"checked": [], "synth": 0}

    def test_one_factorization_per_shaping(self, monkeypatch):
        calls = {"cholesky": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _fn=getattr(np.linalg, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        ShapedParams(np.diag([2.0, 1.0]), np.array([[3.0, 1.0], [1.0, 2.0]]), np.eye(2))
        assert calls == {"cholesky": 1, "eigvalsh": 1}


GOOD = np.array([[2.0, 0.5], [0.5, 1.0]])
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])
ASYMMETRIC = np.array([[1.0, 0.5], [0.0, 1.0]])
NEAR_SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])


@pytest.mark.parametrize("J_e, K_e, D_e, name, message", [
    (INDEFINITE, GOOD, GOOD, "J_e",
     "J_e is not positive definite (nonpositive pivot, threshold 2.000e-12)"),
    (GOOD, ASYMMETRIC, GOOD, "K_e", "K_e is not symmetric (asymmetry 5.000e-01)"),
    (GOOD, NEAR_SINGULAR, GOOD, "K_e",
     "K_e is not positive definite (pivot 9.992e-15 below threshold 1.000e-12 at index 1)"),
    (GOOD, GOOD, -np.eye(2), "D_e",
     "D_e is not positive semidefinite (min eigenvalue -1.000e+00)"),
    (GOOD, GOOD, ASYMMETRIC, "D_e", "D_e is not symmetric (asymmetry 5.000e-01)"),
    (INDEFINITE, ASYMMETRIC, -np.eye(2), "J_e",
     "J_e is not positive definite (nonpositive pivot, threshold 2.000e-12)"),
    (GOOD, NEAR_SINGULAR, ASYMMETRIC, "K_e",
     "K_e is not positive definite (pivot 9.992e-15 below threshold 1.000e-12 at index 1)"),
], ids=["J_e", "K_e_asymmetric", "K_e_pivot", "D_e", "D_e_asymmetric", "all_three",
        "K_e_and_D_e"])
def test_stacked_check_reports_the_first_failure(J_e, K_e, D_e, name, message):
    # the messages of the checks made one matrix at a time, in the order J_e, K_e, D_e
    with pytest.raises(ShapingInfeasibleError) as exc:
        ShapedParams(J_e, K_e, D_e)
    assert (exc.value.matrix_name, str(exc.value)) == (name, message)


def test_inverse_of_J_e_is_cached_and_read_only():
    sp = ShapedParams(np.array([[3.0, 1.0], [1.0, 2.0]]), np.eye(2), np.eye(2))
    assert sp.Jeinv is sp.Jeinv
    assert np.array_equal(sp.Jeinv, np.linalg.inv(sp.J_e))
    with pytest.raises(ValueError):
        sp.Jeinv[0, 0] = 1.0


class TestColgateInterval:
    def test_paper_interval(self, paper_plant):
        assert colgate_interval(paper_plant) == (-1.0, 1.0)

    def test_multi_joint_not_applicable(self, demo_arm):
        with pytest.raises(NotApplicableError):
            colgate_interval(demo_arm)

    def test_positive_inside(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.99, 0.0)
        assert sp.J_e[0, 0] > 0 and sp.K_e[0, 0] > 0 and sp.D_e[0, 0] > 0

    def test_boundary_collapses(self, paper_plant):
        with pytest.raises(ShapingInfeasibleError):
            recover_shaped(paper_plant, 1.0, 0.0)

    def test_outside_infeasible(self, paper_plant):
        for kf in (-1.01, 1.01):
            with pytest.raises(ShapingInfeasibleError):
                recover_shaped(paper_plant, kf, 0.0)


class TestControlLaws:
    def test_passthrough(self, paper_plant):
        g = ImpedanceGains(0.0, 0.0, 1.0)
        x = OpenLoopState(0.1, 0.4, 0.3, -0.2)
        tau = linear_control(x, 0.7, 2.5, g, paper_plant)
        # tau_a does not vanish, but with K_G = 0 only the feedthroughs remain
        assert tau[0] == pytest.approx(0.0 * 0.7 + 1.0 * 2.5, rel=1e-12)

    def test_zero_deflection_drops_joint_torque(self, paper_plant):
        g = ImpedanceGains(0.3, 7.0, 8.3)
        x = OpenLoopState(0.2, 0.2, 0.3 * 3.0, 0.3 * 3.0)   # equal velocities
        tau = linear_control(x, 2.0, -1.0, g, paper_plant)
        assert tau[0] == pytest.approx(0.3 * 2.0 + 8.3 * (-1.0), rel=1e-12)

    def test_hand_value(self, paper_plant):
        g = ImpedanceGains(0.9, 4.0, 5.9)
        x = OpenLoopState(0.0, 1e-3, 0.0, 0.0)
        tau = linear_control(x, 1.0, 0.0, g, paper_plant)
        assert tau[0] == pytest.approx(-3999.1, rel=1e-12)

    def test_nonlinear_equals_linear_at_rest(self, demo_arm):
        rng = np.random.default_rng(8)
        g = ImpedanceGains(0.2 * np.eye(2), 1.5 * np.eye(2), 2.7 * np.eye(2))
        for _ in range(10):
            x = OpenLoopState(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                              np.zeros(2), np.zeros(2))
            ta = nonlinear_control(x, np.ones(2), np.zeros(2), g, demo_arm)
            tb = linear_control(x, np.ones(2), np.zeros(2), g, demo_arm)
            assert np.allclose(ta, tb, rtol=0, atol=1e-12)

    def test_nonlinear_equals_linear_constant_mass(self, paper_plant):
        rng = np.random.default_rng(9)
        g = ImpedanceGains(0.5, 2.0, 3.5)
        for _ in range(20):
            x = OpenLoopState.unpack(rng.normal(0, 1, 4), 1)
            te, tu = rng.normal(size=2)
            ta = nonlinear_control(x, te, tu, g, paper_plant)
            tb = linear_control(x, te, tu, g, paper_plant)
            scale = max(abs(tb[0]), 1.0)
            assert abs(ta[0] - tb[0]) <= 1e-12 * scale

    def test_pure_coriolis_compensation_against_oracle(self, demo_arm):
        # K_F = I, K_G = K_H = 0 isolates tau = -C(q, qdot) qdot; the oracle
        # is the Lagrangian force Mdot qdot - 1/2 grad(qdot' M qdot) built
        # from finite differences of the mass matrix alone
        rng = np.random.default_rng(10)
        g = ImpedanceGains(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        h = 1e-6
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.normal(0, 2, 2)
            x = OpenLoopState.from_velocities(q, q, qd, np.zeros(2), demo_arm)
            tau = nonlinear_control(x, np.zeros(2), np.zeros(2), g, demo_arm)
            Mdot = (demo_arm.mass_of(q + h * qd) - demo_arm.mass_of(q - h * qd)) / (2 * h)
            quad = np.empty(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                quad[i] = (qd @ demo_arm.mass_of(q + e) @ qd
                           - qd @ demo_arm.mass_of(q - e) @ qd) / (2 * h)
            oracle = -(Mdot @ qd - 0.5 * quad)
            assert np.max(np.abs(tau - oracle)) <= 1e-6 * max(np.max(np.abs(oracle)), 1.0)


class TestOuterLoop:
    def test_at_setpoint_rest_is_zero(self, paper_plant):
        o = OuterLoop(100.0, 10.0, 0.25)
        assert outer_loop_torque(0.25, 0.0, o, paper_plant)[0] == 0.0

    def test_hand_value(self, paper_plant):
        o = OuterLoop(100.0, 10.0, 0.0)
        tau = outer_loop_torque(0.1, -0.2, o, paper_plant)
        assert tau[0] == pytest.approx(-8.0, rel=1e-12)

    def test_gravity_compensation_at_setpoint(self, gravity_arm):
        o = OuterLoop(100.0 * np.eye(2), 10.0 * np.eye(2),
                      np.array([0.3, -0.1]), gravity_comp=True)
        tau = outer_loop_torque(o.phi_d, np.zeros(2), o, gravity_arm)
        assert np.allclose(tau, gravity_arm.gravity_grad_of(o.phi_d))


class TestGainsAt:
    def test_constant_mass_is_configuration_independent(self, paper_plant):
        g, sp = synthesize_gains(paper_plant, 1.5, 5e5)
        g2 = gains_at(paper_plant, sp, np.array([0.7]))
        assert np.allclose(g.K_F, g2.K_F)

    def test_varying_mass_tracks_configuration(self, demo_arm):
        _, sp = synthesize_gains(demo_arm, np.eye(2), 2.0 * demo_arm.K)
        ga = gains_at(demo_arm, sp, np.zeros(2))
        gb = gains_at(demo_arm, sp, np.array([0.0, 2.0]))
        assert not np.allclose(ga.K_F, gb.K_F)
        assert np.allclose(ga.K_H, gb.K_H)   # K_H does not involve the mass

    def test_matches_synthesis_at_the_configuration(self, demo_arm):
        _, sp = synthesize_gains(demo_arm, 0.5 * np.eye(2), 2.0 * demo_arm.K)
        q = np.array([0.4, -1.2])
        g = synthesize_gains(demo_arm, sp.J_e, sp.K_e, q_ref=q)[0]
        ga = gains_at(demo_arm, sp, q)
        for a, b in ((ga.K_F, g.K_F), (ga.K_G, g.K_G), (ga.K_H, g.K_H)):
            assert np.array_equal(a, b)

    def test_joint_count_mismatch_is_a_validation_error(self, paper_plant, demo_arm):
        _, sp = synthesize_gains(demo_arm, np.eye(2), 2.0 * demo_arm.K)
        with pytest.raises(ValidationError):
            gains_at(paper_plant, sp, np.zeros(1))


@pytest.mark.parametrize("gains, fragment", [
    (ImpedanceGains(0.9, 4.0, 6.0), "gain triple violates K_H - K_G - K_F = I by 1.000e-01"),
    # K_H - K_G - K_F = I holds, but J K^-1 K_e J_e^-1 = 1 for this shaping
    (ImpedanceGains(0.9, 4.0, 5.9),
     "K_H inconsistent with shaped parameters (deviation 4.900e+00)"),
], ids=["identity", "input_gain"])
def test_gain_consistency_names_the_violation(paper_plant, gains, fragment):
    _, sp = synthesize_gains(paper_plant, 1.5, 5e5)
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        check_gain_consistency(gains, sp, paper_plant)


class TestShapedLoop:
    """``ShapedLoop`` owns S, S^-1, K_H and the configuration gains of one
    plant and shaping: each the direct form, computed once and read-only."""

    @pytest.fixture(params=["random_3_joint", "two_link"])
    def loop(self, request, demo_arm):
        if request.param == "two_link":
            plant = demo_arm
            sp = synthesize_gains(plant, np.diag([0.5, 0.8]), 2.0 * plant.K)[1]
        else:
            rng = np.random.default_rng(43)
            plant = rand_plant(rng, 3)
            sp = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))[1]
        return ShapedLoop(as_model(plant), sp)

    def test_matrices_are_the_direct_forms(self, loop):
        model, sp = loop.model, loop.shaped
        K_H = model.J @ np.linalg.inv(model.K) @ sp.K_e @ np.linalg.inv(sp.J_e)
        for name, want in (("S", np.linalg.solve(sp.K_e, model.K)),
                           ("Sinv", np.linalg.solve(model.K, sp.K_e)), ("K_H", K_H)):
            got = getattr(loop, name)
            assert np.array_equal(got, want), name
            assert getattr(loop, name) is got, name
            with pytest.raises(ValueError):
                got[0, 0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(loop, name, want)

    def test_gains_are_the_direct_form_for_one_mass_or_a_stack(self, loop):
        model, sp = loop.model, loop.shaped
        qs = np.array([[0.0] * model.n, [0.3] * model.n, [-1.1] * model.n])
        Minv = model.inverse_mass(qs)
        K_F = -(model.J @ np.linalg.inv(model.K)) @ (sp.K_e - model.K) @ Minv[1]
        assert np.array_equal(loop.gains(Minv[1])[0], K_F)
        assert np.array_equal(loop.gains(Minv[1])[1], loop.K_H - K_F - np.eye(model.n))
        stacked = loop.gains(Minv)
        for k in range(len(qs)):
            for got, want in zip(stacked, loop.gains(Minv[k])):
                assert np.array_equal(got[k], want)

    def test_given_gains_keep_their_own_K_H(self, paper_plant):
        g, sp = synthesize_gains(paper_plant, 1.5, 5e5)
        assert ShapedLoop(as_model(paper_plant), sp, g).K_H is g.K_H


# (entry, call on (plant, gains, shaping)); the simulator recovers its shaping
# from (K_F, K_G), so only the identity check can fail there
OWNER_ENTRIES = [
    ("check_gain_consistency", lambda m, g, sp: check_gain_consistency(g, sp, m)),
    ("equivalence_residual",
     lambda m, g, sp: equivalence_residual(OpenLoopState.zero(m.n), 0.0, 0.0, g, sp, m)),
    ("simulate", lambda m, g, sp: simulate_plant_with_controller(
        Scenario(plant=m, controller=g, T=1e-3, dt=2e-5))),
]


@pytest.mark.parametrize("entry, call", OWNER_ENTRIES, ids=[e for e, _ in OWNER_ENTRIES])
@pytest.mark.parametrize("gains, error, message", [
    (ImpedanceGains(np.eye(2), np.eye(2), 3.0 * np.eye(2)), ValidationError,
     "ImpedanceGains is 2-joint, plant is 1-joint"),
    (ImpedanceGains(0.9, 4.0, 6.0), ConfigurationError,
     "gain triple violates K_H - K_G - K_F = I by 1.000e-01"),
    (ImpedanceGains(0.9, 4.0, 5.9), ConfigurationError,
     "K_H inconsistent with shaped parameters (deviation 4.900e+00)"),
], ids=["joints", "identity", "input_gain"])
def test_owner_errors_keep_type_and_message(paper_plant, entry, call, gains, error, message):
    _, sp = synthesize_gains(paper_plant, 1.5, 5e5)
    if entry == "simulate" and message.startswith("K_H"):
        # recover_shaped(0.9, 4.0) realizes K_H = 5.9: these gains are consistent
        simulate_plant_with_controller(Scenario(plant=paper_plant, controller=gains,
                                                T=1e-3, dt=2e-5))
        return
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(paper_plant, gains, sp)


def test_gain_controller_applies_its_own_input_gain(demo_arm):
    """K_H moved inside the 1e-8 tolerance passes the check, and the
    simulated torque uses it, with K_G = K_H - K_F - I, not the K_H that the
    recovered shaping implies."""
    x0 = OpenLoopState.from_velocities([0.2, -0.3], [0.25, -0.2], [0.4, 0.1], np.zeros(2),
                                       demo_arm)
    _, sp = synthesize_gains(demo_arm, 0.5 * np.eye(2), 2.0 * demo_arm.K)
    g = gains_at(demo_arm, sp, x0.q)
    moved = ImpedanceGains(g.K_F, g.K_G, g.K_H + 5e-9 * float(np.abs(g.K_H).max()) * np.eye(2))
    sc = Scenario(plant=demo_arm, controller=moved, outer=OuterLoop(50.0 * np.eye(2), 5.0 * np.eye(2)), x0=x0,
                  T=1e-3, dt=5e-5)
    r = simulate_plant_with_controller(sc)
    shaped = recover_shaped(demo_arm, moved.K_F, moved.K_G, q_ref=x0.q)
    own, implied = [], []
    for k in range(len(r.t)):
        x = OpenLoopState(r.q[k], r.theta[k], r.p[k], r.s[k])
        at = gains_at(demo_arm, shaped, r.q[k])
        for out, K_H in ((own, moved.K_H), (implied, at.K_H)):
            gains = ImpedanceGains(at.K_F, K_H - at.K_F - np.eye(2), K_H)
            out.append(np.abs(r.tau[k] - nonlinear_control(x, r.tau_e[k], r.tau_u[k], gains,
                                                           demo_arm)).max())
    assert max(implied) > 0.0
    assert max(own) <= 1e-3 * max(implied)

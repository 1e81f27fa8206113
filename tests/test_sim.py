import math
import re
from dataclasses import replace

import numpy as np
import pytest

import flexjoint.sim
from conftest import rand_admissible_shaping, rand_plant, rand_spd
from flexjoint import (
    ClosedLoopState,
    DegenerateModelError,
    DivergenceError,
    EnvironmentImpedance,
    ImpedanceGains,
    InputSignal,
    NonlinearRobotModel,
    OpenLoopState,
    OuterLoop,
    Scenario,
    ValidationError,
    assemble_closed_loop,
    assemble_coupled,
    assemble_plant_loop,
    gains_at,
    integrate,
    l2_distance,
    linear_control,
    nonlinear_control,
    passivity_audit,
    recover_shaped,
    simulate_closed_form,
    simulate_coupled,
    simulate_plant_with_controller,
    simulate_target_dynamics,
    stability_dt_cap,
    from_closed,
    synthesize_gains,
    to_closed,
)
from flexjoint.cli import ONEDOF_STUDY
from flexjoint.config import (
    build_controller_spec,
    build_input,
    build_outer_loop,
    build_plant,
    parse_config,
)
from flexjoint.linalg import cholesky_lower, pencil_max_frequency


class TestIntegrate:
    def test_zero_field_is_constant(self):
        t, X = integrate(lambda t, x: np.zeros_like(x), np.array([1.0, -2.0]), 0.1, 1.0)
        assert np.all(X == np.array([1.0, -2.0]))
        assert t[-1] == pytest.approx(1.0)

    def test_exponential_decay(self):
        t, X = integrate(lambda t, x: -x, np.array([1.0]), 1e-3, 1.0)
        assert X[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_step_halving_is_fourth_order(self):
        A = np.array([[0.0, 1.0], [-4.0, -0.4]])
        w, V = np.linalg.eig(A)
        x0 = np.array([1.0, 0.0])
        exact = (V @ np.diag(np.exp(w * 2.0)) @ np.linalg.inv(V) @ x0.astype(complex)).real

        def endpoint_error(dt):
            _, X = integrate(lambda t, x: A @ x, x0, dt, 2.0)
            return np.linalg.norm(X[-1] - exact)

        ratio = endpoint_error(0.02) / endpoint_error(0.01)
        assert 12.0 <= ratio <= 20.0

    def test_divergence_reports_time(self):
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            integrate(lambda t, x: 1e3 * x, np.array([1.0]), 0.1, 100.0)
        assert exc.value.time is not None

    def test_rejects_bad_steps(self):
        with pytest.raises(ValidationError):
            integrate(lambda t, x: x, np.array([1.0]), -0.1, 1.0)
        with pytest.raises(ValidationError):
            integrate(lambda t, x: x, np.array([1.0]), 0.5, 0.1)


class TestScenarioValidation:
    def test_dt_cap_matches_paper_plant(self, paper_plant):
        # open-loop elastic mode at sqrt(K (1/M + 1/J)) = 816.5 rad/s
        sc = Scenario(plant=paper_plant, T=1.0)
        assert stability_dt_cap(sc) == pytest.approx(1.0 / (20.0 * 816.4966), rel=1e-6)

    def test_dt_cap_ignores_the_scenario_step(self, paper_plant):
        # the cap of a scenario whose dt exceeds it, or whose T is shorter
        # than one default step, is the cap of the same scenario without them
        _, sp = synthesize_gains(paper_plant, 1.5, 5e5)
        for controller in (None, sp, ImpedanceGains(0.9, 4.0, 5.9)):
            cap = stability_dt_cap(Scenario(plant=paper_plant, controller=controller))
            assert stability_dt_cap(Scenario(plant=paper_plant, controller=controller,
                                             dt=1e-3)) == cap
            assert stability_dt_cap(Scenario(plant=paper_plant, controller=controller,
                                             T=1e-7)) == cap

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_cap_matches_single_pencils(self, n):
        # the cap from one stacked pencil solve has the bits of 1/(20 max)
        # over the pencils solved one at a time
        rng = np.random.default_rng(60 + n)
        plant = rand_plant(rng, n)
        J_e, K_e = rand_admissible_shaping(rng, plant)
        _, sp = synthesize_gains(plant, J_e, K_e)
        Z = np.zeros((n, n))
        outer = OuterLoop(np.diag(rng.uniform(10.0, 200.0, n)), np.diag(rng.uniform(1.0, 20.0, n)))
        env = EnvironmentImpedance(n, rand_spd(rng, n, 0.1, 1.0), rand_spd(rng, n, 0.1, 1.0),
                                   1e2 * rand_spd(rng, n, 0.5, 2.0))
        w_open = pencil_max_frequency(np.block([[plant.K, -plant.K], [-plant.K, plant.K]]),
                                      np.block([[plant.M, Z], [Z, plant.J]]))
        assert stability_dt_cap(Scenario(plant=plant)) == 1.0 / (20.0 * w_open)
        for o in (None, outer):
            for e in (None, env):
                K_q = sp.K_e + (e.K_h if e is not None else Z)
                K_p = sp.K_e + (o.K_phi if o is not None else Z)
                M_link = plant.M + (e.M_h if e is not None else Z)
                w_shaped = pencil_max_frequency(
                    np.block([[K_q, -sp.K_e], [-sp.K_e, K_p]]),
                    np.block([[M_link, Z], [Z, sp.J_e]]))
                cap = stability_dt_cap(Scenario(plant=plant, controller=sp, outer=o,
                                                environment=e))
                assert cap == 1.0 / (20.0 * max(w_open, w_shaped))

    def test_stacked_cholesky_names_the_failing_member(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 1e-14])])
        with pytest.raises(ValueError, match="member 1: nonpositive pivot"):
            cholesky_lower(stack)
        with pytest.raises(ValueError, match="member 1: pivot 1.000e-14 below threshold"):
            cholesky_lower(stack[[0, 2]])
        np.testing.assert_array_equal(cholesky_lower(stack[[0, 0]]), np.stack([np.eye(2)] * 2))

    @pytest.mark.parametrize("entry", ["cap", "simulate"])
    def test_mass_the_cap_cannot_factor_is_degenerate(self, entry):
        # M(q) = cos(q2) I has a pivot of 6.1e-17 at q2 = pi/2
        model = NonlinearRobotModel(
            n=2, mass_of=lambda q: np.cos(q[..., 1])[..., None, None] * np.eye(2),
            dmass_of=lambda q: np.zeros(np.shape(q)[:-1] + (2, 2, 2)),
            potential_of=lambda q: np.zeros(np.shape(q)[:-1]),
            gravity_grad_of=lambda q: np.zeros(np.shape(q)),
            J=np.eye(2), K=100.0 * np.eye(2), D=np.eye(2))
        x0 = OpenLoopState.unpack(np.r_[0.0, 0.5 * np.pi, np.zeros(6)], 2)
        sc = Scenario(plant=model, x0=x0, T=0.01)
        run = stability_dt_cap if entry == "cap" else simulate_plant_with_controller
        with pytest.raises(DegenerateModelError,
                           match=r"mass matrix blkdiag\(M\(q0\), J\) is not positive definite "
                                 r"at q0=\[0.0, 1.5707963267948966\]"):
            run(sc)

    def test_too_coarse_dt_rejected(self, paper_plant):
        sc = Scenario(plant=paper_plant, T=1.0, dt=1e-3)
        with pytest.raises(ValidationError):
            simulate_plant_with_controller(sc)

    def test_gains_controller_recovers_shaped_once(self, paper_plant, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return recover_shaped(*args, **kwargs)

        monkeypatch.setattr(flexjoint.sim, "recover_shaped", counting)
        sc = Scenario(plant=paper_plant, controller=ImpedanceGains(0.9, 4.0, 5.9),
                      T=0.001, dt=2e-5)
        simulate_plant_with_controller(sc)
        assert len(calls) == 1

    def test_controller_joint_count_mismatch_rejected(self, paper_plant, demo_arm):
        _, sp = synthesize_gains(demo_arm, np.eye(2), 2.0 * demo_arm.K)
        with pytest.raises(ValidationError):
            simulate_plant_with_controller(Scenario(plant=paper_plant, controller=sp,
                                                    T=0.01, dt=1e-5))

    def test_outer_loop_requires_controller(self, paper_plant):
        sc = Scenario(plant=paper_plant, outer=OuterLoop(100.0, 10.0), T=0.01, dt=1e-5)
        with pytest.raises(ValidationError):
            simulate_plant_with_controller(sc)

    def test_non_finite_values_rejected(self, paper_plant):
        for bad in (float("nan"), float("inf"), float("-inf")):
            calls = [
                lambda: Scenario(plant=paper_plant, T=bad),
                lambda: simulate_plant_with_controller(Scenario(plant=paper_plant, T=0.01, dt=bad)),
                lambda: integrate(lambda t, x: x, np.array([1.0]), bad, 1.0),
                lambda: integrate(lambda t, x: x, np.array([1.0]), 0.1, bad),
                lambda: InputSignal.step(bad),
                lambda: InputSignal.step(1.0, start=bad),
                lambda: InputSignal.sinusoid(bad, 1.0),
                lambda: InputSignal.sinusoid(1.0, bad),
            ]
            for call in calls:
                with pytest.raises(ValidationError):
                    call()

    @pytest.mark.parametrize("call, fragment", [
        (lambda m: InputSignal("ramp"), "unknown input kind 'ramp'"),
        (lambda m: InputSignal.step(1.0, -1), "input joint -1 must be nonnegative"),
        (lambda m: simulate_plant_with_controller(Scenario(plant=m, controller="gains")),
         "unsupported controller type str"),
        (lambda m: simulate_closed_form(Scenario(plant=m)), "requires a controller"),
        (lambda m: simulate_plant_with_controller(Scenario(plant=m, T=1e-6, dt=1e-5)),
         "horizon T must be at least one step"),
        (lambda m: simulate_plant_with_controller(
            Scenario(plant=m, environment=EnvironmentImpedance(1, 1.0, 1.0, 1.0))),
         "environment coupling is handled by simulate_coupled"),
        (lambda m: simulate_closed_form(
            Scenario(plant=m, controller=synthesize_gains(m, 1.5, 5e5)[1],
                     environment=EnvironmentImpedance(1, 1.0, 1.0, 1.0))),
         "environment coupling is handled by simulate_coupled"),
    ], ids=["input_kind", "input_joint", "controller_type", "missing_controller", "T_below_dt",
            "environment_plant_chart", "environment_closed_form"])
    def test_invalid_scenarios_are_rejected(self, paper_plant, call, fragment):
        with pytest.raises(ValidationError, match=re.escape(fragment)):
            call(paper_plant)

    @pytest.mark.parametrize("joint", [1.5, 1.0, "1", True, None])
    def test_input_joint_must_be_an_integer_index(self, joint):
        with pytest.raises(ValidationError, match=f"input joint {joint!r} must be an integer"):
            InputSignal.step(1.0, joint)
        assert InputSignal.step(1.0, np.int64(1)).torque(0.0, 2).tolist() == [0.0, 1.0]


class TestPlantSimulation:
    def test_equilibrium_stays_stationary(self, paper_plant):
        g, _ = synthesize_gains(paper_plant, 1.5, 5e5)
        sc = Scenario(plant=paper_plant, controller=g, T=0.01, dt=1e-5)
        r = simulate_plant_with_controller(sc)
        assert np.all(r.q == 0.0) and np.all(r.theta == 0.0)
        assert np.all(r.H == 0.0)

    def test_gain_parametrization_accepted(self, paper_plant):
        gains = ImpedanceGains(0.9, 4.0, 5.9)
        sc = Scenario(plant=paper_plant, controller=gains,
                      input=InputSignal.step(1.0), T=0.02, dt=2e-5)
        r = simulate_plant_with_controller(sc)
        assert np.max(np.abs(r.q)) > 0.0

    def test_determinism(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        sc = Scenario(plant=paper_plant, controller=sp,
                      input=InputSignal.step(1.0), T=0.05, dt=2e-5)
        a = simulate_plant_with_controller(sc)
        b = simulate_plant_with_controller(sc)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.H, b.H)


class TestControlLaw:
    def test_recorded_torque_is_the_reference_law(self, paper_plant, gravity_arm):
        # outer loop with a set-point, gravity and a moving start exercise
        # every term of the law
        x0 = OpenLoopState.from_velocities([0.3, -0.4], [0.3, -0.4], [0.5, -0.5],
                                           np.zeros(2), gravity_arm)
        arm_sp = synthesize_gains(gravity_arm, 0.5 * np.eye(2), 2.0 * gravity_arm.K)[1]
        arm_outer = OuterLoop(50.0 * np.eye(2), 5.0 * np.eye(2), phi_d=[0.1, -0.1],
                              gravity_comp=True)
        paper_sp = recover_shaped(paper_plant, 0.9, 4.0)
        cases = [
            (Scenario(plant=gravity_arm, controller=arm_sp, outer=arm_outer, x0=x0,
                      input=InputSignal.step(1.0, joint=1), T=0.005, dt=5e-5),
             arm_sp, nonlinear_control),
            (Scenario(plant=paper_plant, controller=paper_sp,
                      outer=OuterLoop(100.0, 10.0, phi_d=0.02),
                      x0=OpenLoopState(1e-3, 0.0, 0.1, 0.0),
                      input=InputSignal.sinusoid(5.0, 30.0), T=0.005, dt=2e-5),
             paper_sp, linear_control),
        ]
        for sc, sp, law in cases:
            r = simulate_plant_with_controller(sc)
            for k in range(len(r.t)):
                x = OpenLoopState(r.q[k], r.theta[k], r.p[k], r.s[k])
                ref = law(x, r.tau_e[k], r.tau_u[k], gains_at(sc.plant, sp, r.q[k]), sc.plant)
                np.testing.assert_allclose(r.tau[k], ref, rtol=1e-9,
                                           atol=1e-9 * np.max(np.abs(r.tau)))


class TestClosedFormEquivalence:
    def test_identity_shaping_reproduces_plant(self, paper_plant):
        sp = synthesize_gains(paper_plant, paper_plant.J, paper_plant.K)[1]
        sc = Scenario(plant=paper_plant, controller=sp,
                      input=InputSignal.step(2.0), T=0.1, dt=2e-5)
        a = simulate_plant_with_controller(sc)
        b = simulate_closed_form(sc)
        scale = max(np.max(np.abs(a.q)), 1e-12)
        assert np.max(np.abs(a.q - b.q)) <= 1e-9 * scale
        assert np.max(np.abs(a.theta - b.phi)) <= 1e-9 * scale

    def test_linear_trajectories_match(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        sc = Scenario(plant=paper_plant, controller=sp, outer=OuterLoop(100.0, 10.0),
                      input=InputSignal.step(1.0), T=0.2, dt=2e-5)
        a = simulate_plant_with_controller(sc)
        b = simulate_closed_form(sc)
        for name in ("q", "p", "phi", "z", "theta", "s", "tau", "tau_u", "H", "supply"):
            sa, sb = getattr(a, name), getattr(b, name)
            scale = max(np.max(np.abs(sa)), 1e-12)
            assert np.max(np.abs(sa - sb)) <= 1e-6 * scale

    def test_varying_mass_trajectories_match(self, demo_arm):
        sp = synthesize_gains(demo_arm, 0.5 * np.eye(2), 2.0 * demo_arm.K)[1]
        x0 = OpenLoopState.from_velocities(np.zeros(2), np.zeros(2),
                                           [2 ** -0.5, -(2 ** -0.5)], np.zeros(2),
                                           demo_arm)
        sc = Scenario(plant=demo_arm, controller=sp, x0=x0,
                      input=InputSignal.step(1.0, joint=1), T=0.25, dt=5e-5)
        a = simulate_plant_with_controller(sc)
        b = simulate_closed_form(sc)
        for name in ("q", "p", "phi", "z", "theta", "s", "tau", "tau_u", "H", "supply"):
            sa, sb = getattr(a, name), getattr(b, name)
            scale = max(np.max(np.abs(sa)), 1e-12)
            assert np.max(np.abs(sa - sb)) <= 1e-6 * scale

    def test_reconstructed_plant_states_are_from_closed(self, gravity_arm):
        sp = synthesize_gains(gravity_arm, 0.5 * np.eye(2), 2.0 * gravity_arm.K)[1]
        x0 = OpenLoopState.from_velocities([0.3, -0.4], [0.3005, -0.4005], [0.5, -0.5],
                                           [0.4, -0.6], gravity_arm)
        outer = OuterLoop(50.0 * np.eye(2), 5.0 * np.eye(2), phi_d=[0.1, 0.2], gravity_comp=True)
        sc = Scenario(plant=gravity_arm, controller=sp, outer=outer, x0=x0,
                      input=InputSignal.sinusoid(2.0, 10.0, joint=1), T=0.02, dt=5e-5)
        r = simulate_closed_form(sc)
        plant_states = [from_closed(ClosedLoopState(r.q[k], r.phi[k], r.p[k], r.z[k]),
                                    sp, gravity_arm) for k in range(r.t.shape[0])]
        for name in ("theta", "s"):
            ref = np.array([getattr(x, name) for x in plant_states])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(getattr(r, name) - ref)) <= 1e-12 * scale

    def test_lossless_conserves_energy_short(self, paper_plant):
        from flexjoint import LinearRobotParams
        plant = LinearRobotParams(n=1, M=3.0, J=3.0, K=1e6, D=0.0)
        sp = synthesize_gains(plant, 1.5, 5e5)[1]
        x0 = OpenLoopState(0.0, 1e-3, 0.0, 0.0)
        sc = Scenario(plant=plant, controller=sp, x0=x0, T=0.5, dt=2e-5)
        r = simulate_closed_form(sc)
        assert np.max(np.abs(r.H - r.H[0])) <= 1e-7 * r.H[0]


class TestLinearPropagator:
    """The constant-mass step matrix against the generic RK4 field path."""

    SERIES = ("q", "p", "theta", "s", "phi", "z", "tau", "tau_e", "tau_u", "H", "supply")

    def _assert_paths_agree(self, sc, simulate):
        a = simulate(sc)
        b = simulate(replace(sc, plant=NonlinearRobotModel.from_linear(sc.plant)))
        np.testing.assert_array_equal(a.t, b.t)
        for name in self.SERIES:
            sa, sb = getattr(a, name), getattr(b, name)
            if sa is None:
                assert sb is None, name
                continue
            scale = max(np.max(np.abs(sa)), 1e-300)
            assert np.max(np.abs(sa - sb)) <= 1e-9 * scale, name

    def test_paper_plant(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        dt = 2e-5
        x0 = OpenLoopState(1e-3, 0.0, 0.1, 0.0)
        cases = [
            Scenario(plant=paper_plant, input=InputSignal.step(1.0, start=50 * dt),
                     T=0.02, dt=dt),
            Scenario(plant=paper_plant, controller=sp, input=InputSignal.step(1.0, start=50 * dt),
                     T=0.02, dt=dt),
            Scenario(plant=paper_plant, controller=sp, x0=x0,
                     input=InputSignal.sinusoid(5.0, 30.0), T=0.02, dt=dt),
            Scenario(plant=paper_plant, controller=sp, outer=OuterLoop(100.0, 10.0, phi_d=0.02),
                     x0=x0, input=InputSignal.step(2.0, start=50 * dt), T=0.02, dt=dt),
        ]
        for sc in cases:
            simulators = [simulate_plant_with_controller]
            if sc.controller is not None:
                simulators.append(simulate_closed_form)
            for simulate in simulators:
                self._assert_paths_agree(sc, simulate)

    def test_random_two_joint_plant(self):
        rng = np.random.default_rng(11)
        plant = rand_plant(rng, 2)
        sp = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))[1]
        outer = OuterLoop(100.0 * np.eye(2), 10.0 * np.eye(2), phi_d=[0.01, -0.02])
        x0 = OpenLoopState([1e-3, -2e-3], [0.0, 1e-3], [0.1, 0.0], [0.0, -0.1])
        sc = Scenario(plant=plant, controller=sp, outer=outer, x0=x0,
                      input=InputSignal.sinusoid(3.0, 50.0, joint=1), T=0.02)
        for simulate in (simulate_plant_with_controller, simulate_closed_form):
            self._assert_paths_agree(sc, simulate)

    def test_divergence_reports_first_step(self, paper_plant):
        # over one step the elastic force carries the state past the float range
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        dt = 2e-5
        x0 = OpenLoopState(1e307, -1e307, 0.0, 0.0)
        env = EnvironmentImpedance(1, 1.0, 2.0, 50.0)
        cases = [
            (simulate_plant_with_controller, Scenario(plant=paper_plant, x0=x0, T=0.01, dt=dt)),
            (simulate_plant_with_controller,
             Scenario(plant=paper_plant, controller=sp, x0=x0, T=0.01, dt=dt)),
            (simulate_closed_form, Scenario(plant=paper_plant, controller=sp, x0=x0,
                                            T=0.01, dt=dt)),
            (simulate_coupled, Scenario(plant=paper_plant, controller=sp, environment=env,
                                        x0=x0, T=0.01, dt=dt)),
        ]
        for simulate, sc in cases:
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
                simulate(sc)
            assert exc.value.time == dt
            assert "t=2e-05 s" in str(exc.value)


class TestBlockedScan:
    """``sim._scan``, x_{k+1} = P x_k + V[k] by recursive doubling, against
    the per-step recurrence."""

    @staticmethod
    def _per_step(P, x0, V, dtype=float):
        P, V = P.astype(dtype), V.astype(dtype)
        X = np.empty((V.shape[0] + 1, V.shape[1]), dtype)
        X[0] = x0
        for k in range(V.shape[0]):
            X[k + 1] = V[k] + P @ X[k]
        return X

    @staticmethod
    def _rel_err(X, ref):
        # per state column, against the column's largest entry
        return np.max(np.abs(X - ref), axis=0) / np.max(np.abs(ref), axis=0)

    # N + 1 rows take ceil(log2(N + 1)) rounds of strides 1, 2, 4, ...: N = 7,
    # 8, 9 and 1023, 1024, 1025 sit at the edges of a stride; 48, 49, 50 at
    # those of a ceil(sqrt(N))-step block; m = 16 is the shaped loop at n = 4
    @pytest.mark.parametrize("nsteps", [1, 2, 3, 4, 5, 7, 8, 9, 48, 49, 50, 1023, 1024, 1025,
                                        1500])
    def test_matches_per_step_recurrence(self, nsteps):
        rng = np.random.default_rng(nsteps)
        for m in (4, 16):
            P = 0.999 * np.linalg.qr(rng.normal(size=(m, m)))[0]
            x0, V = rng.normal(size=m), rng.normal(size=(nsteps, m))
            X = flexjoint.sim._scan(P, x0, V)
            assert X.shape == (nsteps + 1, m)
            assert np.array_equal(X[0], x0)
            assert np.all(self._rel_err(X, self._per_step(P, x0, V)) <= 1e-12)

    @staticmethod
    def _scan_call(simulate, sc, monkeypatch):
        """The arguments of the one ``_scan`` call of ``simulate(sc)``."""
        calls = []
        scan = flexjoint.sim._scan
        monkeypatch.setattr(flexjoint.sim, "_scan", lambda *args: calls.append(args) or scan(*args))
        simulate(sc)
        (args,) = calls
        return args

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="np.longdouble is float64 on this platform")
    @pytest.mark.parametrize("simulate", [simulate_plant_with_controller, simulate_closed_form])
    @pytest.mark.parametrize("outer", [True, False])
    def test_bundled_study_against_extended_precision(self, simulate, outer, monkeypatch):
        # the bundled 1-DOF study's 2 s horizon: 100k steps; without the outer
        # loop the step drives a rigid-body mode
        cfg = parse_config(ONEDOF_STUDY)
        plant = build_plant(cfg)
        spec = build_controller_spec(cfg)
        sc = Scenario(plant=plant, controller=recover_shaped(plant, spec.K_F, spec.K_G),
                      outer=build_outer_loop(cfg, 1) if outer else None, input=build_input(cfg),
                      T=cfg.sim["T"], dt=cfg.sim["dt"])
        P, x0, V = self._scan_call(simulate, sc, monkeypatch)
        assert V.shape[0] == 100_000
        ref = self._per_step(P, x0, V, np.longdouble)
        assert np.all(self._rel_err(flexjoint.sim._scan(P, x0, V), ref) <= 1e-13)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="np.longdouble is float64 on this platform")
    @pytest.mark.parametrize("outer", [True, False])
    @pytest.mark.parametrize("n", [2, 4])
    def test_random_shaped_loops_against_extended_precision(self, n, outer, monkeypatch):
        # real step matrices of 4n = 8 and 16 states, 5,000 steps at half the cap
        rng = np.random.default_rng(n)
        plant = rand_plant(rng, n)
        sp = synthesize_gains(plant, *rand_admissible_shaping(rng, plant))[1]
        loop = OuterLoop(rand_spd(rng, n, 50.0, 200.0), rand_spd(rng, n, 5.0, 20.0)) \
            if outer else None
        sc = Scenario(plant=plant, controller=sp, outer=loop, input=InputSignal.step(1.0))
        dt = 0.5 * stability_dt_cap(sc)
        sc = replace(sc, T=5000 * dt, dt=dt)
        P, x0, V = self._scan_call(simulate_closed_form, sc, monkeypatch)
        assert V.shape == (5000, 4 * n)
        ref = self._per_step(P, x0, V, np.longdouble)
        assert np.all(self._rel_err(flexjoint.sim._scan(P, x0, V), ref) <= 1e-12)

    # the per-step recurrence flagged the step after the onset in every case;
    # B = ceil(sqrt(N)) is a block edge of a blocked scan, 511 to 1024 the
    # edges of the doubling strides 512 and 1024
    @pytest.mark.parametrize("amplitude", [1e308, 1e300])
    @pytest.mark.parametrize("onset", [1, "B-1", "B", "B+1", 500, 511, 512, 513, 1023, 1024])
    def test_divergence_time_at_block_edges(self, paper_plant, amplitude, onset):
        dt, nsteps = 2e-5, 1500
        B = math.isqrt(nsteps - 1) + 1
        onset = {"B-1": B - 1, "B": B, "B+1": B + 1}.get(onset, onset)
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        signal = InputSignal.step(amplitude, start=onset * dt)
        cases = [(simulate_plant_with_controller, None), (simulate_plant_with_controller, sp),
                 (simulate_closed_form, sp)]
        for simulate, controller in cases:
            sc = Scenario(plant=paper_plant, controller=controller, input=signal,
                          T=nsteps * dt, dt=dt)
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
                simulate(sc)
            assert exc.value.time == (dt * np.arange(nsteps + 1))[onset + 1]


class TestCoupled:
    def _setup(self, paper_plant, env):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        x0 = OpenLoopState(5e-4, 0.0, 0.0, 0.0)
        return Scenario(plant=paper_plant, controller=sp, outer=OuterLoop(100.0, 10.0),
                        environment=env, x0=x0, T=0.2, dt=2e-5)

    def test_zero_environment_matches_closed_form(self, paper_plant):
        env0 = EnvironmentImpedance(1, 0.0, 0.0, 0.0)
        sc = self._setup(paper_plant, env0)
        a = simulate_coupled(sc)
        b = simulate_closed_form(replace(sc, environment=None))
        scale = max(np.max(np.abs(b.q)), 1e-12)
        assert np.max(np.abs(a.q - b.q)) <= 1e-9 * scale

    def test_total_energy_non_increasing(self, paper_plant):
        env = EnvironmentImpedance(1, 1.0, 2.0, 50.0)
        r = simulate_coupled(self._setup(paper_plant, env))
        assert np.all(np.diff(r.H) <= 1e-9 * max(r.H[0], 1e-12))
        assert passivity_audit(r) <= 1e-9 * max(r.H[0], 1e-12)

    def test_matches_matrix_exponential_oracle(self, paper_plant):
        # every chart against the flow exp(A t) of its lti assembly: the
        # plant chart from the gains, the shaped and coupled charts from
        # the shaped parameters; outer loop, moving start, no input
        rng = np.random.default_rng(5)
        plant2 = rand_plant(rng, 2)
        cases = [
            (paper_plant, recover_shaped(paper_plant, 0.9, 4.0), OuterLoop(100.0, 10.0),
             EnvironmentImpedance(1, 1.0, 2.0, 50.0), OpenLoopState(5e-4, 0.0, 0.01, 0.0)),
            (plant2, synthesize_gains(plant2, *rand_admissible_shaping(rng, plant2))[1],
             OuterLoop(rand_spd(rng, 2, 50.0, 200.0), rand_spd(rng, 2, 5.0, 20.0)),
             EnvironmentImpedance(2, rand_spd(rng, 2), rand_spd(rng, 2), 50.0 * rand_spd(rng, 2)),
             OpenLoopState([5e-4, -3e-4], [1e-4, 0.0], [0.01, 0.0], [0.0, -0.01])),
        ]
        for plant, sp, outer, env, x0 in cases:
            sc = Scenario(plant=plant, controller=sp, outer=outer, x0=x0, T=0.05)
            gains = synthesize_gains(plant, sp.J_e, sp.K_e)[0]
            y0 = to_closed(x0, sp, plant).pack()
            merged = y0.copy()          # link momentum (M + M_h) q' in the coupled chart
            merged[2 * plant.n:3 * plant.n] += env.M_h @ np.linalg.solve(plant.M, x0.p)
            robot_p = plant.M @ np.linalg.inv(plant.M + env.M_h)
            runs = [
                (simulate_plant_with_controller(sc), assemble_plant_loop(plant, gains, outer),
                 x0.pack(), ("q", "theta", "p", "s"), np.eye(plant.n)),
                (simulate_closed_form(sc), assemble_closed_loop(plant, sp, outer),
                 y0, ("q", "phi", "p", "z"), np.eye(plant.n)),
                (simulate_coupled(replace(sc, environment=env)),
                 assemble_coupled(plant, sp, env, outer), merged, ("q", "phi", "p", "z"), robot_p),
            ]
            for r, ss, start, names, p_map in runs:
                w, V = np.linalg.eig(ss.A)
                oracle = ((np.exp(np.outer(r.t, w)) * np.linalg.solve(V, start)) @ V.T).real
                blocks = np.split(oracle, 4, axis=1)
                blocks[2] = blocks[2] @ p_map.T
                for name, ref in zip(names, blocks):
                    scale = max(np.max(np.abs(ref)), 1e-12)
                    assert np.max(np.abs(getattr(r, name) - ref)) <= 1e-6 * scale, (r.chart, name)

    def test_requires_environment(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        sc = Scenario(plant=paper_plant, controller=sp, T=0.01, dt=1e-5)
        with pytest.raises(ValidationError):
            simulate_coupled(sc)

    def test_varying_mass_rejected(self, demo_arm):
        sp = synthesize_gains(demo_arm, np.eye(2), 2.0 * demo_arm.K)[1]
        env = EnvironmentImpedance(2, 0.0, 0.0, 0.0)
        sc = Scenario(plant=demo_arm, controller=sp, environment=env, T=0.01, dt=1e-5)
        with pytest.raises(ValidationError):
            simulate_coupled(sc)


class TestPassivityAudit:
    def test_lossless_zero_input(self, paper_plant):
        from flexjoint import LinearRobotParams
        plant = LinearRobotParams(n=1, M=3.0, J=3.0, K=1e6, D=0.0)
        sp = synthesize_gains(plant, 1.5, 5e5)[1]
        sc = Scenario(plant=plant, controller=sp,
                      x0=OpenLoopState(0.0, 1e-3, 0.0, 0.0), T=0.5, dt=2e-5)
        r = simulate_closed_form(sc)
        assert abs(passivity_audit(r)) <= 1e-8 * r.H[0]

    def test_damped_run_dissipates(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        sc = Scenario(plant=paper_plant, controller=sp,
                      x0=OpenLoopState(1e-3, 0.0, 0.0, 0.0), T=0.3, dt=2e-5)
        r = simulate_closed_form(sc)
        # dissipation makes the residual strictly negative by the end
        assert r.passivity_residual[-1] < 0.0
        assert passivity_audit(r) <= 1e-10 * r.H[0]


class TestTargetDynamics:
    def test_settles_to_stiffness_equilibrium(self, demo_arm):
        signal = InputSignal.step(10.0, joint=1)
        res = simulate_target_dynamics(demo_arm, 1000.0, 135.0, np.zeros(2),
                                       signal, 1.5, 1e-4)
        assert res.q[-1, 1] == pytest.approx(0.01, rel=1e-3)
        assert res.q[-1, 0] == pytest.approx(0.0, abs=1e-6)

    def test_input_joint_out_of_range_rejected(self, demo_arm):
        signal = InputSignal.step(10.0, joint=2)
        with pytest.raises(ValidationError, match="input joint 2 out of range for n=2"):
            simulate_target_dynamics(demo_arm, 1000.0 * np.eye(2), 135.0 * np.eye(2), 0.0,
                                     signal, 0.01, 5e-5)
        with pytest.raises(ValidationError, match="input joint 2 out of range for n=2"):
            simulate_plant_with_controller(Scenario(plant=demo_arm, input=signal,
                                                    T=0.01, dt=5e-5))

    def test_matches_velocity_form_reference(self, gravity_arm):
        # M(q) q'' = tau_e - (C(q, q') + D_theta) q' - K_theta (q - q_d) - grad V(q)
        K_theta, D_theta, q_d = 1000.0 * np.eye(2), 135.0 * np.eye(2), np.array([0.1, -0.2])
        signal = InputSignal.step(10.0, joint=1, start=0.1)
        q0, qdot0 = np.array([0.3, -0.4]), np.array([0.5, -0.5])

        def field(t, x):
            q, qdot = x[:2], x[2:]
            rhs = (signal.torque(t, 2) - (gravity_arm.coriolis_of(q, qdot) + D_theta) @ qdot
                   - K_theta @ (q - q_d) - gravity_arm.gravity_grad_of(q))
            return np.concatenate([qdot, np.linalg.solve(gravity_arm.mass_of(q), rhs)])

        _, X = integrate(field, np.concatenate([q0, qdot0]), 1e-4, 0.5)
        res = simulate_target_dynamics(gravity_arm, K_theta, D_theta, q_d, signal, 0.5, 1e-4,
                                       q0=q0, qdot0=qdot0)
        for got, want in ((res.q, X[:, :2]), (res.qdot, X[:, 2:])):
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    def test_l2_distance_of_identical_signals_is_zero(self):
        t = np.linspace(0, 1, 100)
        a = np.sin(t)
        assert l2_distance(t, a, a) == 0.0
        assert l2_distance(t, a, a + 1.0) == pytest.approx(1.0, rel=1e-6)


class TestSupplyAccounting:
    def test_driven_run_supply_matches_energy_gain(self, paper_plant):
        # with damping removed the residual is pure integration error
        from flexjoint import LinearRobotParams
        plant = LinearRobotParams(n=1, M=3.0, J=3.0, K=1e6, D=0.0)
        sp = synthesize_gains(plant, 1.5, 5e5)[1]
        # an undamped outer loop supplies phi' . tau_u, the work of its spring
        for outer in (None, OuterLoop(100.0, 0.0, phi_d=0.01)):
            sc = Scenario(plant=plant, controller=sp, outer=outer,
                          input=InputSignal.sinusoid(5.0, 30.0), T=0.5, dt=2e-5)
            for simulate in (simulate_plant_with_controller, simulate_closed_form):
                r = simulate(sc)
                scale = max(np.max(r.H), 1e-12)
                assert np.max(np.abs(r.passivity_residual)) <= 1e-7 * scale


class TestOuterLoopSetpoint:
    def test_regulates_to_setpoint(self, paper_plant):
        sp = recover_shaped(paper_plant, 0.9, 4.0)
        outer = OuterLoop(100.0, 10.0, phi_d=0.02)
        sc = Scenario(plant=paper_plant, controller=sp, outer=outer, T=2.0, dt=3e-5)
        r = simulate_closed_form(sc)
        # equilibrium: phi = phi_d and the joint relaxes onto it; the
        # dominant mode has a ~0.6 s time constant, so allow the tail
        assert r.phi[-1, 0] == pytest.approx(0.02, rel=2e-2)
        assert r.q[-1, 0] == pytest.approx(0.02, rel=2e-2)
        assert abs(r.phi[-1, 0] - 0.02) < abs(r.phi[len(r.t) // 4, 0] - 0.02) + 1e-6

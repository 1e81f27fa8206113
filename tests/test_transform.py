import dataclasses

import numpy as np
import pytest

from conftest import rand_admissible_shaping, rand_plant
from flexjoint import (
    ClosedLoopState,
    ConfigurationError,
    ImpedanceGains,
    OpenLoopState,
    ShapedParams,
    closed_loop_energy,
    closed_loop_field,
    equivalence_residual,
    from_closed,
    gains_at,
    nonlinear_control,
    open_loop_energy,
    open_loop_field,
    synthesize_gains,
    to_closed,
)
from flexjoint.control import ShapedLoop
from flexjoint.model import as_model
from flexjoint.transform import RESIDUAL_FLOOR, _chart_map


class TestCoordinateChange:
    def test_matched_stiffness_collapses(self, paper_plant):
        sp = ShapedParams(1.5, 1e6, 1.0)   # K_e = K
        x = OpenLoopState(0.1, 0.25, 0.6, -0.9)
        y = to_closed(x, sp, paper_plant)
        assert y.phi[0] == pytest.approx(x.theta[0], rel=1e-12)
        assert y.z[0] == pytest.approx(1.5 / 3.0 * x.s[0], rel=1e-12)

    def test_zero_maps_to_zero(self, paper_plant):
        sp = ShapedParams(0.5, 2e5, 0.2)
        y = to_closed(OpenLoopState.zero(1), sp, paper_plant)
        assert np.all(y.pack() == 0.0)

    def test_motor_position_hand_value(self, paper_plant):
        sp = ShapedParams(0.157895, 1e5, 0.1)
        y = to_closed(OpenLoopState(0.01, 0.02, 0.0, 0.0), sp, paper_plant)
        assert y.phi[0] == pytest.approx(0.11, rel=1e-12)

    def test_roundtrip_linear(self, paper_plant):
        rng = np.random.default_rng(21)
        for _ in range(50):
            J_e, K_e = rand_admissible_shaping(rng, paper_plant)
            sp = synthesize_gains(paper_plant, J_e, K_e)[1]
            x = OpenLoopState.unpack(rng.normal(0, 1, 4), 1)
            back = from_closed(to_closed(x, sp, paper_plant), sp, paper_plant)
            assert np.max(np.abs(back.pack() - x.pack())) \
                <= 1e-12 * max(np.max(np.abs(x.pack())), 1.0)

    def test_roundtrip_varying_mass(self, demo_arm):
        rng = np.random.default_rng(22)
        for _ in range(50):
            sp = synthesize_gains(demo_arm, np.diag(rng.uniform(0.3, 2, 2)),
                                  2.0 * demo_arm.K)[1]
            x = OpenLoopState.unpack(rng.normal(0, 1, 8), 2)
            back = from_closed(to_closed(x, sp, demo_arm), sp, demo_arm)
            assert np.max(np.abs(back.pack() - x.pack())) \
                <= 1e-12 * max(np.max(np.abs(x.pack())), 1.0)

    def test_inverse_collapse(self, paper_plant):
        sp = ShapedParams(1.5, 1e6, 1.0)
        y = ClosedLoopState(0.1, 0.3, -0.2, 0.5)
        x = from_closed(y, sp, paper_plant)
        assert x.theta[0] == pytest.approx(y.phi[0], rel=1e-12)
        assert x.s[0] == pytest.approx(3.0 / 1.5 * y.z[0], rel=1e-12)


class TestClosedLoopEnergy:
    def test_equilibrium_zero(self, paper_plant):
        sp = ShapedParams(1.5, 5e5, 0.5)
        y = ClosedLoopState(0.2, 0.2, 0.0, 0.0)
        assert closed_loop_energy(y, sp, paper_plant) == pytest.approx(0.0, abs=1e-12)

    def test_elastic_hand_value(self, paper_plant):
        sp = ShapedParams(1.5, 5e5, 0.5)
        y = ClosedLoopState(0.0, 1e-3, 0.0, 0.0)
        assert closed_loop_energy(y, sp, paper_plant) == pytest.approx(0.25, rel=1e-12)

    def test_identity_shaping_matches_open_energy(self, paper_plant):
        sp = ShapedParams(3.0, 1e6, 1.0)   # (J, K, D)
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = OpenLoopState.unpack(rng.normal(0, 1, 4), 1)
            y = to_closed(x, sp, paper_plant)
            assert closed_loop_energy(y, sp, paper_plant) \
                == pytest.approx(open_loop_energy(x, paper_plant), rel=1e-10)


class TestClosedLoopField:
    def test_equilibrium_stationary(self, paper_plant):
        sp = ShapedParams(1.5, 5e5, 0.5)
        d = closed_loop_field(ClosedLoopState(0.1, 0.1, 0.0, 0.0), 0.0, 0.0,
                              sp, paper_plant)
        assert np.all(d.pack() == 0.0)

    def _energy_rate(self, y, dy, sp, model):
        # analytic gradient of the shaped energy dotted with the field
        Mq = model.mass_of(y.q)
        qdot = np.linalg.solve(Mq, y.p)
        phidot = np.linalg.solve(sp.J_e, y.z)
        defl = y.phi - y.q
        grad_q = (model.kinetic_grad(y.q, y.p) - sp.K_e @ defl
                  + model.gravity_grad_of(y.q))
        grad_phi = sp.K_e @ defl
        return float(grad_q @ dy.q + grad_phi @ dy.phi + qdot @ dy.p + phidot @ dy.z)

    @pytest.mark.parametrize("plant_name", ["paper_plant", "demo_arm"])
    def test_supply_rate_identity(self, plant_name, request):
        # dH/dt equals supplied power minus the damping quadratic
        plant = request.getfixturevalue(plant_name)
        model = as_model(plant)
        n = model.n
        rng = np.random.default_rng(24)
        for _ in range(25):
            J_e, K_e = (np.diag(rng.uniform(0.3, 2, n)),
                        float(rng.uniform(0.5, 3.0)) * model.K)
            sp = synthesize_gains(model, J_e, K_e)[1]
            y = ClosedLoopState.unpack(rng.normal(0, 1, 4 * n), n)
            tau_e = rng.normal(0, 2, n)
            tau_u = rng.normal(0, 2, n)
            dy = closed_loop_field(y, tau_e, tau_u, sp, model)
            qdot = np.linalg.solve(model.mass_of(y.q), y.p)
            phidot = np.linalg.solve(sp.J_e, y.z)
            supply = float(qdot @ tau_e + phidot @ tau_u)
            rel_vel = phidot - qdot
            dissipation = float(rel_vel @ sp.D_e @ rel_vel)
            lhs = self._energy_rate(y, dy, sp, model)
            scale = max(abs(supply), abs(lhs), 1.0)
            assert lhs == pytest.approx(supply - dissipation, abs=1e-9 * scale)
            assert dissipation >= -1e-12 * scale

    def test_lossless_rate_equals_supply(self, demo_arm):
        # D = 0 plant: shaped damping vanishes and the balance is exact
        rng = np.random.default_rng(25)
        sp = synthesize_gains(demo_arm, np.eye(2), 2.0 * demo_arm.K)[1]
        assert sp.lossless
        for _ in range(10):
            y = ClosedLoopState.unpack(rng.normal(0, 1, 8), 2)
            tau_e = rng.normal(0, 2, 2)
            tau_u = rng.normal(0, 2, 2)
            dy = closed_loop_field(y, tau_e, tau_u, sp, demo_arm)
            qdot = np.linalg.solve(demo_arm.mass_of(y.q), y.p)
            phidot = np.linalg.solve(sp.J_e, y.z)
            supply = float(qdot @ tau_e + phidot @ tau_u)
            lhs = self._energy_rate(y, dy, sp, demo_arm)
            assert lhs == pytest.approx(supply, abs=1e-9 * max(abs(supply), 1.0))


def composed_residual(x, tau_e, tau_u, g, sp, m):
    """The certificate composed from the public per-state functions, each
    chart evaluated through its own validated call."""
    model = as_model(m)
    gains = g if model.constant_mass else gains_at(model, sp, x.q)
    tau = nonlinear_control(x, tau_e, tau_u, gains, model)
    xv = x.pack()
    dx = open_loop_field(x, tau_e, tau, model).pack()
    h = 1e-3 * max(float(np.linalg.norm(xv)), 1.0) / max(float(np.linalg.norm(dx)), 1e-9)
    y = _chart_map(xv + np.array([[-2.0], [-1.0], [1.0], [2.0]]) * h * dx, ShapedLoop(model, sp))
    dy_pushed = (y[0] - 8.0 * y[1] + 8.0 * y[2] - y[3]) / (12.0 * h)
    dy_shaped = closed_loop_field(to_closed(x, sp, model), tau_e, tau_u, sp, model).pack()
    scale = max(float(np.max(np.abs(dy_shaped))), RESIDUAL_FLOOR)
    return float(np.max(np.abs(dy_pushed - dy_shaped))) / scale


class TestEquivalence:
    def test_matches_composed_public_functions(self, demo_arm):
        rng = np.random.default_rng(29)
        cases = []
        for n in (1, 2, 3):
            for _ in range(10):
                plant = rand_plant(rng, n)
                cases.append((plant, *synthesize_gains(plant, *rand_admissible_shaping(rng, plant))))
        for _ in range(10):
            J_e = np.diag(rng.uniform(0.3, 2.0, 2))
            cases.append((demo_arm, *synthesize_gains(demo_arm, J_e, 2.0 * demo_arm.K)))
        for plant, g, sp in cases:
            n = plant.n
            x = OpenLoopState.unpack(rng.normal(0, 0.7, 4 * n), n)
            tau_e, tau_u = rng.normal(0, 2, n), rng.normal(0, 2, n)
            assert abs(equivalence_residual(x, tau_e, tau_u, g, sp, plant)
                       - composed_residual(x, tau_e, tau_u, g, sp, plant)) <= 1e-14

    def test_linear_random(self):
        rng = np.random.default_rng(26)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(1, 4))
            plant = rand_plant(rng, n)
            J_e, K_e = rand_admissible_shaping(rng, plant)
            g, sp = synthesize_gains(plant, J_e, K_e)
            x = OpenLoopState.unpack(rng.normal(0, 0.7, 4 * n), n)
            res = equivalence_residual(x, rng.normal(0, 2, n), rng.normal(0, 2, n),
                                       g, sp, plant)
            worst = max(worst, res)
        assert worst <= 1e-9

    def test_varying_mass_random(self, demo_arm):
        rng = np.random.default_rng(27)
        worst = 0.0
        for _ in range(200):
            J_e = np.diag(rng.uniform(0.3, 2.0, 2))
            K_e = float(rng.uniform(0.5, 3.0)) * demo_arm.K
            g, sp = synthesize_gains(demo_arm, J_e, K_e)
            x = OpenLoopState.unpack(rng.normal(0, 0.6, 8), 2)
            res = equivalence_residual(x, rng.normal(0, 2, 2), rng.normal(0, 2, 2),
                                       g, sp, demo_arm)
            worst = max(worst, res)
        assert worst <= 1e-8

    def test_inconsistent_mass_gradient_detected(self, demo_arm):
        # the stencil differentiates mass_of itself, so a dmass_of that
        # disagrees with it breaks the certificate instead of cancelling
        # against the Coriolis compensation of the control law
        bad = dataclasses.replace(demo_arm, dmass_of=lambda q: 1.3 * demo_arm.dmass_of(q))
        g, sp = synthesize_gains(bad, 0.5 * np.eye(2), 2.0 * bad.K)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            x = OpenLoopState.unpack(rng.normal(0, 0.6, 8), 2)
            worst = max(worst, equivalence_residual(x, rng.normal(0, 2, 2),
                                                    rng.normal(0, 2, 2), g, sp, bad))
        assert worst > 1e-4

    def test_identity_shaping_is_exact(self, paper_plant):
        g, sp = synthesize_gains(paper_plant, paper_plant.J, paper_plant.K)
        rng = np.random.default_rng(28)
        for _ in range(10):
            x = OpenLoopState.unpack(rng.normal(0, 1, 4), 1)
            res = equivalence_residual(x, rng.normal(), rng.normal(), g, sp, paper_plant)
            assert res <= 1e-12

    def test_inconsistent_gains_rejected(self, paper_plant):
        g, sp = synthesize_gains(paper_plant, 1.5, 5e5)
        corrupted = ImpedanceGains(g.K_F, g.K_G, g.K_H + 0.1)
        with pytest.raises(ConfigurationError):
            equivalence_residual(OpenLoopState.zero(1), 0.0, 0.0, corrupted, sp,
                                 paper_plant)

import pickle
import re
import types

import numpy as np
import pytest

from conftest import rand_plant
from flexjoint import (
    ClosedLoopState,
    DegenerateModelError,
    LinearRobotParams,
    NonlinearRobotModel,
    NotApplicableError,
    OpenLoopState,
    ShapedParams,
    ValidationError,
    as_model,
    closed_loop_energy,
    from_closed,
    integrate,
    open_loop_energy,
    open_loop_field,
    to_closed,
    two_link_arm,
)
from flexjoint.linalg import as_matrix, cholesky_lower


def directional_mass_derivative(model, q, qdot):
    """Finite-difference oracle for Mdot = dM/dt along direction qdot.

    Five-point stencil with a direction-scaled step keeps the truncation
    error below 1e-10 even for fast joint rates.
    """
    h = 1e-4 / max(float(np.linalg.norm(qdot)), 1.0)
    g = lambda a: model.mass_of(q + a * qdot)
    return (g(-2 * h) - 8.0 * g(-h) + 8.0 * g(h) - g(2 * h)) / (12.0 * h)


class TestOpenLoopEnergy:
    def test_equilibrium_is_zero(self, paper_plant):
        x = OpenLoopState(0.3, 0.3, 0.0, 0.0)
        assert open_loop_energy(x, paper_plant) == pytest.approx(0.0, abs=1e-12)

    def test_elastic_term(self, paper_plant):
        x = OpenLoopState(0.0, 1e-3, 0.0, 0.0)
        assert open_loop_energy(x, paper_plant) == pytest.approx(0.5, rel=1e-12)

    def test_kinetic_term(self, paper_plant):
        x = OpenLoopState(0.0, 0.0, 3.0, 0.0)
        assert open_loop_energy(x, paper_plant) == pytest.approx(1.5, rel=1e-12)

    def test_singular_mass_raises(self):
        model = NonlinearRobotModel(
            n=1,
            mass_of=lambda q: np.array([[0.0]]),
            dmass_of=lambda q: np.zeros((1, 1, 1)),
            potential_of=lambda q: 0.0,
            gravity_grad_of=lambda q: np.zeros(1),
            J=1.0, K=1.0, D=0.0)
        x, sp = OpenLoopState(0.0, 0.0, 1.0, 0.0), ShapedParams(1.0, 1.0, 0.0)
        y = ClosedLoopState(0.0, 0.0, 1.0, 0.0)
        for call in (lambda: open_loop_energy(x, model), lambda: to_closed(x, sp, model),
                     lambda: from_closed(y, sp, model), lambda: closed_loop_energy(y, sp, model)):
            with pytest.raises(DegenerateModelError, match="mass matrix is singular"):
                call()


class TestOpenLoopField:
    def test_equilibrium_is_stationary(self, paper_plant):
        d = open_loop_field(OpenLoopState.zero(1), 0.0, 0.0, paper_plant)
        assert np.all(d.pack() == 0.0)

    def test_deflection_drives_momenta(self, paper_plant):
        x = OpenLoopState(0.0, 1e-3, 0.0, 0.0)
        d = open_loop_field(x, 0.0, 0.0, paper_plant)
        assert d.p[0] == pytest.approx(1e3, rel=1e-12)
        assert d.s[0] == pytest.approx(-1e3, rel=1e-12)
        assert d.q[0] == 0.0 and d.theta[0] == 0.0

    def test_constant_mass_model_matches_linear(self, paper_plant):
        rng = np.random.default_rng(7)
        model = as_model(paper_plant)
        assert model.constant_mass
        for _ in range(20):
            x = OpenLoopState.unpack(rng.normal(0, 1, 4), 1)
            te, tau = rng.normal(size=2)
            da = open_loop_field(x, te, tau, paper_plant).pack()
            db = open_loop_field(x, te, tau, model).pack()
            scale = max(np.max(np.abs(da)), 1.0)
            assert np.max(np.abs(da - db)) <= 1e-12 * scale


class TestTwoLinkArm:
    def test_coriolis_vanishes_at_rest(self, demo_arm):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, 2)
            force = demo_arm.coriolis_of(q, np.zeros(2)) @ np.zeros(2)
            assert np.all(force == 0.0)

    def test_mdot_minus_2c_skew(self, demo_arm):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.normal(0, 2, 2)
            Mdot = directional_mass_derivative(demo_arm, q, qd)
            S = Mdot - 2.0 * demo_arm.coriolis_of(q, qd)
            assert np.max(np.abs(S + S.T)) <= 1e-10

    def test_gravity_off_means_zero_potential(self, demo_arm):
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = rng.uniform(-np.pi, np.pi, 2)
            assert demo_arm.potential_of(q) == 0.0
            assert np.all(demo_arm.gravity_grad_of(q) == 0.0)

    def test_gravity_grad_matches_finite_differences(self, gravity_arm):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 2)
            grad = gravity_arm.gravity_grad_of(q)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (gravity_arm.potential_of(q + e) - gravity_arm.potential_of(q - e)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_mass_spd_on_grid(self, demo_arm):
        for q2 in np.linspace(-np.pi, np.pi, 25):
            M = demo_arm.mass_of(np.array([0.4, q2]))
            assert np.allclose(M, M.T)
            np.linalg.cholesky(M)

    def test_dmass_matches_finite_differences(self, demo_arm):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, 2)
            dM = demo_arm.dmass_of(q)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (demo_arm.mass_of(q + e) - demo_arm.mass_of(q - e)) / (2 * h)
                assert np.max(np.abs(dM[i] - fd)) <= 1e-6

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValidationError):
            two_link_arm([0.5, -0.4], [4.0, 2.5], [1.0, 1.0], 1e4, 0.0)
        with pytest.raises(ValidationError):
            two_link_arm([0.5, 0.4], [0.0, 2.5], [1.0, 1.0], 1e4, 0.0)
        with pytest.raises(ValidationError):
            two_link_arm([0.5, 0.4], [4.0, 2.5], [1.0, -1.0], 1e4, 0.0)

    @pytest.mark.parametrize("lengths, masses, name", [
        ([0.5, 0.4, 0.3], [4.0, 2.5], "link_lengths"),
        ([0.5], [4.0, 2.5], "link_lengths"),
        ([0.5, 0.4], ["a", 1], "link_masses"),
        ([0.5, 0.4], [[4.0, 0.0], [0.0, 2.5]], "link_masses"),
    ])
    def test_rejects_malformed_link_lists(self, lengths, masses, name):
        with pytest.raises(ValidationError, match=name):
            two_link_arm(lengths, masses, [1.0, 1.0], 1e4, 0.0)


class TestBatchEvaluators:
    """Every evaluator takes a (k, n) batch and returns the row-by-row values."""

    @pytest.fixture(params=["demo_arm", "gravity_arm", "from_linear"])
    def model(self, request):
        if request.param == "from_linear":
            return NonlinearRobotModel.from_linear(LinearRobotParams(
                n=2, M=np.array([[2.0, 0.3], [0.3, 1.0]]), J=1.0, K=1e3, D=0.1))
        return request.getfixturevalue(request.param)

    def test_batch_equals_rows(self, model):
        rng = np.random.default_rng(3)
        Q, V = rng.uniform(-np.pi, np.pi, (6, 2)), rng.normal(0.0, 1.0, (6, 2))

        def evaluate(q, v):
            return (model.mass_of(q), model.dmass_of(q), model.gravity_grad_of(q),
                    model.potential_of(q), model.coriolis_of(q, v), model.kinetic_grad(q, v))

        batched = evaluate(Q, V)
        for k in range(Q.shape[0]):
            for batch, row in zip(batched, evaluate(Q[k], V[k])):
                assert batch[k].shape == np.shape(row)
                np.testing.assert_allclose(batch[k], row, rtol=1e-13, atol=1e-13)


class TestEnergyConsistency:
    @pytest.mark.slow
    def test_free_swing_conserves_energy(self, gravity_arm):
        # undamped, unforced: the total energy is a first integral
        model = gravity_arm
        x0 = OpenLoopState(np.array([0.3, -0.2]), np.array([0.3, -0.2]),
                           np.zeros(2), np.array([0.5, -0.4]))

        def field(t, v):
            return open_loop_field(OpenLoopState.unpack(v, 2), np.zeros(2),
                                   np.zeros(2), model).pack()

        t, X = integrate(field, x0.pack(), 2e-5, 0.3)
        H0 = open_loop_energy(x0, model)
        H = [open_loop_energy(OpenLoopState.unpack(v, 2), model) for v in X[::500]]
        scale = max(abs(H0), 1.0)
        assert max(abs(h - H0) for h in H) <= 1e-8 * scale


def _zero_mass_model(n=2, constant_mass=False):
    """A two-joint model, declared with ``n`` joints, whose M(q) is zero."""
    return NonlinearRobotModel(
        n=n, mass_of=lambda q: np.zeros(np.shape(q)[:-1] + (2, 2)),
        dmass_of=lambda q: np.zeros(np.shape(q)[:-1] + (2, 2, 2)),
        potential_of=lambda q: np.zeros(np.shape(q)[:-1]),
        gravity_grad_of=lambda q: np.zeros(np.shape(q)),
        J=np.eye(2), K=np.eye(2), D=np.eye(2), constant_mass=constant_mass)


class TestDerivedInverses:
    """Each model's inverses are computed once, read-only, with the bits of
    the direct ``np.linalg.inv`` form."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cached_inverses_equal_the_direct_form(self, n):
        plant = rand_plant(np.random.default_rng(n), n)
        model = as_model(plant)
        direct = {"Jinv": np.linalg.inv(plant.J),
                  "JKinv": plant.J @ np.linalg.inv(plant.K),
                  "Minv": np.linalg.inv(plant.M)}
        for name, expected in direct.items():
            cached = getattr(model, name)
            assert getattr(model, name) is cached
            assert np.array_equal(cached, expected), name
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0

    def test_constant_mass_inverse_is_a_read_only_view(self, paper_plant):
        model = as_model(paper_plant)
        Minv = model.link_terms(np.zeros((3, 1)), np.ones((3, 1)))[0]
        assert Minv.shape == (3, 1, 1) and not Minv.flags.writeable
        assert np.shares_memory(Minv, model.Minv)

    def test_varying_mass_is_inverted_at_each_state(self, demo_arm):
        q = np.array([[0.1, 0.2], [0.4, 1.3]])
        assert np.array_equal(demo_arm.inverse_mass(q), np.linalg.inv(demo_arm.mass_of(q)))
        assert np.array_equal(demo_arm.Jinv, np.linalg.inv(demo_arm.J))


class TestValidation:
    @pytest.mark.parametrize("call, error, fragment", [
        (lambda: LinearRobotParams(n=0, M=1.0, J=1.0, K=1.0, D=0.0), ValidationError,
         "joint count must be >= 1, got 0"),
        (lambda: _zero_mass_model(n=0), ValidationError, "joint count must be >= 1, got 0"),
        (lambda: NonlinearRobotModel.from_linear(LinearRobotParams(1, 1.0, 1.0, 1.0, 0.0),
                                                 potential_of=lambda q: 0.0),
         ValidationError, "provide both potential_of and gravity_grad_of, or neither"),
        (lambda: NonlinearRobotModel.from_linear(LinearRobotParams(1, 1.0, 1.0, 1.0, 0.0),
                                                 gravity_grad_of=lambda q: q),
         ValidationError, "provide both potential_of and gravity_grad_of, or neither"),
        (lambda: _zero_mass_model().link_terms(np.zeros(2), np.ones(2)),
         DegenerateModelError, "mass matrix is singular"),
        (lambda: _zero_mass_model(constant_mass=True).link_terms(np.zeros(2), np.ones(2)),
         DegenerateModelError, "mass matrix is singular"),
        (lambda: open_loop_field(OpenLoopState.zero(2), 0.0, 0.0,
                                 _zero_mass_model(constant_mass=True)),
         DegenerateModelError, "mass matrix is singular"),
        (lambda: _zero_mass_model().Minv, NotApplicableError,
         "M^-1 is a constant only for a constant-mass model"),
        (lambda: OpenLoopState.unpack(np.zeros(3), 1), ValidationError,
         "state vector: expected shape (4,), got (3,)"),
        (lambda: as_matrix(np.zeros((1, 1, 1)), 1, "M"), ValidationError,
         "M: too many dimensions (3)"),
    ], ids=["linear_n0", "nonlinear_n0", "only_potential", "only_gravity_grad",
            "singular_mass", "singular_constant_mass", "singular_constant_mass_field",
            "varying_mass_has_no_Minv", "unpack_shape", "matrix_3d"])
    def test_invalid_arguments_are_rejected(self, call, error, fragment):
        with pytest.raises(error, match=re.escape(fragment)):
            call()

    def test_rejects_asymmetric_mass(self):
        with pytest.raises(ValidationError):
            LinearRobotParams(n=2, M=np.array([[1.0, 0.5], [0.0, 1.0]]),
                              J=np.eye(2), K=np.eye(2), D=np.eye(2))

    def test_rejects_indefinite_stiffness(self):
        with pytest.raises(ValidationError):
            LinearRobotParams(n=1, M=1.0, J=1.0, K=-1.0, D=0.0)

    def test_rejects_negative_damping(self):
        with pytest.raises(ValidationError):
            LinearRobotParams(n=1, M=1.0, J=1.0, K=1.0, D=-0.1)

    def test_cholesky_pivot_threshold(self):
        with pytest.raises(ValueError):
            cholesky_lower(np.diag([1.0, 1e-14]))
        with pytest.raises(ValueError):
            cholesky_lower(np.diag([1.0, -1.0]))
        L = cholesky_lower(np.diag([1.0, 1e-11]))
        np.testing.assert_allclose(np.diag(L), np.sqrt([1.0, 1e-11]), rtol=1e-15)

    def test_wrapped_model_built_once_and_picklable(self, paper_plant):
        model = as_model(paper_plant)
        assert as_model(paper_plant) is model
        clone = pickle.loads(pickle.dumps(paper_plant))
        q = np.zeros((3, 1))
        np.testing.assert_array_equal(as_model(clone).mass_of(q), model.mass_of(q))
        np.testing.assert_array_equal(pickle.loads(pickle.dumps(model)).dmass_of(q),
                                      np.zeros((3, 1, 1, 1)))

    def test_star_import_exports_no_module(self):
        import flexjoint
        public = {name for name in dir(flexjoint) if not name.startswith("_")
                  and not isinstance(getattr(flexjoint, name), types.ModuleType)}
        assert set(flexjoint.__all__) == public
        assert len(flexjoint.__all__) == 60
        namespace = {}
        exec("from flexjoint import *", namespace)
        assert not any(isinstance(v, types.ModuleType) for v in namespace.values())

    def test_scalar_broadcast(self, paper_plant):
        assert paper_plant.M.shape == (1, 1)
        assert paper_plant.K[0, 0] == 1e6

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import specio
from hjbkit.certify import _build_adversaries, _growth_record, companion_candidate
from hjbkit.grids import Box
from hjbkit.simulate import piecewise_constant_policy
from hjbkit.solver import _Stepper


@pytest.fixture(scope="module")
def utility_model():
    # b = u*mu, sigma = u*sigma_mkt with unit market coefficients: the
    # Hamiltonian integrand is u*p + u^2*M/2
    return hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=10.0)


def solver_hamiltonian(problem, x, p, m, resolution=41, h=1e-5):
    """The Hamiltonian the solver maximizes at x: the max over the control grid
    of the stepper's generator, applied to the quadratic with slope p and
    curvature m at x on the three nodes x - h, x, x + h."""
    grid = hk.SpatialGrid((x + h * np.array([-1.0, 0.0, 1.0]),))
    s = grid.axes[0] - x
    stepper = _Stepper(problem, grid, problem.control_grid(resolution))
    lv = stepper._generator(p * s + 0.5 * m * s**2, np.empty_like(stepper.buf))[:, 0]
    k = int(np.argmax(lv))
    return float(lv[k]), stepper.controls[k]


class TestHamiltonian:
    def test_scalar_quadratic_maximum(self, utility_model):
        # calculus: max_u (u*p + u^2 M / 2) = -p^2/(2M) at u = -p/M for M < 0
        value, argmax = solver_hamiltonian(utility_model, 0.3, 1.0, -1.0, 801)
        assert value == pytest.approx(0.5, abs=1e-4)
        assert argmax[0] == pytest.approx(1.0, abs=0.05)

    def test_refining_grid_approaches_closed_form(self, utility_model):
        vals = [solver_hamiltonian(utility_model, 0.3, 1.0, -1.0, r)[0] for r in (11, 41, 161, 641)]
        errs = [abs(v - 0.5) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-4

    def test_zero_coefficients_zero_value(self):
        prob = hk.constant_coefficient_problem([0.0], [[0.0]])
        value, argmax = solver_hamiltonian(prob, 2.0, 0.0, 0.0)
        assert value == 0.0
        assert argmax is not None

    def test_monotone_in_control_resolution(self, utility_model):
        # linspace(a, b, r) is a subset of linspace(a, b, 2r-1): sup over superset
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, m = rng.normal(), -abs(rng.normal()) - 0.1
            v1 = solver_hamiltonian(utility_model, 0.1, p, m, 21, h=0.1)[0]
            v2 = solver_hamiltonian(utility_model, 0.1, p, m, 41, h=0.1)[0]
            assert v2 >= v1

    def test_positive_homogeneity(self, utility_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, m = rng.normal(), -abs(rng.normal()) - 0.1
            lam = rng.uniform(0.1, 7.0)
            h1 = solver_hamiltonian(utility_model, 0.2, p, m, 101, h=0.1)[0]
            h2 = solver_hamiltonian(utility_model, 0.2, lam * p, lam * m, 101, h=0.1)[0]
            assert h2 == pytest.approx(lam * h1, rel=1e-12, abs=1e-12)


class TestGrowthCheck:
    def test_merton_payoff_within_gauge(self, merton_problem):
        # certify's growth record, on the payoff at growth constant 1: g = psi for Merton
        payoff = companion_candidate(lambda t, X: merton_problem.payoff(X), "super", 1.0, None, "payoff")
        record = _growth_record(payoff, merton_problem, hk.CertifyConfig(start_box=Box([0.1], [5.0])))
        assert record.passed


def _doc(family, params, domain, bound, payoff, gauge, constraint):
    return {
        "family": family, "params": params, "state_domain": domain, "control_bound": bound,
        "horizon": 1.0, "payoff": payoff, "gauge": gauge, "constraint": constraint,
    }


# each constructor, the problem document that describes the same problem, and a small grid
ONE_BUILDER_CASES = {
    "merton": (
        lambda: hk.merton_problem(),
        _doc("linear_drift", {"mu": 0.1, "sigma": 0.2}, [[0.0, None]], 10.0,
             {"family": "power", "params": {"p": 0.5}}, {"family": "power", "params": {"p": 0.5}},
             {"family": "neg_second"}),
        lambda: hk.log_grid(0.2, 5.0, 30),
    ),
    "proportional": (
        lambda: hk.proportional_control_problem(payoff=hk.problem.abs_payoff(1.0)),
        _doc("proportional_control", {"mu": 1.0, "sigma": 1.0}, [[None, None]], 1.0,
             {"family": "abs", "params": {"center": 1.0}}, {"family": "one_plus_square"},
             {"family": "neg_second"}),
        lambda: hk.uniform_grid([0.0], [2.0], [21]),
    ),
    "heat-2d": (
        lambda: hk.heat_problem(dim=2),
        _doc("constant", {"b0": [0.0, 0.0], "s0": [[1.0, 0.0], [0.0, 1.0]]},
             [[None, None], [None, None]], 0.0, {"family": "quadratic"}, {"family": "one_plus_square"},
             {"family": "positive_const", "params": {"c": 1.0}}),
        lambda: hk.uniform_grid([-1.0, -1.0], [1.0, 1.0], [9, 9]),
    ),
    "constant": (
        lambda: hk.constant_coefficient_problem([0.3], [[0.5]]),
        _doc("constant", {"b0": [0.3], "s0": [[0.5]]}, [[None, None]], 0.0,
             {"family": "quadratic"}, {"family": "one_plus_square"},
             {"family": "positive_const", "params": {"c": 1.0}}),
        lambda: hk.uniform_grid([-2.0], [2.0], [21]),
    ),
}


@pytest.mark.parametrize("case", list(ONE_BUILDER_CASES))
def test_constructor_and_document_build_one_problem(case):
    make, doc, make_grid = ONE_BUILDER_CASES[case]
    built, read = make(), specio.problem_from_spec(doc)
    for name in ("state_dim", "noise_dim", "control_dim", "horizon", "family"):
        assert getattr(read, name) == getattr(built, name), name
    for a, b in [(read.state_domain, built.state_domain), (read.controls, built.controls)]:
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.hi, b.hi)
    assert (read.constraint.family, read.constraint.params) == (built.constraint.family, built.constraint.params)

    grid = make_grid()
    nodes = grid.nodes()
    for name in ("payoff", "gauge"):
        np.testing.assert_array_equal(getattr(read, name)(nodes), getattr(built, name)(nodes), err_msg=name)
    # the coefficients at every (node, control) pair
    controls = built.control_grid(5)
    X = np.broadcast_to(nodes[:, None, :], (len(nodes), len(controls), nodes.shape[1]))
    U = np.broadcast_to(controls[None], (len(nodes),) + controls.shape)
    for name in ("drift", "diffusion"):
        np.testing.assert_array_equal(getattr(read, name)(X, U), getattr(built, name)(X, U), err_msg=name)
    config = hk.SchemeConfig(n_time_nodes=5, control_grid_resolution=11)
    sols = [
        hk.solve_hjb(p, hk.GridFunction(grid, p.payoff(grid.nodes()).reshape(grid.shape)), config)
        for p in (built, read)
    ]
    np.testing.assert_array_equal(sols[0].values, sols[1].values)
    np.testing.assert_array_equal(sols[0].policies, sols[1].policies)


@pytest.mark.parametrize("case", ["merton", "heat-2d"])
def test_a_gauge_constant_in_a_document_is_accepted_and_not_read(case):
    """Documents once gave the gauge a "constant" that no part of hjbkit read;
    they still load, and solve to the same bits as the document without it."""
    _, doc, make_grid = ONE_BUILDER_CASES[case]
    grid = make_grid()
    config = hk.SchemeConfig(n_time_nodes=5, control_grid_resolution=11)
    sols = []
    for gauge in (doc["gauge"], dict(doc["gauge"], constant=1.2)):
        p = specio.problem_from_spec(dict(doc, gauge=gauge))
        sols.append(hk.solve_hjb(p, hk.GridFunction(grid, p.payoff(grid.nodes()).reshape(grid.shape)), config))
    np.testing.assert_array_equal(sols[0].values, sols[1].values)
    np.testing.assert_array_equal(sols[0].policies, sols[1].policies)


def test_constructor_and_document_simulate_the_same_merton_paths():
    _, doc, _ = ONE_BUILDER_CASES["merton"]
    policy = hk.constant_policy([5.0])
    paths = [
        hk.simulate_paths(p, policy, 0.0, [1.0], 500, 20, seed=3, stops=range(21)).states
        for p in (hk.merton_problem(), specio.problem_from_spec(doc))
    ]
    np.testing.assert_array_equal(paths[0], paths[1])


@pytest.mark.parametrize("family", ["custom", "neg_trace ", "positive", ""])
def test_constraint_of_another_family_is_refused(family):
    """Only the three families the face-lift and the solver know can be built."""
    with pytest.raises(hk.ConfigurationError, match="unknown constraint family"):
        hk.problem.Constraint(lambda t, x, p, M: -np.trace(M), family)


@pytest.mark.parametrize("constraint, axes", [
    (hk.problem.neg_second_constraint(), {1: (0,), 2: (0,)}),
    (hk.problem.neg_trace_constraint(), {1: (0,), 2: (0, 1)}),
    (hk.problem.positive_constraint(0.5), {1: (), 2: ()}),
], ids=["neg_second", "neg_trace", "positive_const"])
def test_a_constraint_states_the_second_differences_it_reads(constraint, axes):
    """G = -(the sum of M's diagonal over those axes), or the constant where there are none."""
    rng = np.random.default_rng(5)
    for dim, want in axes.items():
        assert constraint.second_difference_axes(dim) == want
        M = rng.normal(size=(7, dim, dim))
        G = constraint.on_nodes(1.0, np.zeros((7, dim)), np.zeros((7, dim)), M)
        expected = -sum(M[:, k, k] for k in want) if want else np.full(7, 0.5)
        np.testing.assert_array_equal(G, expected)


def one_box_grid_reference(box, resolution, bound):
    """The control grid as ControlSet.grid made it for a set of one box: the
    box within [-bound, bound]^k, meshed, then np.unique of the rows."""
    lo = np.maximum(box.lo, -bound)
    hi = np.minimum(box.hi, bound)
    axes = [np.linspace(a, c, resolution) if c > a else np.array([a]) for a, c in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.unique(np.stack([m.ravel() for m in mesh], axis=-1), axis=0)


def bound_box_adversaries_reference(problem, B, seed, n_random=3):
    """The super battery's adversaries as they were drawn from [-B, B]^k alone."""
    k = problem.control_dim
    corners = np.array(np.meshgrid(*[[-B, B]] * k)).T.reshape(-1, k)
    policies = [(f"corner {c.tolist()}", hk.constant_policy(c)) for c in np.unique(corners, axis=0)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xAD5))))
    for j in range(n_random):
        bps = np.sort(rng.uniform(0.0, problem.horizon, 4))
        bps[0] = 0.0
        policies.append((f"random-staircase-{j}", piecewise_constant_policy(bps, rng.uniform(-B, B, (4, k)))))
    return policies


WHOLE_LINE, ZERO = Box([-np.inf], [np.inf]), Box([0.0], [0.0])

# each shipped constructor, the control set build_problem gets from it, and its bound
SHIPPED_PROBLEMS = {
    "merton": (hk.merton_problem, WHOLE_LINE, 10.0),
    "proportional": (hk.proportional_control_problem, WHOLE_LINE, 1.0),
    "heat-1d": (hk.heat_problem, ZERO, 0.0),
    "heat-2d": (lambda: hk.heat_problem(dim=2), ZERO, 0.0),
    "constant": (lambda: hk.constant_coefficient_problem([0.3], [[0.5]]), ZERO, 0.0),
}


@pytest.mark.parametrize("case", list(SHIPPED_PROBLEMS))
def test_shipped_problems_keep_their_control_grid_and_adversaries_bitwise(case):
    """Every shipped control set contains [-B, B]^k, so reading the admissible
    box changes no bit of the solver's grid or of the super battery's adversaries."""
    make, control_set, B = SHIPPED_PROBLEMS[case]
    problem = make()
    for resolution in (1, 2, 5, 21, 41, 81, 201):
        got = problem.control_grid(resolution)
        want = one_box_grid_reference(control_set, resolution, B)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), resolution
    times = np.linspace(0.0, problem.horizon, 257)
    x = np.zeros((1, problem.state_dim))
    for seed in (1, 2, 43):
        got, want = _build_adversaries(problem, seed, 3, ()), bound_box_adversaries_reference(problem, B, seed)
        assert [tag for tag, _ in got] == [tag for tag, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert all(a.rule(t, x).tobytes() == b.rule(t, x).tobytes() for t in times)


def long_only(bound=10.0):
    """The Merton problem of a document whose control set is [0, 1]."""
    return specio.problem_from_spec(dict(MERTON_DOC, control_set=[[[0.0, 1.0]]], control_bound=bound))


def test_a_narrow_control_set_is_the_admissible_box():
    problem = long_only()
    np.testing.assert_array_equal(problem.controls.lo, [0.0])
    np.testing.assert_array_equal(problem.controls.hi, [1.0])
    np.testing.assert_array_equal(problem.control_grid(5)[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    # build_problem narrows the control set by the bound, so a smaller bound narrows the box
    assert long_only(bound=0.5).controls.hi.tolist() == [0.5]


def test_super_adversaries_stay_in_the_admissible_box():
    """Corners and staircases were drawn from [-B, B]: on a long-only problem
    they left [0, 1] and rejected its exact value as a super-solution."""
    problem = long_only()
    times = np.linspace(0.0, problem.horizon, 257)
    for seed in range(1, 6):
        adversaries = _build_adversaries(problem, seed, 3, ())
        assert [(tag, pol.rule(0.0, None).tolist()) for tag, pol in adversaries[:2]] == [
            ("corner [0.0]", [[0.0]]), ("corner [1.0]", [[1.0]])]
        stairs = np.concatenate([pol.rule(t, None) for _, pol in adversaries[2:] for t in times])
        assert len(adversaries) == 5 and np.all((stairs >= 0.0) & (stairs <= 1.0))


@pytest.mark.parametrize("control_set, message", [
    ([[]], r"control_set \[\] has no control within the bound 10.0"),
    ([[[20.0, 30.0]]], r"control_set \[\[20.0, 30.0\]\] has no control within the bound 10.0"),
], ids=["0-dimensional", "outside-the-bound"])
def test_a_control_set_without_admissible_controls_is_refused(control_set, message):
    with pytest.raises(hk.ConfigurationError, match=message):
        specio.problem_from_spec(dict(MERTON_DOC, control_set=control_set))


@pytest.mark.parametrize("family", ["linear_drift", "proportional_control", "constant"])
def test_a_control_set_of_another_dimension_than_the_family_is_refused(family):
    """Each built-in family reads one control (constant reads none, on the
    control set {0}); a second axis was accepted, and a solve searched the
    square of the controls it needed."""
    doc = BOX_FAMILIES[family][0]
    for pairs in ([[None, None], [-1, 1]], [[0, 0], [0, 0]]):
        with pytest.raises(hk.ConfigurationError, match=re.escape(
                f"is 2-dimensional; the {family} family reads 1 control")):
            specio.problem_from_spec(dict(doc, control_set=[pairs]))
    assert specio.problem_from_spec(dict(doc, control_set=[[[0, 0]]])).control_dim == 1


def test_within_is_the_problem_on_the_domain_within_the_box(merton_problem):
    narrowed = merton_problem.within(Box([-1.0], [2.0]))
    assert narrowed.state_domain.pairs() == [[0.0, 2.0]]
    assert (narrowed.drift, narrowed.payoff, narrowed.controls.pairs()) == (
        merton_problem.drift, merton_problem.payoff, merton_problem.controls.pairs())
    for box in (Box([-2.0], [0.0]), Box([0.5, 0.5], [1.0, 1.0])):
        with pytest.raises(hk.ConfigurationError, match=re.escape(f"box {box.pairs()} misses the state domain")):
            merton_problem.within(box)


MERTON_DOC = {
    "family": "linear_drift", "params": {"mu": 0.1, "sigma": 0.2}, "control_bound": 10.0,
    "state_domain": [[0.0, None]], "horizon": 1.0, "payoff": {"family": "power", "params": {"p": 0.5}},
    "gauge": {"family": "power", "params": {"p": 0.5}, "constant": 1.2}, "constraint": {"family": "neg_second"},
}


@pytest.mark.parametrize("key, value, message", [
    ("control_set", [[[1.0, 0.0]]], "control_set [[1.0, 0.0]]: box must be nonempty"),
    ("control_set", [[[0.0, 1.0, 2.0]]], "control_set [[0.0, 1.0, 2.0]]: too many values to unpack"),
    ("state_domain", [[2.0, 0.0]], "state_domain [[2.0, 0.0]]: box must be nonempty"),
    ("state_domain", [[0.0, None, 1.0]], "state_domain [[0.0, None, 1.0]]: too many values to unpack"),
], ids=["control-set-inverted", "control-set-three-numbers", "state-domain-inverted", "state-domain-three-numbers"])
def test_a_malformed_box_pair_is_refused_naming_its_key(key, value, message):
    """These read "box must be nonempty: lo <= hi required" or "too many values
    to unpack", naming no key."""
    with pytest.raises(hk.ConfigurationError, match=re.escape(message)):
        specio.problem_from_spec(dict(MERTON_DOC, **{key: value}))


def test_a_problem_holds_ten_fields_each_settable():
    """control_bound and control_set were read only to work out the init=False
    field controls, and state_dim repeated state_domain.dim."""
    fields = dataclasses.fields(hk.ControlProblem)
    assert {f.name for f in fields} == {"drift", "diffusion", "noise_dim", "state_domain", "controls", "horizon",
                                        "payoff", "gauge", "constraint", "family"}
    assert all(f.init for f in fields)


@pytest.mark.parametrize("controls", [Box(np.empty(0), np.empty(0)), Box([-np.inf], [1.0]), Box([0.0], [np.inf])],
                         ids=["0-dimensional", "infinite-lo", "infinite-hi"])
def test_a_control_box_that_is_empty_or_infinite_is_refused(merton_problem, controls):
    with pytest.raises(ValueError, match="must be a nonempty box with finite edges"):
        dataclasses.replace(merton_problem, controls=controls)


@pytest.mark.parametrize("domain, dim", [([[0.0, None], [0.0, None]], 1), ([], 1)], ids=["two-pairs", "no-pair"])
def test_a_state_domain_of_another_dimension_than_the_family_is_refused(domain, dim):
    with pytest.raises(hk.ConfigurationError, match=f"is not {dim}-dimensional"):
        specio.problem_from_spec(dict(MERTON_DOC, state_domain=domain))


# a document's family, its parameters and domain, and a small grid of that domain to solve on
BOX_FAMILIES = {
    "linear_drift": (MERTON_DOC, lambda: hk.log_grid(0.2, 5.0, 12)),
    "proportional_control": (dict(MERTON_DOC, family="proportional_control", state_domain=[[None, None]],
                                  payoff={"family": "abs", "params": {"center": 0.3}}),
                             lambda: hk.uniform_grid([-1.0], [1.0], [11])),
    "constant": (dict(MERTON_DOC, family="constant", params={"b0": [0.3], "s0": [[0.5]]},
                      state_domain=[[None, None]], payoff={"family": "quadratic"}),
                 lambda: hk.uniform_grid([-1.0], [1.0], [11])),
}


@st.composite
def edge_pairs(draw):
    """An ordered pair of edges, each null (infinite) or not."""
    a, b = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)))
    return [None if draw(st.booleans()) else a, None if draw(st.booleans()) else b]


@st.composite
def control_set_documents(draw):
    """A problem document with a control_set of one box, some edges null, and a control_bound."""
    family = draw(st.sampled_from(sorted(BOX_FAMILIES)))
    pairs = draw(st.lists(edge_pairs(), min_size=1, max_size=2))
    return family, dict(BOX_FAMILIES[family][0], control_set=[pairs], control_bound=draw(st.floats(0.0, 1e3)))


@settings(max_examples=150, deadline=None)
@given(control_set_documents(), st.integers(0, 2**32 - 1))
def test_the_control_box_is_the_control_set_within_the_bound_and_holds_every_control_read(case, seed):
    """problem.controls is control_set ∩ [-B, B]^k, or the document is refused
    naming control_set, as it is when k is not the family's one control; the
    controls solve_hjb extracts and the super battery's corners and staircases
    all lie in it."""
    family, doc = case
    B = doc["control_bound"]
    lo = np.array([-np.inf if a is None else a for a, _ in doc["control_set"][0]])
    hi = np.array([np.inf if b is None else b for _, b in doc["control_set"][0]])
    want_lo, want_hi = np.array([max(a, -B) for a in lo]), np.array([min(b, B) for b in hi])
    refused = np.any(want_lo > want_hi) or len(lo) != 1
    event("refused" if refused else "built")
    if refused:
        with pytest.raises(hk.ConfigurationError, match="control_set"):
            specio.problem_from_spec(doc)
        return
    problem = specio.problem_from_spec(doc)
    np.testing.assert_array_equal(problem.controls.lo, want_lo)
    np.testing.assert_array_equal(problem.controls.hi, want_hi)

    def inside(u):
        return np.all((u >= want_lo) & (u <= want_hi))

    grid = BOX_FAMILIES[family][1]()
    terminal = hk.GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))
    sol = hk.solve_hjb(problem, terminal, hk.SchemeConfig(n_time_nodes=3, control_grid_resolution=4))
    assert inside(sol.policies)
    times = np.linspace(0.0, problem.horizon, 33)
    x = np.ones((1, problem.state_dim))
    for tag, policy in _build_adversaries(problem, seed, 3, ()):
        assert all(inside(policy.rule(t, x)) for t in times), tag

import math
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

import hjbkit as hk
from hjbkit import certify, specio
from hjbkit.certify import (
    BracketConfig,
    CertificationReport,
    bracket_report,
    candidate_from_solution,
    companion_candidate,
    constant_candidate,
    lattice_max,
    lattice_min,
    merton_candidate,
)
from hjbkit.simulate import FeedbackPolicy, ValueEstimate, _use_log_coordinates, constant_policy


@pytest.fixture(scope="module")
def cert_config():
    return hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=40_000, seed=31)


@pytest.fixture(scope="module")
def power_config():
    # rejection of the delta = 0.05 perturbations needs the full default budget
    return hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=100_000, seed=31)


class TestCertifySubsolution:
    def test_constant_below_payoff_certifies(self, merton_problem, cert_config):
        # g = sqrt(x) >= sqrt(0.5) on the start box
        c = math.sqrt(0.5) - 0.01
        cand = constant_candidate(c, "sub", growth_constant=c / 0.5**0.5 + 0.1)
        rep = hk.certify_subsolution(cand, merton_problem, cert_config)
        assert rep.certified
        assert "statistical" in rep.verdict

    def test_exact_merton_certifies(self, merton_problem, cert_config):
        rep = hk.certify_subsolution(merton_candidate("sub"), merton_problem, cert_config)
        assert rep.certified
        # true martingale: every margin is pure noise around zero
        mart = [r for r in rep.records if r.kind == "martingale"]
        assert all(abs(r.margin) <= 6 * max(r.stderr, 1e-12) for r in mart)

    def test_inflated_exponent_rejected(self, merton_problem, power_config):
        cand = merton_candidate("sub", exponent_shift=0.05)
        rep = hk.certify_subsolution(cand, merton_problem, power_config)
        assert not rep.certified
        assert any(r.kind == "martingale" for r in rep.failing())

    def test_constant_above_payoff_fails_terminal_check(self, merton_problem, cert_config):
        cand = constant_candidate(5.0, "sub", growth_constant=10.0)
        rep = hk.certify_subsolution(cand, merton_problem, cert_config)
        assert not rep.certified
        assert any(r.kind == "terminal" for r in rep.failing())

    def test_missing_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            hk.CandidateFunction(
                evaluator=lambda t, X: np.zeros(X.shape[0]), kind="sub", growth_constant=1.0
            )

    def test_wrong_kind_rejected(self, merton_problem, cert_config):
        sup = merton_candidate("super")
        with pytest.raises(ValueError):
            hk.certify_subsolution(sup, merton_problem, cert_config)


class TestCertifySupersolution:
    def test_constant_above_payoff_certifies(self, merton_problem, cert_config):
        c = math.sqrt(2.0) * math.exp(0.2)
        cand = constant_candidate(c, "super", growth_constant=c / 0.5**0.5 + 0.1)
        rep = hk.certify_supersolution(cand, merton_problem, cert_config, n_random=2)
        assert rep.certified
        assert "adversary class" in rep.verdict

    def test_exact_merton_certifies_against_all(self, merton_problem, cert_config):
        rep = hk.certify_supersolution(merton_candidate("super"), merton_problem, cert_config, n_random=2)
        assert rep.certified

    def test_deflated_rejected_by_optimal_adversary(self, merton_problem, power_config):
        cand = merton_candidate("super", exponent_shift=-0.05)
        rep = hk.certify_supersolution(cand, merton_problem, power_config, (constant_policy([5.0]),), n_random=0)
        assert not rep.certified
        assert any("extra-0" in r.adversary for r in rep.failing())

    def test_corner_adversaries_alone_miss_deflation(self, merton_problem, cert_config):
        # Lambda(+-10) = 0 < Lambda - delta: the corners cannot expose the gap,
        # which is exactly why the extracted argmax rule is the default adversary
        cand = merton_candidate("super", exponent_shift=-0.05)
        rep = hk.certify_supersolution(cand, merton_problem, cert_config, n_random=0)
        assert rep.certified


class TestLattice:
    def test_max_of_equal_candidates_degenerates(self, merton_problem, cert_config):
        w = merton_candidate("sub")
        m = lattice_max(w, w)
        rep = hk.certify_subsolution(m, merton_problem, cert_config)
        assert rep.certified

    def test_max_of_constants_selects_larger(self, merton_problem, cert_config):
        c1 = constant_candidate(0.2, "sub", growth_constant=1.0)
        c2 = constant_candidate(0.5, "sub", growth_constant=1.0)
        m = lattice_max(c1, c2)
        assert m(0.0, [1.0]) == 0.5
        rep = hk.certify_subsolution(m, merton_problem, cert_config)
        assert rep.certified

    def test_max_merton_vs_low_constant_uses_merton_branch(self, merton_problem, cert_config):
        w1 = merton_candidate("sub")
        w2 = constant_candidate(0.3, "sub", growth_constant=1.0)
        m = lattice_max(w1, w2)
        # the merton branch dominates on the whole start box
        for xi in (0.5, 1.0, 2.0):
            assert m(0.0, [xi]) == w1(0.0, [xi])
        pol = m.policy_factory(0.0, np.array([1.0]))
        assert pol(0.0, [1.0])[0] == pytest.approx(5.0)
        rep = hk.certify_subsolution(m, merton_problem, cert_config)
        assert rep.certified

    def test_min_of_supers(self, merton_problem, cert_config):
        w1 = merton_candidate("super")
        big = constant_candidate(50.0, "super", growth_constant=100.0)
        m = lattice_min(w1, big)
        for xi in (0.5, 1.0, 2.0):
            assert m(0.0, [xi]) == w1(0.0, [xi])
        rep = hk.certify_supersolution(m, merton_problem, cert_config, n_random=2)
        assert rep.certified

    def test_kind_mismatch_rejected(self):
        sub = merton_candidate("sub")
        sup = merton_candidate("super")
        with pytest.raises(ValueError):
            lattice_max(sub, sup)
        with pytest.raises(ValueError):
            lattice_min(sup, sub)

    def test_lattice_bounds_combine(self):
        a = constant_candidate(0.1, "sub", growth_constant=2.0, policy=constant_policy([1.0]))
        b = constant_candidate(0.2, "sub", growth_constant=3.0, policy=constant_policy([4.0]))
        m = lattice_max(a, b)
        assert m.growth_constant == 3.0
        c = constant_candidate(0.3, "super", growth_constant=5.0)
        d = constant_candidate(0.4, "super", growth_constant=4.0)
        m = lattice_min(c, d)
        assert m.growth_constant == 5.0
        assert m.name == "min(constant(0.3), constant(0.4))"
        assert m.policy_factory is None


def _bracket_point(sub, mean, super_):
    return certify.BracketPoint(0.0, (1.0,), sub, super_, (ValueEstimate(mean, 0.5, 0.0, 100),), 1.0, True)


@pytest.mark.parametrize("point, edge", [
    (lambda v: _bracket_point(v, 1.0, 10.0), 1.0 + 0.5 + certify._BRACKET_TOL),
    (lambda v: _bracket_point(0.0, v, 1.0), 1.0 + 0.5 + certify._BRACKET_TOL),
    (lambda v: _bracket_point(v, 1.0, 1.0), 1.0 + certify._BRACKET_TOL),
], ids=["sub-above-mc-upper-bound", "mc-above-super-plus-half-width", "sub-above-super"])
def test_bracket_point_ok_fails_just_past_each_tolerance_edge(point, edge):
    """Each comparison of BracketPoint.ok holds at its edge and fails one ulp past it."""
    assert point(edge).ok
    assert not point(np.nextafter(edge, np.inf)).ok


class TestBracket:
    def test_zero_gap_at_exact_candidate(self, merton_problem, cert_config):
        sub = merton_candidate("sub")
        sup = merton_candidate("super")
        sub_rep = hk.certify_subsolution(sub, merton_problem, cert_config)
        sup_rep = hk.certify_supersolution(sup, merton_problem, cert_config, n_random=2)
        rep = bracket_report(
            sub, sup, merton_problem, [(0.0, [1.0])], BracketConfig(n_paths=40_000, seed=2),
            sub_rep, sup_rep,
        )
        pt = rep.points[0]
        assert pt.gap == 0.0
        assert pt.ok
        assert abs(pt.mc.mean - math.exp(0.125)) <= 2 * pt.mc.half_width_95

    def test_constant_sandwich(self, merton_problem, cert_config):
        sub = constant_candidate(0.5, "sub", growth_constant=1.0)
        sup = constant_candidate(3.0, "super", growth_constant=5.0)
        sub_rep = hk.certify_subsolution(sub, merton_problem, cert_config)
        sup_rep = hk.certify_supersolution(sup, merton_problem, cert_config, n_random=2)
        rep = bracket_report(
            sub, sup, merton_problem, [(0.0, [1.0]), (0.5, [1.5])],
            BracketConfig(n_paths=5_000, seed=3), sub_rep, sup_rep,
        )
        assert rep.ok
        assert rep.max_gap == 2.5

    def test_closed_form_gap_matches_analytics(self, merton_problem, cert_config):
        delta = 0.05
        sub = merton_candidate("sub")
        sup = merton_candidate("super", exponent_shift=delta)
        sub_rep = hk.certify_subsolution(sub, merton_problem, cert_config)
        sup_rep = hk.certify_supersolution(sup, merton_problem, cert_config, n_random=2)
        pts = [(0.0, [1.0]), (0.25, [0.8]), (0.5, [1.7])]
        rep = bracket_report(sub, sup, merton_problem, pts, BracketConfig(n_paths=4_000, seed=4),
                             sub_rep, sup_rep)
        for (t, x), pt in zip(pts, rep.points):
            lam = 0.125
            analytic = x[0] ** 0.5 * (math.exp((lam + delta) * (1 - t)) - math.exp(lam * (1 - t)))
            assert pt.gap == pytest.approx(analytic, abs=1e-12)

    def test_uncertified_inputs_rejected(self, merton_problem, cert_config):
        # above the payoff on the whole start box at T: its terminal record fails on every draw
        sub = constant_candidate(5.0, "sub", growth_constant=10.0)
        sup = merton_candidate("super")
        bad_rep = hk.certify_subsolution(sub, merton_problem, cert_config)
        sup_rep = hk.certify_supersolution(sup, merton_problem, cert_config, n_random=2)
        assert not bad_rep.certified
        assert [r.kind for r in bad_rep.failing()] == ["terminal"]
        with pytest.raises(ValueError, match="not certified"):
            bracket_report(sub, sup, merton_problem, [(0.0, [1.0])], BracketConfig(),
                           bad_rep, sup_rep)

    @pytest.mark.parametrize("slot", ["sub", "super"])
    @pytest.mark.parametrize("swapped", ["candidate", "report"])
    def test_a_candidate_or_report_of_the_other_side_is_refused(self, merton_problem, slot, swapped):
        """A super candidate or report in the sub slot, or the reverse, made a
        sandwich that bounds nothing, or died in the sub side's policy factory."""
        side = {s: ("super" if s == "sub" else "sub") if s == slot else s for s in ("sub", "super")}
        candidates = [constant_candidate(1.0, side[s] if swapped == "candidate" else s, 2.0) for s in side]
        reports = [CertificationReport(s, side[s] if swapped == "report" else s, (), 4.0, 0.0, 1, 0) for s in side]
        with pytest.raises(ValueError, match=f"the {slot} side needs a {slot} candidate and report"):
            bracket_report(*candidates, merton_problem, [(0.0, [1.0])], BracketConfig(n_paths=10, n_steps=2),
                           *reports)


class TestOrderingInvariant:
    def test_certified_sub_below_certified_super(self, merton_problem, cert_config):
        subs = [merton_candidate("sub"), constant_candidate(0.5, "sub", growth_constant=1.0)]
        sups = [merton_candidate("super", exponent_shift=0.02),
                constant_candidate(3.0, "super", growth_constant=5.0)]
        rng = np.random.default_rng(6)
        pts = [(rng.uniform(0, 1), [rng.uniform(0.5, 2.0)]) for _ in range(25)]
        for sub in subs:
            for sup in sups:
                for t, x in pts:
                    assert sub(t, x) <= sup(t, x) + 1e-9


@pytest.mark.parametrize("field", ["budget", "n_starts", "steps_per_record"])
@pytest.mark.parametrize("value", [0, -1])
def test_count_below_one_is_config_error(field, value):
    """n_starts = 0 used to divide by zero, and budget <= 0 certified on 16 paths a record."""
    with pytest.raises(hk.ConfigurationError, match=field):
        hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), **{field: value})


@pytest.mark.parametrize("box, message", [
    (hk.Box([0.5], [math.inf]), r"start_box \[\[0.5, inf\]\] must have finite edges"),
    (hk.Box([-0.2], [2.0]), r"start_box \[\[-0.2, 2.0\]\] must lie inside the state domain"),
    (hk.Box([0.5, 0.5], [2.0, 2.0]), r"start_box \[\[0.5, 2.0\], \[0.5, 2.0\]\]: 2 dimensions"),
], ids=["infinite-edge", "leaves-the-domain", "two-dimensional"])
@pytest.mark.parametrize("side", ["sub", "super"])
def test_a_battery_refuses_a_start_box_before_any_draw(merton_problem, monkeypatch, side, box, message):
    """A start box with an infinite edge died in Generator.uniform, and one that
    left (0, inf) certified or raised a DomainError, by seed: the grid box's rule
    now holds for it."""
    monkeypatch.setattr(certify.np.random, "Generator", None)
    candidate = merton_candidate(side)
    battery = certify.certify_subsolution if side == "sub" else certify.certify_supersolution
    with pytest.raises(hk.ConfigurationError, match=message):
        battery(candidate, merton_problem, hk.CertifyConfig(start_box=box, budget=500))


def tensor_values_at_stops(candidate, times, states, rho_spec, tau, horizon, xi, radius):
    """The stop rule on whole paths, states (n_paths, n_steps+1, d): the
    candidate's value at each path's end rule, the paths stopping at one time
    index evaluated in one call."""
    n_paths, n_steps = states.shape[0], len(times) - 1
    if rho_spec == "plus_eighth":
        rho = min(tau + horizon / 8.0, horizon)
        idx = np.full(n_paths, int(round((rho - tau) / (times[-1] - times[0]) * n_steps)), dtype=int)
    elif rho_spec == "terminal":
        idx = np.full(n_paths, n_steps, dtype=int)
    else:
        outside = np.max(np.abs(states - xi), axis=2) > radius  # (n_paths, n_steps+1)
        idx = np.where(outside.any(axis=1), outside.argmax(axis=1), n_steps)
    out = np.empty(n_paths)
    for k in np.unique(idx):
        mask = idx == k
        out[mask] = candidate.evaluator(times[k], states[mask, k, :])
    return out


def whole_paths(problem, policy, tau, xi, n_paths, n_steps, seed):
    """The ensemble of one start with every step kept, and its (n_paths, n_steps+1, d) paths."""
    ens = hk.simulate_paths(problem, policy, tau, xi, n_paths, n_steps, seed, stops=range(n_steps + 1))
    return ens, ens.states[:, :-1]


def reference_martingale_records(candidate, problem, config, policy_for, adversary_tag, direction):
    """The battery one record at a time on whole paths: one ensemble per (tau,
    start), seeded (seed, ridx, crc32("companion")) with ridx the index of its
    first record, whatever the adversary, each record's stderr from its
    antithetic pair means.  Also gives the exit fraction of each ensemble."""
    T = problem.horizon
    radius = certify._BALL_RADIUS_FRACTION * float(np.max(config.start_box.hi - config.start_box.lo))
    rho_specs = ["plus_eighth", "terminal", "ball_exit"]
    starts = certify._draw_starts(config, config.n_starts)
    n_paths = max(16, config.budget // (len(certify._taus(T)) * len(rho_specs) * len(starts)))
    n_paths -= n_paths % 2
    tag_key = zlib.crc32(b"companion")
    records, exits = [], []
    ridx = 0
    for tau in certify._taus(T):
        for xi in starts:
            ens, states = whole_paths(problem, policy_for(tau, xi), tau, xi, n_paths, config.steps_per_record,
                                      (config.seed, ridx, tag_key))
            exits.append(ens.exit_fraction)
            for rho_spec in rho_specs:
                w_end = tensor_values_at_stops(candidate, ens.times, states, rho_spec, tau, T, xi, radius)
                w_start = candidate(tau, xi)
                diff = w_end - w_start if direction > 0 else w_start - w_end
                margin = float(np.mean(diff))
                # path j + n/2 ran on the negated noise of path j: the se of the n/2 pair means, and
                # Hall's skewness-corrected statistic with |g| capped at sqrt(n/2) / (2 z)
                h = n_paths // 2
                pairs = (diff[:h] + diff[h:]) / 2
                se = float(np.std(pairs, ddof=1) / np.sqrt(h))
                if se == 0.0:
                    passed = margin >= -config.tol
                else:
                    g = float(np.mean((pairs - pairs.mean()) ** 3) / np.mean((pairs - pairs.mean()) ** 2) ** 1.5)
                    g = float(np.clip(g, -np.sqrt(h) / (2 * config.z), np.sqrt(h) / (2 * config.z)))
                    d = (margin + config.tol) / (se * np.sqrt(h))
                    passed = bool(np.sqrt(h) * (d + g * d ** 2 / 3 + g ** 2 * d ** 3 / 27 + g / (6 * h)) >= -config.z)
                records.append(certify.TestRecord("martingale", tau, rho_spec, tuple(xi), adversary_tag, margin, se,
                                          n_paths, passed))
                ridx += 1
    return records, exits


def _assert_battery_equals_reference(candidate, problem, config, policies, direction):
    """The battery of (tag, policy factory) pairs against the references of its policies, one after the other."""
    got = certify._martingale_records(candidate, problem, config, policies, direction)
    want, exits = [], []
    for tag, policy_for in policies:
        records, policy_exits = reference_martingale_records(candidate, problem, config, policy_for, tag, direction)
        want += records
        exits += policy_exits
    assert [repr(r) for r in got] == [repr(r) for r in want]   # repr: bitwise floats, nan included
    return exits


class TestBatchedBatteryEqualsReference:
    """One ensemble per tau over all policies and starts gives every record the bits of one ensemble per record."""

    def test_companion_sub_battery(self, merton_problem):
        config = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=6_000, seed=11)
        cand = merton_candidate("sub")
        _assert_battery_equals_reference(cand, merton_problem, config, [("companion", cand.policy_factory)], +1)

    def test_super_battery_with_corners_staircases_and_grid_table(self, merton_problem, coarse_merton_solution):
        config = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=6_000, n_starts=4, seed=12)
        cand = merton_candidate("super", exponent_shift=0.01)
        policies = certify._build_adversaries(merton_problem, 3, 2, (hk.extract_policy(coarse_merton_solution),))
        assert [tag.split(" ")[0] for tag, _ in policies] == [
            "corner", "corner", "random-staircase-0", "random-staircase-1", "extra-0"]
        _assert_battery_equals_reference(
            cand, merton_problem, config, [(tag, lambda tau, xi, _p=pol: _p) for tag, pol in policies], -1)

    def test_lattice_max_switching_policy_per_start(self, merton_problem):
        config = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=6_000, n_starts=5, seed=13)
        cand = lattice_max(merton_candidate("sub"),
                           constant_candidate(1.0, "sub", 2.0, policy=constant_policy([1.0])))
        starts = certify._draw_starts(config, config.n_starts)
        chosen = [cand.policy_factory(0.0, xi) for xi in starts]
        assert len({id(p) for p in chosen}) == 2
        _assert_battery_equals_reference(cand, merton_problem, config, [("companion", cand.policy_factory)], +1)

    def test_solver_candidate_in_a_simulation_box(self, merton_problem, coarse_merton_solution):
        config = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=6_000, seed=14)
        cand = candidate_from_solution(coarse_merton_solution, "sub", 10.0)
        problem = merton_problem.within(hk.Box([0.4], [2.5]))
        exits = _assert_battery_equals_reference(cand, problem, config, [("companion", cand.policy_factory)], +1)
        assert max(exits) > 0.0

    def test_generic_euler_branch(self):
        problem = hk.proportional_control_problem(mu=0.5, sigma=1.0, bound=1.0)
        assert not _use_log_coordinates(problem)
        clip = FeedbackPolicy(lambda t, x: np.clip(x, -1.0, 1.0))
        cand = companion_candidate(lambda t, X: np.tanh(X[:, 0]) - t, "sub", 2.0, clip, "tanh")
        config = hk.CertifyConfig(start_box=hk.Box([-0.5], [0.5]), budget=6_000, seed=15)
        _assert_battery_equals_reference(cand, problem, config, [("companion", cand.policy_factory)], +1)


@pytest.mark.parametrize("n_random, extra", [(0, 0), (3, 0), (3, 2)])
def test_a_super_battery_draws_once_a_tau_and_start(merton_problem, coarse_merton_solution, noise_draws, n_random,
                                                    extra):
    """2 + n_random + extra adversaries draw len(taus) x n_starts times, on the companion's keys."""
    config = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=2_000, steps_per_record=8, seed=17)
    extras = (hk.extract_policy(coarse_merton_solution), constant_policy([-3.0]))[:extra]
    rep = hk.certify_supersolution(merton_candidate("super"), merton_problem, config, extras, n_random=n_random)
    n_draws = len(certify._taus(merton_problem.horizon)) * config.n_starts
    assert len(rep.records) == (2 + n_random + extra) * n_draws * len(certify._RHO_SPECS) + 2
    companion_keys = [(17, 3 * r, zlib.crc32(b"companion")) for r in range(n_draws)]
    assert [seed for _, seed in noise_draws] == companion_keys
    noise_draws.clear()
    hk.certify_subsolution(merton_candidate("sub"), merton_problem, config)
    assert [seed for _, seed in noise_draws] == companion_keys


def test_adversaries_with_one_constant_control_give_equal_records(merton_problem):
    """The corner 10 and two extra constants 10 run on one draw a (tau, start):
    their records differ in the adversary's name only."""
    config = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=6_000, seed=19)
    rep = hk.certify_supersolution(merton_candidate("super", exponent_shift=-0.02), merton_problem, config,
                                   (constant_policy([10.0]), constant_policy([10.0])), n_random=0)
    by_tag = {}
    for r in rep.records:
        if r.kind == "martingale":
            by_tag.setdefault(r.adversary, []).append(repr(replace(r, adversary="-")))
    assert list(by_tag) == ["corner [-10.0]", "corner [10.0]", "extra-0 (constant)", "extra-1 (constant)"]
    assert by_tag["corner [10.0]"] == by_tag["extra-0 (constant)"] == by_tag["extra-1 (constant)"]
    assert by_tag["corner [-10.0]"] != by_tag["corner [10.0]"]


@pytest.mark.parametrize("box", [None, hk.Box([0.7], [1.6])], ids=["domain", "simulation-box"])
def test_values_at_stops_equal_the_whole_path_reference(box, merton_problem, coarse_merton_solution):
    """Each end rule's values, from the stops of one streamed run, against the
    stop rule read off whole paths; the box freezes some paths before their ball exit."""
    cand, policy = candidate_from_solution(coarse_merton_solution, "sub", 10.0), hk.extract_policy(coarse_merton_solution)
    problem = merton_problem if box is None else merton_problem.within(box)
    T, radius, n_steps = problem.horizon, 0.3, 24
    for tau, xi in [(0.0, np.array([1.0])), (0.5, np.array([1.3]))]:
        ens = hk.simulate_paths(problem, policy, tau, xi, 2_000, n_steps, (3, 1),
                                certify._stops(tau, T, n_steps, radius))
        full, states = whole_paths(problem, policy, tau, xi, 2_000, n_steps, (3, 1))
        assert 0 < np.mean(ens.stop_step[:, 2] >= 0) < 1
        assert (full.exit_fraction > 0.0) == (box is not None)
        got = certify._values_at_stops(cand, ens)
        for rho_spec, values in zip(certify._RHO_SPECS, got):
            want = tensor_values_at_stops(cand, full.times, states, rho_spec, tau, T, xi, radius)
            assert np.array_equal(values, want)


def test_ball_exit_of_a_two_d_battery_equals_the_max_norm_form():
    """The certifier's ball_exit, (|X - X0| > radius).any(axis=1), stops each
    path of a 2-D battery at the step of the max-norm form it replaced."""
    problem = hk.constant_coefficient_problem([0.3, -0.1], [[1.0, 0.2], [0.0, 0.5]])
    tau, n_steps, radius = 0.25, 24, 0.3
    stops = certify._stops(tau, problem.horizon, n_steps, radius)

    def max_norm_exit(X, X0):
        return np.max(np.abs(X - X0), axis=1) > radius

    args = (problem, constant_policy([0.0]), tau, [[0.1, 0.2], [-0.3, 0.0], [0.4, -0.2]], 2_000, n_steps,
            [(5, i) for i in range(3)])
    got = hk.simulate_paths(*args, stops=stops)
    want = hk.simulate_paths(*args, stops=stops[:2] + (max_norm_exit,))
    assert 0.0 < np.mean(got.stop_step[:, 2] >= 0) < 1.0
    assert np.array_equal(got.stop_step, want.stop_step)
    assert np.array_equal(got.states, want.states)


def _per_path_candidate(kind, solution, tmp_path):
    if kind == "closed-form":
        return merton_candidate("sub")
    if kind == "constant":
        return constant_candidate(1.5, "super", 2.0)
    if kind == "grid-table":
        grid = hk.log_grid(0.2, 5.0, 33)
        (tmp_path / "g.csv").write_text(hk.GridFunction(grid, np.sqrt(grid.axes[0])).to_csv())
        return specio.candidate_from_spec({"kind": "grid-table", "csv": "g.csv", "side": "sub",
                                           "growth_constant": 2.0}, str(tmp_path))
    if kind == "from-solution":
        return candidate_from_solution(solution, "sub", 10.0)
    if kind == "lattice_max":
        return lattice_max(merton_candidate("sub"), candidate_from_solution(solution, "sub", 10.0))
    return lattice_min(merton_candidate("super", exponent_shift=0.01), candidate_from_solution(solution, "super", 10.0))


@pytest.mark.parametrize("kind", ["closed-form", "constant", "grid-table", "from-solution", "lattice_max",
                                  "lattice_min"])
def test_per_path_times_equal_one_scalar_time_per_row(kind, coarse_merton_solution, tmp_path):
    """evaluator(t, X) with one time per row gives, row by row, the bits of a
    call with that row's time as a scalar; the times include the solution's
    time nodes, which pick the slice on either side."""
    cand = _per_path_candidate(kind, coarse_merton_solution, tmp_path)
    rng = np.random.default_rng(21)
    X = rng.uniform(0.3, 4.0, (2_000, 1))
    t = rng.choice(np.concatenate([np.linspace(0.0, 1.0, 49), coarse_merton_solution.times]), len(X))
    got = np.asarray(cand.evaluator(t, X), dtype=float)
    want = np.array([cand.evaluator(s, X[k:k + 1])[0] for k, s in enumerate(t)])
    assert got.shape == (len(X),)
    assert got.tobytes() == want.tobytes()


def test_values_at_stops_makes_one_evaluator_call_per_end_rule(merton_problem):
    base = merton_candidate("sub")
    calls = []

    def counting(t, X):
        calls.append((np.shape(t), X.shape))
        return base.evaluator(t, X)

    cand = replace(base, evaluator=counting)
    T, n_steps, n_paths = merton_problem.horizon, 24, 500
    starts = np.array([[0.8], [1.2], [1.7]])
    ens = hk.simulate_paths(merton_problem, [base.policy_factory(0.0, xi) for xi in starts], 0.0, starts,
                            n_paths, n_steps, [(5, s) for s in range(3)], certify._stops(0.0, T, n_steps, 0.3))
    for block in ens.blocks():
        # the ball exits spread over many steps, one evaluator call each before
        assert len(np.unique(block.stop_step[:, 2])) > 3
        calls.clear()
        certify._values_at_stops(cand, block)
        assert calls == [((n_paths,), (n_paths, 1))] * len(certify._RHO_SPECS)


def test_bracket_shared_draw_equals_one_draw_per_policy(merton_problem, coarse_merton_solution, monkeypatch):
    """Every policy of a bracket point runs on one (seed, j) draw, with the bits of its own call."""
    sub, sup = merton_candidate("sub"), merton_candidate("super", exponent_shift=0.01)
    extra = (hk.extract_policy(coarse_merton_solution), constant_policy([-3.0]))
    cfg = BracketConfig(n_paths=3_000, n_steps=24, seed=8, extra_policies=extra)
    pts = [(0.0, [1.0]), (0.25, [0.8]), (0.5, [1.5])]
    seen = []

    def recording(ens, payoff):
        seen.append(hk.estimate_value(ens, payoff))
        return seen[-1]

    monkeypatch.setattr(certify, "estimate_value", recording)
    passed = (CertificationReport("sub", "sub", (), 4.0, 1e-9, 1, 0),
              CertificationReport("super", "super", (), 4.0, 1e-9, 1, 0))
    rep = bracket_report(sub, sup, merton_problem, pts, cfg, *passed)
    want = []
    for j, (t, x) in enumerate(pts):
        ests = [hk.estimate_value(hk.simulate_paths(merton_problem, pol, t, x, cfg.n_paths, cfg.n_steps,
                                                    (cfg.seed, j)), merton_problem.payoff)
                for pol in (sub.policy_factory(t, np.asarray(x)), *extra)]
        want.extend(ests)
        assert rep.points[j].mc == max(ests, key=lambda e: e.mean)
    assert seen == want


def test_bracket_peak_memory_with_two_extra_policies(merton_problem, coarse_merton_solution):
    """A point holds one noise array and the terminal states of its k + 1 policies."""
    sub, sup = merton_candidate("sub"), merton_candidate("super", exponent_shift=0.01)
    extra = (hk.extract_policy(coarse_merton_solution), constant_policy([-3.0]))
    # enough steps that the noise outweighs the O(paths) scratch of the Euler loop
    cfg = BracketConfig(n_paths=20_000, n_steps=300, seed=8, extra_policies=extra)
    passed = (CertificationReport("sub", "sub", (), 4.0, 1e-9, 1, 0),
              CertificationReport("super", "super", (), 4.0, 1e-9, 1, 0))
    pts = [(0.0, [1.0]), (0.25, [0.8]), (0.5, [1.5])]
    bracket_report(sub, sup, merton_problem, pts[:1], replace(cfg, n_paths=10, n_steps=2), *passed)
    tracemalloc.start()
    try:
        bracket_report(sub, sup, merton_problem, pts, cfg, *passed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise_bytes = cfg.n_paths * cfg.n_steps * merton_problem.noise_dim * 8
    terminal_bytes = cfg.n_paths * merton_problem.state_dim * 8
    assert peak <= 1.15 * ((1 + len(extra)) * terminal_bytes + noise_bytes)


@pytest.mark.parametrize("field, value", [("n_paths", 1), ("n_paths", 0), ("n_paths", -5), ("n_steps", 0)])
def test_bracket_count_out_of_range_is_config_error(field, value):
    """One path gave a zero half-width, so the sandwich compared with no margin at all."""
    with pytest.raises(hk.ConfigurationError, match=field):
        BracketConfig(**{field: value})


@pytest.mark.parametrize("growth", [math.inf, math.nan, -0.5])
def test_candidate_growth_constant_must_be_finite_and_at_least_0(growth):
    """An infinite growth constant passed every growth record with margin inf."""
    with pytest.raises(hk.ConfigurationError, match=f"growth_constant must be finite and at least 0, not {growth!r}"):
        constant_candidate(1.0, "super", growth_constant=growth)


class TestAntitheticRecords:
    """Each record reads its n_paths differences in antithetic order: the mean
    over all of them, the standard error of the n/2 pair means, and a verdict
    corrected for their skewness."""

    @staticmethod
    def _plain_rejects(diff, z):
        pairs = (diff[:len(diff) // 2] + diff[len(diff) // 2:]) / 2
        return np.mean(diff) < -z * np.std(pairs, ddof=1) / np.sqrt(len(pairs))

    def test_without_skew_the_verdict_is_margin_against_z_stderr_plus_tol(self):
        rng = np.random.default_rng(3)
        half = rng.standard_normal(50)
        for shift in np.linspace(-0.6, 0.2, 41):
            # symmetric pair means: half and its mirror image about their mean
            first = np.concatenate([half, 2 * half.mean() - half]) + shift
            diff = np.concatenate([first, first])
            margin, se, passed = certify._martingale_test(diff, 4.0, 0.01)
            assert (margin, se) == (float(np.mean(diff)), certify._stderr(certify._pair_means(diff)))
            assert passed == (margin >= -(4.0 * se + 0.01)) or abs(margin + 4.0 * se + 0.01) < 1e-12

    def test_the_verdict_is_monotone_in_the_margin(self):
        """The correction never lets a larger violation pass."""
        rng = np.random.default_rng(4)
        w = rng.standard_normal(69)
        base = np.concatenate([np.exp(0.5 * w), np.exp(-0.5 * w)]) - math.exp(0.125)
        verdicts = [certify._martingale_test(base + shift, 4.0, 0.0)[2] for shift in np.linspace(-1.0, 0.1, 221)]
        assert verdicts == sorted(verdicts) and not verdicts[0] and verdicts[-1]

    @staticmethod
    def _record_at(pairs, t):
        """The verdict at z = 4, tol 0 on a block whose n pair means are `pairs`
        moved to the statistic t = mean / stderr."""
        unit = (pairs - pairs.mean()) / (np.std(pairs, ddof=1) / np.sqrt(len(pairs))) + t
        margin, se, passed = certify._martingale_test(np.concatenate([unit, unit]), 4.0, 0.0)
        assert margin == pytest.approx(t) and se == pytest.approx(1.0)
        return passed

    def test_a_right_skewed_violation_of_6_standard_errors_is_rejected(self):
        """69 pair means at exponential quantiles raised to 1.15, sample skewness
        2.02: uncapped, the correction rejected only t < -8.7; with |g| capped at
        sqrt(69) / 8 = 1.04, t = -6 and t = -5 are rejected."""
        pairs = (-np.log1p(-(np.arange(69) + 0.5) / 69)) ** 1.15
        centred = pairs - pairs.mean()
        assert np.mean(centred ** 3) / np.mean(centred ** 2) ** 1.5 == pytest.approx(2.02, abs=0.01)
        assert [self._record_at(pairs, t) for t in (-6.0, -5.0, -4.0)] == [False, False, True]

    @pytest.mark.parametrize("n", [8, 69, 694, 1388])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("sign", [1, -1], ids=["right-skew", "left-skew"])
    def test_the_threshold_lies_between_0_86_and_1_24_z_whatever_the_skew(self, n, sigma, sign):
        pairs = sign * np.random.default_rng(7).lognormal(0.0, sigma, n)
        assert not self._record_at(pairs, -1.3 * 4.0) and self._record_at(pairs, -0.8 * 4.0)

    def test_right_skewed_pair_means_keep_the_level(self):
        """Antithetic pair means of a convex payoff, cosh(W / 2) here, are skewed
        to the right.  Over 4,000 samples of 69 pairs with a true mean of 0, the
        plain statistic rejected 33 at z = 4, where Phi(-4) predicts 0.13 and 138
        independent draws gave 2; the corrected one rejects 11, and 3 without
        its cap on |g|, which the test above needs."""
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4_000, 69))
        values = np.concatenate([np.exp(0.5 * w), np.exp(-0.5 * w)], axis=1) - math.exp(0.125)
        plain = sum(self._plain_rejects(v, 4.0) for v in values)
        corrected = sum(not certify._martingale_test(v, 4.0, 0.0)[2] for v in values)
        assert plain > 30 and corrected <= plain / 3, (plain, corrected)

    def test_an_exact_martingale_certifies_on_a_small_budget(self, merton_problem):
        """At budget 5,000 (69 pairs a record) the plain statistic rejected the
        exact Merton sub candidate on 13 of seeds 0-99."""
        failed = [seed for seed in range(100) if not hk.certify_subsolution(
            merton_candidate("sub"), merton_problem,
            hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=5_000, seed=seed)).certified]
        assert len(failed) <= 2, failed

    @pytest.mark.parametrize("budget, n_paths", [(50_000, 1_388), (100_000, 2_776), (100, 16), (1, 16)])
    def test_a_records_path_count_is_rounded_down_to_even(self, merton_problem, budget, n_paths):
        config = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=budget, steps_per_record=1, seed=1)
        rep = hk.certify_subsolution(merton_candidate("sub"), merton_problem, config)
        assert {r.n_paths for r in rep.records if r.kind == "martingale"} == {n_paths}


class TestSandwichAtZ:
    @pytest.mark.parametrize("sub_z, super_z", [(1.96, 1.96), (4.0, 1.96), (1.96, 4.0), (4.0, 4.0)])
    def test_the_half_width_is_the_reports_z_standard_errors(self, merton_problem, sub_z, super_z):
        """Each comparison with the estimate allows the larger of the two
        batteries' z times its standard error; it allowed 1.96 whatever they used."""
        # bracket_report reads only the sides, the verdicts and the z of the two reports
        reports = [CertificationReport(side, side, (), z, 0.0, 1, 0)
                   for side, z in (("sub", sub_z), ("super", super_z))]
        sup = constant_candidate(3.0, "super", growth_constant=5.0)

        def report(sub_value):
            sub = constant_candidate(sub_value, "sub", 2.0, policy=constant_policy([5.0]))
            return bracket_report(sub, sup, merton_problem, [(0.0, [1.0])], BracketConfig(n_paths=4_000, seed=5),
                                  *reports)

        mc = report(0.0).points[0].mc
        # a sub value 3 standard errors above the estimate: past 1.96 of them, within 4
        rep = report(mc.mean + 3 * mc.stderr)
        z = max(sub_z, super_z)
        assert rep.z == rep.points[0].z == z
        assert rep.points[0].mc == mc
        assert rep.points[0].half_width == z * mc.stderr
        assert rep.ok == (z == 4.0)

    @pytest.mark.parametrize("n_paths, message", [(3, "n_paths must be at least 4, not 3"),
                                                  (2, "n_paths must be at least 4, not 2"),
                                                  (5, "n_paths must be even, since paths are drawn in antithetic")])
    def test_a_path_count_without_two_pairs_is_refused(self, n_paths, message):
        with pytest.raises(hk.ConfigurationError, match=message):
            BracketConfig(n_paths=n_paths)


_PASSED = (CertificationReport("sub", "sub", (), 4.0, 1e-9, 1, 0),
           CertificationReport("super", "super", (), 4.0, 1e-9, 1, 0))


class TestLowerBound:
    @pytest.mark.parametrize("z", [0.0, 1.0, 1.96, 4.0, 10.0, 40.0])
    def test_one_estimate_allows_z_itself(self, z):
        point = certify.BracketPoint(0.0, (1.0,), 0.0, 1.0, (ValueEstimate(1.0, 0.25, 0.0, 100),), z, True)
        assert point.z_selected == z
        assert point.half_width == z * 0.25 and point.lower == 1.0 - z * 0.25

    @pytest.mark.parametrize("z, P", [(4.0, 2), (1.96, 3), (4.0, 5), (10.0, 2)])
    def test_lower_is_the_largest_mean_less_z_p_standard_errors(self, z, P):
        """z_P shares the level Phi(-z) among the P estimates; at z = 10 the
        tail is one NormalDist.cdf rounds to 0, and z_P still exceeds z."""
        estimates = tuple(ValueEstimate(1.0 + 0.01 * j, 0.002 * (P - j), 0.0, 100) for j in range(P))
        point = certify.BracketPoint(0.0, (1.0,), 0.0, 2.0, estimates, z, True)
        zp = point.z_selected
        tail = 0.5 * math.erfc(zp / math.sqrt(2.0))
        assert tail == pytest.approx(0.5 * math.erfc(z / math.sqrt(2.0)) / P, rel=1e-9) and zp > z
        assert point.lower == max(e.mean - zp * e.stderr for e in estimates)
        assert point.mc == estimates[-1] and point.half_width == zp * estimates[-1].stderr
        assert point.lower_reason is None

    def test_past_z_38_the_tail_underflows_and_z_is_kept(self):
        estimates = (ValueEstimate(1.0, 0.1, 0.0, 100), ValueEstimate(0.5, 0.1, 0.0, 100))
        assert certify.BracketPoint(0.0, (1.0,), 0.0, 2.0, estimates, 40.0, True).z_selected == 40.0

    def test_the_pipeline_s_two_blocks_at_z_4(self):
        estimates = (ValueEstimate(1.0, 0.1, 0.0, 100), ValueEstimate(0.5, 0.1, 0.0, 100))
        point = certify.BracketPoint(0.0, (1.0,), 0.0, 2.0, estimates, 4.0, True)
        assert point.z_selected == pytest.approx(4.1611, abs=1e-4)

    def _point(self, problem, extra=()):
        sub = constant_candidate(0.0, "sub", 2.0, policy=constant_policy(np.minimum(problem.controls.hi, 0.5)))
        sup = constant_candidate(10.0, "super", 20.0)
        cfg = BracketConfig(n_paths=2_000, n_steps=16, seed=6, extra_policies=extra)
        return bracket_report(sub, sup, problem, [(0.0, [1.0] * problem.state_dim)], cfg, *_PASSED).points[0]

    def test_a_number_for_the_exact_families(self, merton_problem, coarse_merton_solution):
        for problem, extra in ((merton_problem, (hk.extract_policy(coarse_merton_solution),)),
                               (hk.proportional_control_problem(), (constant_policy([-1.0]),)),
                               (hk.heat_problem(dim=2), ())):
            point = self._point(problem, extra)
            assert point.lower_reason is None and point.lower <= point.mc.mean

    def test_none_for_a_custom_family(self, merton_problem):
        """An Euler step of coefficients the simulator cannot read is biased, so its policy prices no bound."""
        point = self._point(replace(merton_problem, family="custom"))
        assert point.lower is None and "not exact" in point.lower_reason
        # the sandwich itself still holds its estimate
        assert point.ok

    def test_none_when_a_path_exits(self, merton_problem):
        """A path stopped at a narrow box pays g at its pre-exit state: another control's price."""
        hold = (constant_policy([0.0]),)
        assert self._point(merton_problem, hold).lower is not None
        narrow = self._point(merton_problem.within(hk.Box([0.9], [1.1])), hold)
        assert narrow.estimates[0].exit_fraction > 0.0 and narrow.estimates[1].exit_fraction == 0.0
        assert narrow.lower is None and narrow.lower_reason == "paths of block 0 left the state domain"


def _digest_session_candidate():
    """The from-solution sub candidate of scripts/artifact_digests.py's Merton session."""
    problem = hk.merton_problem()
    grid = hk.log_grid(0.2, 5.0, 80)
    g = hk.GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))
    config = hk.SchemeConfig(n_time_nodes=20, control_grid_resolution=21, constraint_mode="project")
    return problem, hk.solve_hjb(problem, hk.concave_envelope(g), config)


@pytest.mark.parametrize("budget", [6_000, 60_000])
def test_solver_candidate_certifies_between_time_nodes(budget):
    """The candidate read the latest time node at or before t, high by up to one
    slice for a value that falls in t: the record at tau 0.25 (node 0.21),
    plus_eighth, x 1.98 failed with margin -0.0047 at budget 6,000, and four
    records failed at 60,000.  Linear in t between the nodes, it certifies."""
    problem, solution = _digest_session_candidate()
    cand = candidate_from_solution(solution, "sub", 10.0)
    rep = hk.certify_subsolution(cand, problem, hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=budget))
    assert rep.certified, [r for r in rep.failing()]


def test_solver_candidate_is_linear_in_t_between_nodes_and_the_slice_at_them(coarse_merton_solution):
    sol = coarse_merton_solution
    cand = candidate_from_solution(sol, "sub", 10.0)
    X = np.array([[0.7], [1.0], [2.3]])
    for n in (0, 7, len(sol.times) - 1):
        assert np.array_equal(cand.evaluator(sol.times[n], X), sol.slice_at(n).interpolate(X))
    t0, t1 = sol.times[3], sol.times[4]
    t = t0 + 0.3 * (t1 - t0)
    v0, v1 = sol.slice_at(3).interpolate(X), sol.slice_at(4).interpolate(X)
    assert np.array_equal(cand.evaluator(t, X), v0 + (t - t0) / (t1 - t0) * (v1 - v0))
    # before the first node and after the last, the end slices
    assert np.array_equal(cand.evaluator(sol.times[0] - 0.5, X), sol.slice_at(0).interpolate(X))
    assert np.array_equal(cand.evaluator(sol.times[-1] + 0.5, X), sol.slice_at(len(sol.times) - 1).interpolate(X))
    # the solve's value and its policy keep the latest node at or before t
    assert sol.value_at(t, [1.0]) == sol.slice_at(3).interpolate([1.0])
    assert np.array_equal(hk.extract_policy(sol)(t, X), hk.extract_policy(sol)(t0, X))


def test_the_second_half_of_a_block_runs_on_the_negated_noise():
    """On a driftless unit diffusion from 0 the Euler sums are odd in the noise,
    so path p + n/2 ends at minus path p, bit for bit, in every block."""
    ens = hk.simulate_paths(hk.heat_problem(), constant_policy([0.0]), 0.0, [[0.0], [0.0]], 2 * 1_030, 7, [3, 4])
    blocks = [block.terminal_states()[:, 0] for block in ens.blocks()]
    for x in blocks:
        assert np.array_equal(x[1_030:], -x[:1_030]) and np.all(x != 0.0)
    assert not np.array_equal(*blocks)

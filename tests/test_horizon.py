"""Action lattice, exact solvers, and the myopic comparison arm."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helios.horizon
from conftest import action_indices, brute_force_optimum, make_problem, random_small_problem
from helios.battery import soc_after, step_soc
from helios.core import (BudgetExceeded, ControlAction, CostParams, InvalidStep,
                         ValidationError)
from helios.costing import step_cost
from helios.evo import AcoParams, EvoParams, aco_solve, eg_solve
from helios.horizon import (DEFAULT_MAX_ENUMERATION, ActionLattice, CandidateSequence,
                            HorizonProblem, _dp_tables, _solve_dp,
                            _solve_enumeration, build_lattice, solve_exact,
                            solve_myopic)

# The five solver entry points the engine reaches.
SOLVERS = [
    pytest.param(solve_exact, id="enumeration"),
    pytest.param(lambda hp: solve_exact(hp, max_enumeration=0), id="dp"),
    pytest.param(solve_myopic, id="myopic"),
    pytest.param(lambda hp: eg_solve(hp, EvoParams(population=10, generations=3)),
                 id="eg"),
    pytest.param(lambda hp: aco_solve(hp, AcoParams(ants=5, iterations=3)),
                 id="aco"),
]


def reference_dp(hp, soc_grid_step):
    """Per-stage DP: the SOC successors and the whole step cost, per stage.

    The step cost is summed battery + backup + under + over, and the first
    step is priced from the exact soc0. Returns the grid's values and
    policy, the plan and its cost.
    """
    bp, cp = hp.battery, hp.costs
    p_ch, p_dis = hp.lattice.p_ch, hp.lattice.p_dis
    grid = np.arange(bp.soc_min, bp.soc_max + soc_grid_step / 2, soc_grid_step)

    def snap(soc):
        k = np.floor((soc - bp.soc_min) / soc_grid_step + 0.5).astype(np.int64)
        return np.clip(k, 0, len(grid) - 1)

    def stage(t, soc_next):
        return (cp.c_bat * p_dis * bp.dt
                + cp.c_backup * np.maximum(
                    0.0, hp.window.load[t] - (hp.forecast[t] + p_dis - p_ch)) * bp.dt
                + cp.q_under * np.maximum(0.0, bp.soc_min - soc_next)
                + cp.r_over * np.maximum(0.0, soc_next - bp.soc_max))

    n = hp.n_steps
    values = np.empty((n + 1, len(grid)))
    values[n] = hp.terminal_soc_value * (bp.soc_max - grid)
    policy = np.zeros((n, len(grid)), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        soc_next = soc_after(bp, grid[:, None], p_ch, p_dis)
        q = stage(t, soc_next) + values[t + 1][snap(soc_next)]
        policy[t] = np.argmin(q, axis=1)
        values[t] = q[np.arange(len(grid)), policy[t]]
    soc_next0 = soc_after(bp, hp.soc0, p_ch, p_dis)
    q0 = stage(0, soc_next0) + values[1][snap(soc_next0)]
    idx = [int(np.argmin(q0))]
    node = int(snap(soc_next0[idx[0]]))
    for t in range(1, n):
        idx.append(int(policy[t][node]))
        node = int(snap(soc_after(bp, grid[node], p_ch[idx[-1]], p_dis[idx[-1]])))
    return values, policy, q0.min(), idx, hp.cost_of([hp.lattice.actions[i] for i in idx])


def reference_enumeration(hp, chunk=2048):
    """Mixed-radix chunked scan: every sequence priced from scratch by costs_of.

    Sequence number k in lexicographic order has digit t equal to
    (k // n_actions**(n_steps-1-t)) % n_actions. np.argmin picks the first
    minimum within a chunk, and strict < keeps the earliest across chunks.
    Returns the plan's action indices and its cost.
    """
    n_actions = len(hp.lattice)
    n_sequences = n_actions ** hp.n_steps
    radix = n_actions ** np.arange(hp.n_steps - 1, -1, -1, dtype=np.int64)
    best_cost, best_idx = np.inf, None
    for start in range(0, n_sequences, chunk):
        stop = min(start + chunk, n_sequences)
        idx = (np.arange(start, stop, dtype=np.int64)[:, None] // radix) % n_actions
        costs = hp.costs_of(idx)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost, best_idx = float(costs[i]), idx[i].tolist()
    return best_idx, best_cost


class TestBuildLattice:
    def test_reference_sizes(self):
        # 1000/50 = 20 charge levels, 100/50 = 2 discharge levels, plus idle
        lat = build_lattice(1000.0, 100.0, 50.0)
        assert lat.levels_ch == 20
        assert lat.levels_dis == 2
        assert len(lat) == 23
        assert lat.actions[0] == ControlAction()

    def test_step_equal_to_max_gives_single_level(self):
        lat = build_lattice(100.0, 100.0, 100.0)
        assert lat.levels_dis == 1
        assert lat.actions[-1] == ControlAction(p_dis=100.0)

    def test_last_level_is_exact_maximum(self):
        lat = build_lattice(130.0, 70.0, 50.0)
        ch_levels = [a.p_ch for a in lat.actions if a.p_ch > 0]
        dis_levels = [a.p_dis for a in lat.actions if a.p_dis > 0]
        assert ch_levels == [50.0, 100.0, 130.0]
        assert dis_levels == [50.0, 70.0]

    @pytest.mark.parametrize("bad", [0.0, -25.0])
    def test_nonpositive_step_rejected(self, bad):
        with pytest.raises(InvalidStep):
            build_lattice(100.0, 100.0, bad)


class TestSolveExact:
    def test_one_step_equals_direct_scan(self):
        hp = make_problem([250.0], [100.0], soc0=400.0)
        seq, cost = solve_exact(hp)
        scan = min((hp.cost_of([a]), i) for i, a in enumerate(hp.lattice.actions))
        assert cost == scan[0]
        assert hp.lattice.actions.index(seq[0]) == scan[1]

    def test_two_step_matches_brute_force_exactly(self):
        hp = make_problem([320.0, 180.0], [90.0, 140.0], soc0=300.0)
        seq, cost = solve_exact(hp)
        combo, oracle = brute_force_optimum(hp)
        assert cost == oracle
        assert action_indices(hp, seq) == combo

    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(15):
            hp = random_small_problem(rng)
            seq, cost = solve_exact(hp)
            combo, oracle = brute_force_optimum(hp)
            assert cost == oracle
            assert action_indices(hp, seq) == combo

    def test_zero_cost_certificate_on_surplus_window(self):
        hp = make_problem([100.0, 120.0, 90.0], [200.0, 220.0, 200.0], soc0=500.0)
        _, cost = solve_exact(hp)
        assert cost == 0.0

    def test_lower_bounds_random_sequences(self):
        rng = np.random.default_rng(77)
        hp = random_small_problem(rng)
        _, best = solve_exact(hp)
        n_actions = len(hp.lattice)
        for _ in range(1000):
            idx = rng.integers(0, n_actions, size=hp.n_steps)
            seq = [hp.lattice.actions[int(i)] for i in idx]
            assert hp.cost_of(seq) >= best - 1e-12

    def test_dp_agrees_with_enumeration_within_one_percent(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            hp = random_small_problem(rng)
            _, enum_cost = solve_exact(hp)
            # force the DP path with a fine grid
            _, dp_cost = solve_exact(hp, soc_grid_step=1.0, max_enumeration=0)
            assert dp_cost <= max(enum_cost * 1.01, enum_cost + 1e-6)

    def test_determinism(self):
        hp = make_problem([320.0, 180.0, 260.0], [90.0, 140.0, 10.0], soc0=300.0)
        a = solve_exact(hp)
        b = solve_exact(hp)
        assert a == b

    @pytest.mark.parametrize("chunk", [65536, 16384, 2048, 7, 81])
    def test_chunked_enumeration_keeps_the_first_minimum(self, chunk, monkeypatch):
        monkeypatch.setattr(helios.horizon, "_ENUM_CHUNK", chunk)
        rng = np.random.default_rng(8)
        problems = [random_small_problem(rng) for _ in range(4)]
        # Tie-heavy: with free cycling, 408 of the 6561 sequences share the
        # minimum, and the first of them is sequence number 3699.
        problems.append(make_problem([150.0, 100.0, 250.0, 120.0],
                                     [100.0, 300.0, 150.0, 220.0], soc0=500.0,
                                     costs=CostParams(c_bat=0.0)))
        # Ties coupled through the SOC: the battery affords one 50 kW
        # discharge, in either hour, so the tie set is not a product of
        # per-step sets and only lexicographic order picks (idle, discharge).
        problems.append(make_problem([300.0, 300.0], [0.0, 0.0], soc0=170.0))
        for hp in problems:
            seq, cost = _solve_enumeration(hp)
            combo, oracle = brute_force_optimum(hp)  # itertools.product scan
            assert action_indices(hp, seq) == combo
            assert cost == oracle

    # 23, 12, 6 and 3 actions; loads and renewables from a coarse set make
    # many sequences tie; soc0 reaches far outside the [100, 900] band, so
    # plans pay SOC penalties over several steps.
    @settings(max_examples=80, deadline=None)
    @given(delta_p=st.sampled_from([50.0, 100.0, 250.0, 1000.0]),
           terminal=st.sampled_from([0.0, 0.2, 0.0137]),
           soc0=st.floats(-300.0, 1500.0), data=st.data())
    def test_tree_scan_equals_the_mixed_radix_scan_bit_for_bit(self, delta_p, terminal,
                                                                soc0, data):
        lattice = build_lattice(1000.0, 100.0, delta_p)
        max_steps = max(n for n in range(1, 13) if len(lattice) ** n <= 60_000)
        n = data.draw(st.integers(1, max_steps), label="n_steps")
        power = st.one_of(st.floats(0.0, 700.0), st.sampled_from([0.0, 50.0, 100.0, 250.0]))
        hp = make_problem(data.draw(st.lists(power, min_size=n, max_size=n), label="load"),
                          data.draw(st.lists(power, min_size=n, max_size=n), label="ren"),
                          soc0=soc0, lattice=lattice, terminal_soc_value=terminal)
        seq, cost = _solve_enumeration(hp)
        ref_idx, ref_cost = reference_enumeration(hp)
        assert list(action_indices(hp, seq)) == ref_idx
        assert cost == ref_cost

    @pytest.mark.parametrize("chunk", [2048, 81, 7])
    def test_tree_prices_every_leaf_as_costs_of_in_lexicographic_order(self, chunk,
                                                                       monkeypatch):
        # Records each last-level block the walk takes its argmin over.
        leaves = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argmin(self, a):
                leaves.append(a.ravel().copy())
                return np.argmin(a)

        # Above the band for several steps: every leaf pays SOC penalties.
        hp = make_problem([320.0, 180.0, 40.0, 260.0], [90.0, 140.0, 300.0, 75.5],
                          soc0=1234.5, lattice=build_lattice(1000.0, 100.0, 100.0),
                          terminal_soc_value=0.0137)
        monkeypatch.setattr(helios.horizon, "_ENUM_CHUNK", chunk)
        monkeypatch.setattr(helios.horizon, "np", RecordingNumpy())
        _solve_enumeration(hp)
        idx = np.array(list(itertools.product(range(len(hp.lattice)), repeat=hp.n_steps)))
        assert np.concatenate(leaves).tolist() == hp.costs_of(idx).tolist()

    def test_enumeration_memory_is_bounded_by_the_block_not_the_window(self):
        # 3 actions over 12 steps: 531441 sequences, a frontier block per level.
        hp = make_problem([200.0] * 12, [150.0] * 12, soc0=480.0,
                          lattice=build_lattice(1000.0, 100.0, 1000.0),
                          terminal_soc_value=0.0137)
        assert len(hp.lattice) ** hp.n_steps == 531441
        _ = hp.base_costs, hp.soc_steps  # price the window before tracing the scan
        tracemalloc.start()
        try:
            _solve_enumeration(hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("delta_p, grid_step", [(50.0, 10.0), (10.0, 0.5)],
                             ids=["coarse", "fine"])
    def test_dp_equals_the_per_stage_reference(self, delta_p, grid_step):
        rng = np.random.default_rng(int(delta_p))
        lattice = build_lattice(1000.0, 100.0, delta_p)
        for _ in range(6):
            n = int(rng.integers(1, 8))
            # soc0 off the grid, and sometimes outside the band.
            hp = make_problem(rng.uniform(0.0, 600.0, n).tolist(),
                              rng.uniform(0.0, 700.0, n).tolist(),
                              soc0=float(rng.uniform(50.0, 950.0)), lattice=lattice,
                              terminal_soc_value=float(rng.choice([0.0, 0.2])))
            values, policy, succ = _dp_tables(hp, grid_step)
            ref_values, ref_policy, ref_q0, ref_idx, ref_cost = reference_dp(
                hp, grid_step)
            # Grid rows from stage 1 on, then the soc0 row at stage 0, which
            # is the only row stage 0 solves.
            assert values[1:, :-1].tolist() == ref_values[1:].tolist()
            assert policy[1:, :-1].tolist() == ref_policy[1:].tolist()
            assert values[0, -1] == ref_q0
            assert policy[0, -1] == ref_idx[0]
            seq, cost = _solve_dp(hp, grid_step)
            assert list(action_indices(hp, seq)) == ref_idx
            assert cost == ref_cost

    def test_budget_exceeded_when_dp_table_too_large(self):
        hp = make_problem([100.0] * 3, [0.0] * 3)
        with pytest.raises(BudgetExceeded):
            solve_exact(hp, soc_grid_step=1e-4, max_enumeration=0)


class TestHorizonProblem:
    def test_lattice_arrays_are_cached_and_read_only(self, small_lattice):
        assert small_lattice.p_ch is small_lattice.p_ch
        assert small_lattice.p_ch.tolist() == [a.p_ch for a in small_lattice.actions]
        assert small_lattice.p_dis.tolist() == [a.p_dis for a in small_lattice.actions]
        with pytest.raises(ValueError):
            small_lattice.p_dis[0] = 1.0

    def test_costs_of_matches_cost_of_bit_for_bit(self):
        rng = np.random.default_rng(17)
        hp = make_problem([320.0, 180.0, 40.0], [90.0, 140.0, 300.0], soc0=150.0,
                          terminal_soc_value=0.02)
        idx = rng.integers(0, len(hp.lattice), (200, hp.n_steps))
        want = [hp.cost_of([hp.lattice.actions[int(i)] for i in row]) for row in idx]
        assert hp.costs_of(idx).tolist() == want

    def test_renewables_is_a_copy_of_the_forecast(self):
        hp = make_problem([100.0, 200.0], [50.0, 0.0])
        rens = hp.renewables()
        rens[0] = 999.0
        assert hp.renewables() == [50.0, 0.0]

    @pytest.mark.parametrize("override", [[100.0, float("nan")],
                                          [float("inf"), 0.0],
                                          [100.0, -1.0],
                                          [100.0]],
                             ids=["nan", "inf", "negative", "wrong_length"])
    def test_bad_renewable_override_is_refused_at_construction(self, override):
        with pytest.raises(ValidationError, match="renewable_override"):
            make_problem([200.0, 200.0], override)


# The overflow itself warns; the solvers must then refuse the window.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solve", SOLVERS)
def test_window_without_a_finite_cost_raises_validation_error(solve):
    # 1.7e308 kW loads are finite, but four hours of their backup cost
    # overflow to inf whatever the plan.
    hp = make_problem([1.7e308] * 4, [0.0] * 4)
    hp = replace(hp, window=replace(hp.window, start_hour=5))
    assert len(hp.lattice) ** hp.n_steps <= DEFAULT_MAX_ENUMERATION
    with pytest.raises(ValidationError, match="finite cost.*hour 5"):
        solve(hp)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solve", SOLVERS)
def test_window_with_some_infinite_candidates_is_solved(solve):
    # A 1.7e308 kW charge overflows the SOC penalty, and four hours of its
    # backup cost overflow their sum; idle and discharge plans stay finite,
    # so the up-front refusal must let the window through.
    lattice = ActionLattice(delta_p=50.0, levels_ch=1, levels_dis=1,
                            actions=(ControlAction(), ControlAction(p_ch=1.7e308),
                                     ControlAction(p_dis=50.0)))
    hp = make_problem([300.0] * 4, [0.0] * 4, lattice=lattice)
    out = solve(hp)
    plan = out if isinstance(out, CandidateSequence) else out[0]
    assert math.isfinite(hp.cost_of(plan))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eg_refuses_a_window_without_a_finite_cost_before_pricing_a_candidate(
        monkeypatch):
    hp = make_problem([1.7e308] * 4, [0.0] * 4)
    priced = []
    monkeypatch.setattr(HorizonProblem, "costs_of", lambda self, idx: priced.append(idx))
    with pytest.raises(ValidationError, match="finite cost.*hour 0"):
        eg_solve(hp, EvoParams())
    assert priced == []


@pytest.mark.parametrize("soc0", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("solve", SOLVERS)
def test_non_finite_soc0_is_refused_naming_the_field(solve, soc0):
    # Refused at construction, so no solver path ever prices it.
    with pytest.raises(ValidationError, match=r"HorizonProblem\.soc0"):
        solve(make_problem([300.0, 100.0, 220.0], [0.0, 50.0, 10.0], soc0=soc0))


class TestSolveMyopic:
    def test_one_step_window_coincides_with_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            hp = random_small_problem(rng)
            if hp.n_steps != 1:
                continue
            seq, _ = solve_exact(hp)
            assert tuple(solve_myopic(hp)) == tuple(seq)

    def test_greedy_discharge_loses_to_planner(self):
        # Hour 1 has a small deficit, hour 2 a large one. The battery holds
        # exactly 50 deliverable kWh. Greedy burns it on hour 1 (overshooting
        # the 30 kW deficit with the smallest 50 kW level); the planner saves
        # it for hour 2.
        bp_soc0 = 100.0 + 50.0 / 0.9  # soc_min + 50 kWh deliverable
        hp = make_problem([30.0, 100.0], [0.0, 0.0], soc0=bp_soc0)
        myopic = solve_myopic(hp)
        myopic_cost = hp.cost_of(myopic)
        _, exact_cost = solve_exact(hp)
        combo, oracle = brute_force_optimum(hp)
        assert exact_cost == oracle
        assert myopic_cost > exact_cost

    def test_equals_a_scalar_greedy_reference(self):
        # Each step takes the first action minimising the scalar step cost
        # (plus the terminal term) from the exact SOC, also outside the band.
        # Penalty weights just above c_backup make SOC and backup trade off.
        rng = np.random.default_rng(41)
        for delta, costs in ((50.0, CostParams()),
                             (10.0, CostParams(q_under=0.31, r_over=0.31))):
            for soc0 in (40.0, 500.0, 1300.0):
                n = int(rng.integers(1, 7))
                hp = make_problem(rng.uniform(0.0, 600.0, n).tolist(),
                                  rng.uniform(0.0, 700.0, n).tolist(), soc0=soc0,
                                  lattice=build_lattice(1000.0, 100.0, delta),
                                  costs=costs, terminal_soc_value=0.2)
                bp, soc, want = hp.battery, soc0, []
                for t in range(n):
                    nexts = [step_soc(bp, soc, a) for a in hp.lattice.actions]
                    scores = [step_cost(hp.costs, bp, hp.window.load[t], hp.forecast[t],
                                        a, s).total + 0.2 * (bp.soc_max - s)
                              for a, s in zip(hp.lattice.actions, nexts)]
                    a = int(np.argmin(scores))
                    want.append(hp.lattice.actions[a])
                    soc = nexts[a]
                assert tuple(solve_myopic(hp)) == tuple(want)

    def test_zero_load_window_stays_idle(self):
        hp = make_problem([0.0] * 4, [0.0] * 4)
        assert all(a.is_idle for a in solve_myopic(hp))

    # The closed loop plans myopic_mpc's hour alone; that is sound only if
    # the greedy first action never reads a later hour.
    @settings(max_examples=60, deadline=None)
    @given(delta_p=st.sampled_from([10.0, 50.0, 250.0]), n=st.integers(2, 8),
           soc0=st.floats(-300.0, 1500.0), terminal=st.sampled_from([0.0, 0.2]),
           data=st.data())
    def test_first_action_is_that_of_the_first_hour_alone(self, delta_p, n, soc0,
                                                          terminal, data):
        power = st.floats(0.0, 700.0)
        loads = data.draw(st.lists(power, min_size=n, max_size=n), label="load")
        rens = data.draw(st.lists(power, min_size=n, max_size=n), label="ren")
        lattice = build_lattice(1000.0, 100.0, delta_p)
        window = make_problem(loads, rens, soc0=soc0, lattice=lattice,
                              terminal_soc_value=terminal)
        hour = make_problem(loads[:1], rens[:1], soc0=soc0, lattice=lattice,
                            terminal_soc_value=terminal)
        assert solve_myopic(window)[0] == solve_myopic(hour)[0]

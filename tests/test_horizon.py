"""Action lattice, exact solvers, and the myopic comparison arm."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helios.horizon
from conftest import action_indices, brute_force_optimum, make_problem, random_small_problem
from helios.battery import soc_after, step_soc
from helios.config import Config
from helios.core import (BudgetExceeded, ControlAction, CostParams, InvalidStep,
                         ValidationError)
from helios.costing import soc_penalty, step_cost
from helios.data import SyntheticProfile, generate_synthetic
from helios.engine import _window_problem
from helios.evo import AcoParams, EvoParams, aco_solve, eg_solve
from helios.horizon import (DEFAULT_MAX_ENUMERATION, ActionLattice, CandidateSequence,
                            HorizonProblem, _dp_tables, _solve_dp,
                            _solve_enumeration, build_lattice, solve_exact,
                            solve_myopic)
from helios.renewable import predict_series

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
    grid, snap = reference_grid(hp, soc_grid_step)

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


def reference_grid(hp, soc_grid_step):
    """The SOC grid and its snap: each SOC's nearest node, round half up, clamped."""
    bp = hp.battery
    grid = np.arange(bp.soc_min, bp.soc_max + soc_grid_step / 2, soc_grid_step)

    def snap(soc):
        k = np.floor((soc - bp.soc_min) / soc_grid_step + 0.5).astype(np.int64)
        return np.clip(k, 0, len(grid) - 1)
    return grid, snap


def reference_reach(hp, soc_grid_step):
    """R_1..R_{n-1}, the grid nodes stages 1..n-1 can start from: the forward
    closure of soc0 under reference_dp's snap, as sorted lists."""
    bp, p_ch, p_dis = hp.battery, hp.lattice.p_ch, hp.lattice.p_dis
    grid, snap = reference_grid(hp, soc_grid_step)
    reach, nodes = [], np.unique(snap(soc_after(bp, hp.soc0, p_ch, p_dis)))
    for _ in range(1, hp.n_steps):
        reach.append(nodes.tolist())
        nodes = np.unique(snap(soc_after(bp, grid[nodes][:, None], p_ch, p_dis)))
    return reach


def check_swept_policy(policy, ref_policy, hp, soc_grid_step) -> int:
    """_dp_tables' policy sweeps each stage's R_t, up to the first R_t holding
    more than _DP_DENSE of the grid, and every row from that stage on; it
    equals the reference on the rows it sweeps and is -1 on the others.
    Returns the index (stage - 1) of the first stage swept in full."""
    n_nodes, reach = policy.shape[1], reference_reach(hp, soc_grid_step)
    dense = next((t for t, rows in enumerate(reach)
                  if len(rows) > helios.horizon._DP_DENSE * n_nodes), len(reach))
    assert policy.shape == (hp.n_steps - 1, n_nodes)
    for t, rows in enumerate(reach):
        swept = np.flatnonzero(policy[t] != -1)
        assert swept.tolist() == (list(range(n_nodes)) if t >= dense else rows)
        assert policy[t, swept].tolist() == ref_policy[t + 1, swept].tolist()
    return dense


def cached_dp_rows(hp, soc_grid_step):
    """The lattice's read-only (succ, pen) for hp's key."""
    succ, pen = hp.lattice.dp_rows[(hp.battery, hp.costs, soc_grid_step)]
    assert pen.shape == succ.shape == (len(succ), len(hp.lattice))
    for table in (succ, pen):
        with pytest.raises(ValueError):
            table[0, 0] = 1
    return succ, pen


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

    @pytest.mark.parametrize("step", [1e-6, 1e-300, 5e-324])  # 5e-324: 1000 / step is inf
    def test_budget_exceeded_before_any_action_is_built(self, step):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                build_lattice(1000.0, 100.0, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # 1.1e9 actions at 1e-6 kW, had they been built

    def test_a_lattice_at_the_level_budget_is_built(self, monkeypatch):
        monkeypatch.setattr(helios.horizon, "MAX_LATTICE_LEVELS", 22)
        assert len(build_lattice(1000.0, 100.0, 50.0)) == 23  # 20 + 2 levels
        monkeypatch.setattr(helios.horizon, "MAX_LATTICE_LEVELS", 21)
        with pytest.raises(BudgetExceeded):
            build_lattice(1000.0, 100.0, 50.0)


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
            policy, succ, q0, _ = _dp_tables(hp, grid_step)
            _, ref_policy, ref_q0, ref_idx, ref_cost = reference_dp(hp, grid_step)
            # Grid stages 1..n-1 on the rows swept, then stage 0, which is
            # solved from soc0 alone.
            check_swept_policy(policy, ref_policy, hp, grid_step)
            assert (q0.min(), np.argmin(q0)) == (ref_q0, ref_idx[0])
            seq, cost = _solve_dp(hp, grid_step)
            assert list(action_indices(hp, seq)) == ref_idx
            assert cost == ref_cost
            assert cached_dp_rows(hp, grid_step)[0] is succ
        assert len(lattice.dp_rows) == 1  # one key: every window shares its tables

    def test_budget_exceeded_when_dp_table_too_large(self):
        for step in (1e-4, 1e-9, 1e-300):
            hp = make_problem([100.0] * 3, [0.0] * 3)
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded):
                    solve_exact(hp, soc_grid_step=step, max_enumeration=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 100_000  # refused before the grid (64 MB at 1e-4) was built
            assert hp.lattice.dp_rows == {}  # and before any table was built

    @settings(max_examples=300, deadline=None)
    @given(soc_min=st.floats(0.0, 1000.0), span=st.floats(1e-6, 1000.0),
           step=st.one_of(st.sampled_from([10.0, 0.5, 0.37, 0.1, 1 / 3, 1e-2]),
                          st.floats(1e-2, 2000.0)))
    def test_grid_node_count_is_the_length_of_the_grid(self, soc_min, span, step):
        soc_max = soc_min + span
        grid = np.arange(soc_min, soc_max + step / 2, step)
        assert helios.horizon._grid_nodes(soc_min, soc_max, step) == len(grid)

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_grid_step_must_be_finite_and_positive(self, step):
        hp = make_problem([100.0] * 3, [0.0] * 3)
        with pytest.raises(InvalidStep, match="soc_grid_step"):
            solve_exact(hp, soc_grid_step=step, max_enumeration=0)
        assert hp.lattice.dp_rows == {}

    def test_grid_tables_are_read_only_and_kept_per_lattice_and_key(self):
        lattice = build_lattice(1000.0, 100.0, 50.0)
        hp = make_problem([320.0, 180.0], [90.0, 400.0], soc0=433.3, lattice=lattice)
        _, succ, _, _ = _dp_tables(hp, 10.0)
        cached, pen = cached_dp_rows(hp, 10.0)
        assert cached is succ and succ.dtype == np.intp
        assert len(lattice.dp_rows) == 1
        # Another window with the same key reuses them.
        other = make_problem([50.0] * 3, [0.0] * 3, soc0=871.0, lattice=lattice)
        assert _dp_tables(other, 10.0)[1] is succ
        assert cached_dp_rows(other, 10.0)[1] is pen
        assert len(lattice.dp_rows) == 1
        # Any other key, or another lattice, gets its own tables.
        keys = [(replace(hp, costs=CostParams(r_over=3.0)), 10.0), (hp, 5.0),
                (replace(hp, battery=replace(hp.battery, eta_ch=0.7)), 10.0)]
        for variant, step in keys:
            assert _dp_tables(variant, step)[1] is not succ
            assert cached_dp_rows(variant, step)[1] is not pen
        assert len(lattice.dp_rows) == 4
        fresh = replace(hp, lattice=build_lattice(1000.0, 100.0, 50.0))
        assert _dp_tables(fresh, 10.0)[1] is not succ
        assert len(fresh.lattice.dp_rows) == 1

    def test_interleaved_configs_equal_cold_builds_and_the_reference(self):
        # Windows of twelve configs (two lattices, two grid steps, other
        # penalties, another charge efficiency) interleave on two shared
        # lattices; each equals a build on a fresh lattice and the per-stage
        # reference bit for bit.
        rng = np.random.default_rng(41)
        lattices = [build_lattice(1000.0, 100.0, 50.0), build_lattice(1000.0, 100.0, 10.0)]
        battery = make_problem([0.0], [0.0]).battery
        variants = [(battery, CostParams()), (battery, CostParams(q_under=25.0, r_over=4.0)),
                    (replace(battery, eta_ch=0.8), CostParams())]
        configs = [(lat, step, bp, cp) for lat in lattices for step in (10.0, 0.5)
                   for bp, cp in variants]
        for _ in range(3):
            for i in rng.permutation(len(configs)):
                lattice, step, bp, cp = configs[i]
                n = int(rng.integers(1, 7))
                hp = make_problem(rng.uniform(0.0, 600.0, n).tolist(),
                                  rng.uniform(0.0, 700.0, n).tolist(),
                                  soc0=float(rng.uniform(50.0, 950.0)), battery=bp,
                                  costs=cp, lattice=lattice,
                                  terminal_soc_value=float(rng.choice([0.0, 0.2])))
                cold = replace(hp, lattice=build_lattice(1000.0, 100.0, lattice.delta_p))
                policy, _, q0, _ = _dp_tables(hp, step)
                cold_policy, _, cold_q0, _ = _dp_tables(cold, step)
                assert np.array_equal(policy, cold_policy)
                assert np.array_equal(q0, cold_q0)
                _, ref_policy, ref_q0, ref_idx, ref_cost = reference_dp(hp, step)
                check_swept_policy(policy, ref_policy, hp, step)
                assert (q0.min(), np.argmin(q0)) == (ref_q0, ref_idx[0])
                seq, cost = _solve_dp(hp, step)
                assert (seq, cost) == _solve_dp(cold, step)
                assert (list(action_indices(hp, seq)), cost) == (ref_idx, ref_cost)
                cached_dp_rows(hp, step)
                assert len(cold.lattice.dp_rows) == 1
        assert [len(lat.dp_rows) for lat in lattices] == [6, 6]

    def test_warm_dp_window_memory_is_bounded_by_the_block_not_the_grid(self):
        # 111 actions on 1601 grid nodes: a nodes x actions table is 1.4 MB.
        lattice = build_lattice(1000.0, 100.0, 10.0)
        loads, rens = [150.0, 400.0, 250.0, 150.0, 90.0, 300.0], [300.0, 0.0, 500.0] * 2
        _dp_tables(make_problem(loads, rens, soc0=500.0, lattice=lattice), 0.5)
        hp = make_problem(loads[::-1], rens, soc0=612.7, lattice=lattice,
                          terminal_soc_value=0.2)
        _ = hp.base_costs, hp.soc_steps  # price the window before tracing the DP
        tracemalloc.start()
        try:
            _dp_tables(hp, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # Only rows reachable from soc0 are swept: 23, 111 and 6 actions, grid
    # steps 10, 0.5 and 0.37 kWh (81, 1601 and 2163 nodes), and soc0 far
    # enough outside the band that its successors clamp at either grid end.
    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([23, 111, 6]), step=st.sampled_from([10.0, 0.5, 0.37]),
           n=st.integers(1, 10), soc0=st.floats(-300.0, 1500.0),
           terminal=st.sampled_from([0.0, 0.2]), data=st.data())
    def test_reachable_sweep_equals_the_reference_and_the_full_sweep(
            self, size, step, n, soc0, terminal, data):
        power = st.one_of(st.floats(0.0, 700.0), st.sampled_from([0.0, 100.0, 400.0]))
        hp = make_problem(data.draw(st.lists(power, min_size=n, max_size=n), label="load"),
                          data.draw(st.lists(power, min_size=n, max_size=n), label="ren"),
                          soc0=soc0, lattice=SHARED_LATTICES[size],
                          terminal_soc_value=terminal)
        check_pruned_dp(hp, step)

    @pytest.mark.parametrize("size, step, n, soc0, dense", [
        (6, 0.37, 10, 500.0, 9),     # sparse to the end, R_9 569 of 2163 nodes
        (6, 10.0, 10, 1500.0, 6),    # R_1 one node, the top: dense from stage 7
        (23, 10.0, 6, 480.0, 2),     # dense from stage 3
        (111, 10.0, 5, 100.0, 0),    # dense from stage 1: R_1 is the whole grid
        (111, 0.5, 6, 612.7, 2),     # the 10 kW lattice, 0.5 kWh grid: from stage 3
        (23, 0.5, 6, -300.0, 5),     # the 50 kW lattice from below the band: sparse
    ])
    def test_reach_sets_and_the_dense_switch(self, size, step, n, soc0, dense):
        loads, rens = [150.0, 400.0, 250.0, 150.0, 90.0] * 2, [300.0, 0.0, 500.0] * 4
        hp = make_problem(loads[:n], rens[:n], soc0=soc0, lattice=SHARED_LATTICES[size],
                          terminal_soc_value=0.2)
        assert check_pruned_dp(hp, step) == dense


def check_pruned_dp(hp, soc_grid_step) -> int:
    """_dp_tables on hp equals reference_dp (swept policy rows, stage-0 minimum
    and action, plan and cost) and, bit for bit, a sweep of every row at every
    stage (q0, and the policy on the rows swept). Returns check_swept_policy's
    first full stage."""
    policy, succ, q0, succ0 = _dp_tables(hp, soc_grid_step)
    _, ref_policy, ref_q0, ref_idx, ref_cost = reference_dp(hp, soc_grid_step)
    dense = check_swept_policy(policy, ref_policy, hp, soc_grid_step)
    assert (q0.min(), np.argmin(q0)) == (ref_q0, ref_idx[0])
    assert succ0.tolist() == reference_grid(hp, soc_grid_step)[1](
        soc_after(hp.battery, hp.soc0, hp.lattice.p_ch, hp.lattice.p_dis)).tolist()
    seq, cost = _solve_dp(hp, soc_grid_step)
    assert (list(action_indices(hp, seq)), cost) == (ref_idx, ref_cost)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helios.horizon, "_DP_DENSE", -1.0)  # every stage sweeps every row
        full_policy, _, full_q0, _ = _dp_tables(hp, soc_grid_step)
    assert q0.view(np.int64).tolist() == full_q0.view(np.int64).tolist()
    swept = policy != -1
    assert policy[swept].tolist() == full_policy[swept].tolist()
    return dense


# Lattices of 23, 111 and 6 actions, shared by every example of a property
# so that windows of several (battery, costs) keys reuse one lattice.
SHARED_LATTICES = {23: build_lattice(1000.0, 100.0, 50.0),
                   111: build_lattice(1000.0, 100.0, 10.0),
                   6: build_lattice(150.0, 100.0, 50.0)}
TABLE_BATTERIES = [Config().battery, replace(Config().battery, eta_ch=0.8, eta_dis=0.85),
                   replace(Config().battery, dt=0.5)]
TABLE_COSTS = [CostParams(), CostParams(c_bat=0.07, c_backup=0.4, q_under=12.0, r_over=9.0)]


def one_expression_stage_base(cp, bp, load, renewable, p_ch, p_dis):
    """Battery + backup cost per (step, action) in one expression, with the
    backup power summed as backup_power sums it: (renewable + p_dis) - p_ch."""
    return (cp.c_bat * p_dis * bp.dt
            + cp.c_backup * np.maximum(0.0, load - (renewable + p_dis - p_ch)) * bp.dt)


def bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


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

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.sampled_from(sorted(SHARED_LATTICES)),
           bp=st.sampled_from(TABLE_BATTERIES), cp=st.sampled_from(TABLE_COSTS),
           noise=st.sampled_from([0.0, 20.0]), terminal=st.sampled_from([0.0, 0.2]),
           horizon=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           socs=st.lists(st.floats(50.0, 950.0), min_size=4, max_size=4))
    def test_per_run_tables_price_windows_as_the_one_expression_kernel(
            self, n_actions, bp, cp, noise, terminal, horizon, seed, socs):
        # Windows as the closed loop assembles them, noise on or off, with
        # soc0 inside and around the band [100, 900].
        lattice = SHARED_LATTICES[n_actions]
        cfg = replace(Config(), battery=bp, costs=cp, forecast_noise_kw=noise,
                      terminal_soc_value=terminal)
        scenario = generate_synthetic(1, SyntheticProfile(wind_jitter_ms=3.0),
                                      seed=seed % 1000)
        forecast = predict_series(cfg.renewable, scenario.irradiance, scenario.wind_speed)
        noise_rng = np.random.default_rng(seed) if noise > 0 else None
        p_ch, p_dis = lattice.p_ch, lattice.p_dis
        for t, soc0 in zip((0, 7, 18, 23), socs):
            hp = _window_problem(cfg, scenario, t, horizon, soc0, lattice, forecast,
                                 noise_rng)
            load = np.array(hp.window.load)[:, None]
            ren = np.array(hp.forecast)[:, None]
            assert bits(hp.base_costs) == bits(
                one_expression_stage_base(cp, bp, load, ren, p_ch, p_dis))
            assert bits(hp.soc_steps) == bits(soc_after(bp, 0.0, p_ch, p_dis))
            soc_next, pen = hp.transitions(soc0)
            assert bits(soc_next) == bits(soc_after(bp, soc0, p_ch, p_dis))
            assert bits(pen) == bits(soc_penalty(cp, bp, soc_next))
            assert lattice.action_rows[(bp, cp)] is hp.action_tables
            assert all(not table.flags.writeable for table in hp.action_tables)

    def test_action_tables_are_read_only_and_kept_per_lattice_and_key(self):
        lattice = build_lattice(1000.0, 100.0, 50.0)
        hp = make_problem([320.0, 180.0], [90.0, 400.0], soc0=433.3, lattice=lattice)
        tables = hp.action_tables
        assert lattice.action_rows == {(hp.battery, hp.costs): tables}
        assert hp.soc_steps is tables[0]
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1.0
        # Another window with the same key reuses them.
        other = make_problem([50.0] * 3, [0.0] * 3, soc0=871.0, lattice=lattice)
        assert other.action_tables is tables
        assert len(lattice.action_rows) == 1
        # Another battery or costs, or another lattice, gets its own tables.
        variants = [replace(hp, costs=CostParams(c_bat=0.07)),
                    replace(hp, battery=replace(hp.battery, eta_ch=0.7))]
        for variant in variants:
            assert variant.action_tables is not tables
            want = [soc_after(variant.battery, 0.0, lattice.p_ch, lattice.p_dis),
                    variant.costs.c_bat * lattice.p_dis * variant.battery.dt,
                    lattice.p_dis - lattice.p_ch]
            assert [bits(t) for t in variant.action_tables] == [bits(w) for w in want]
        assert len(lattice.action_rows) == 3
        assert [bits(t) for t in variants[0].action_tables[::2]] == [
            bits(t) for t in tables[::2]]  # only the cycling cost moved
        fresh = replace(hp, lattice=build_lattice(1000.0, 100.0, 50.0))
        assert fresh.action_tables is not tables
        assert [bits(t) for t in fresh.action_tables] == [bits(t) for t in tables]
        assert len(fresh.lattice.action_rows) == 1
        assert lattice.dp_rows == {}  # kept apart from the DP's grid tables

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
    # so the up-front refusal must let the window through. With a terminal
    # credit, a plan whose SOC overflowed to +inf gets no credit: a credit
    # of -inf would turn its inf cost into NaN, which np.argmin takes for
    # the minimum.
    lattice = ActionLattice(delta_p=50.0, levels_ch=1, levels_dis=1,
                            actions=(ControlAction(), ControlAction(p_ch=1.7e308),
                                     ControlAction(p_dis=50.0)))
    for terminal_soc_value in (0.0, 0.2):
        hp = make_problem([300.0] * 4, [0.0] * 4, lattice=lattice,
                          terminal_soc_value=terminal_soc_value)
        out = solve(hp)
        plan = out if isinstance(out, CandidateSequence) else out[0]
        assert math.isfinite(hp.cost_of(plan))
        if terminal_soc_value:
            assert hp.cost_of(plan) == brute_force_optimum(hp)[1]


def test_path_rule_takes_dp_where_the_sequence_count_overflows_a_float():
    # 23.0 ** 300 and 9.0 ** 400 overflow, and float ** int raises OverflowError.
    assert not helios.horizon.takes_dp(23, 4, DEFAULT_MAX_ENUMERATION)
    assert helios.horizon.takes_dp(23, 5, DEFAULT_MAX_ENUMERATION)
    assert helios.horizon.takes_dp(23, 300, DEFAULT_MAX_ENUMERATION)
    hp = make_problem([300.0] * 400, [0.0] * 400)
    assert len(hp.lattice) == 9
    plan, cost = solve_exact(hp)
    assert len(plan) == 400 and math.isfinite(cost)


def refused(hp) -> bool:
    try:
        hp.require_feasible()
    except ValidationError:
        return True
    return False


# Backup costs of loads near the float maximum overflow and warn.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(loads=st.lists(st.one_of(st.floats(0.0, 1e3), st.floats(1e307, 1.79e308)),
                      min_size=1, max_size=12),
       cp=st.sampled_from([CostParams(), CostParams(c_backup=1.5, q_under=2.0, r_over=2.0)]))
@example(loads=[300.0, 1.7e308, 20.0], cp=CostParams(c_backup=1.5, q_under=2.0,
                                                    r_over=2.0))  # an all-inf row
@example(loads=[1.7e308] * 4, cp=CostParams())  # finite rows, their sum overflows
def test_require_feasible_refuses_exactly_where_the_summed_row_minima_overflow(loads, cp):
    hp = make_problem(loads, [0.0] * len(loads), costs=cp)
    summed = float(hp.base_costs.min(axis=1).cumsum()[-1])
    assert refused(hp) == (not math.isfinite(summed))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_require_feasible_refuses_an_all_inf_row_and_an_overflowing_finite_sum():
    all_inf = make_problem([300.0, 1.7e308, 20.0], [0.0] * 3,
                           costs=CostParams(c_backup=1.5, q_under=2.0, r_over=2.0))
    assert np.isinf(all_inf.base_costs[1]).all() and refused(all_inf)
    overflow = make_problem([1.7e308] * 4, [0.0] * 4)
    assert np.isfinite(overflow.base_costs).all() and refused(overflow)
    assert not refused(make_problem([1.7e308] * 3, [0.0] * 3))


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

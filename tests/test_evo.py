"""Evolutionary operators, the EG solver, and the ant-colony arm."""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helios.evo
from conftest import action_indices, make_problem
from helios.baselines import StrategyKind
from helios.config import load_config
from helios.core import (BudgetExceeded, ControlAction, CostParams, LengthMismatch,
                         ValidationError)
from helios.data import SyntheticProfile, generate_synthetic
from helios.engine import run_closed_loop
from helios.evo import (AcoParams, EvoParams, _cut_mask, _lhs_indices,
                        _local_search_indices, _mutation_mask, _select, aco_solve,
                        crossover, eg_solve, mutate)
from helios.horizon import (MAX_SEARCH_TABLE, ActionLattice, CandidateSequence,
                            build_lattice, sequence_from_indices, solve_exact)
from reference import cost_of, sequence_cost

REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                "reference.cfg")


def scalar_local_search(hp, genome, cost, budget):
    """Reference first-improvement climb, one scalar evaluation per candidate."""
    n = genome.size
    n_actions = len(hp.lattice)
    rens = hp.renewables()

    def score(idx):
        return sequence_cost(hp.costs, hp.battery, hp.window.load, rens, hp.soc0,
                             [hp.lattice.actions[int(i)] for i in idx],
                             hp.terminal_soc_value)

    current = genome.copy()
    cur_cost = cost
    evals = 0
    stale_positions = 0
    pos = 0
    while evals < budget and stale_positions < n:
        improved = False
        cand = current.copy()
        for a in range(n_actions):
            if a == current[pos]:
                continue
            if evals >= budget:
                break
            cand[pos] = a
            c = score(cand)
            evals += 1
            if c < cur_cost:
                current = cand.copy()
                cur_cost = c
                improved = True
                break
        stale_positions = 0 if improved else stale_positions + 1
        pos = (pos + 1) % n
    return current, cur_cost


def assert_batched_climb_matches_scalar(hp, genome, cost, budgets):
    """Per budget, the batched climb returns the reference's genome and cost."""
    results = []
    for budget in budgets:
        got, got_cost = _local_search_indices(hp, genome, cost, budget)
        want, want_cost = scalar_local_search(hp, genome, cost, budget)
        assert got.tolist() == want.tolist()
        assert got_cost == want_cost
        results.append((want, want_cost))
    return results


def reference_eg(hp, ep):
    """eg_solve one generation at a time on a row-major population.

    Each generation draws in eg_solve's order and applies the operator
    kernels to its draws: selection uniforms, crossover cut keys (when a cut
    fits), mutation coins, then replacement genes.
    """
    hp.require_feasible()
    rng = np.random.default_rng(ep.seed)
    n, n_actions = hp.n_steps, len(hp.lattice)
    m = ep.population

    pop = _lhs_indices(rng, m, n, n_actions)
    costs = hp.costs_of(pop)
    bi = int(np.argmin(costs))
    best_genome = pop[bi].copy()
    best_cost = float(costs[bi])
    last_searched: np.ndarray | None = None

    trace: list[float] = []
    for _ in range(ep.generations):
        n_children = m - ep.elite
        n_pairs = (n_children + 1) // 2
        parents = _select(costs, rng.random(2 * n_pairs), ep.epsilon_fitness)
        pa = pop[parents[0::2]]
        pb = pop[parents[1::2]]
        k = min(ep.crossover_points, n - 1)
        if k >= 1:
            use_b = _cut_mask(rng.random((n_pairs, n - 1)), k)
            c1, c2 = np.where(use_b, pb, pa), np.where(use_b, pa, pb)
        else:  # one-gene sequences cannot be cut
            c1, c2 = pa.copy(), pb.copy()
        # Rows c1[0], c2[0], c1[1], ...: each pair's children side by side.
        children = np.concatenate((c1, c2), axis=1).reshape(-1, n)[:n_children]
        coins = rng.random(children.shape)
        repl = rng.integers(0, n_actions, size=children.shape)
        children = np.where(_mutation_mask(coins, ep.p_mut), repl, children)
        child_costs = hp.costs_of(children)

        keep = np.argsort(costs, kind="stable")[:ep.elite]
        pop = np.concatenate([pop[keep], children])
        costs = np.concatenate([costs[keep], child_costs])
        assert pop.shape[0] == m  # population size is invariant

        bi = int(np.argmin(costs))
        if costs[bi] < best_cost:
            best_cost = float(costs[bi])
            best_genome = pop[bi].copy()

        # Local search on the incumbent best. Re-searching an unchanged
        # incumbent cannot improve it (the climb is deterministic), so skip.
        if ep.local_search_budget > 0 and (
                last_searched is None or not np.array_equal(pop[bi], last_searched)):
            refined, refined_cost = _local_search_indices(
                hp, pop[bi], float(costs[bi]), ep.local_search_budget)
            last_searched = refined.copy()
            if refined_cost < costs[bi]:
                pop[bi] = refined
                costs[bi] = refined_cost
            if refined_cost < best_cost:
                best_cost = float(refined_cost)
                best_genome = refined.copy()

        trace.append(best_cost)

    best_cost = hp.require_finite(best_cost)
    return sequence_from_indices(hp.lattice, best_genome), best_cost, trace


EG_LATTICES = {len(lattice): lattice for lattice in (  # 23, 111, 6 and 3 actions
    build_lattice(1000.0, 100.0, 50.0), build_lattice(1000.0, 100.0, 10.0),
    build_lattice(150.0, 100.0, 50.0), build_lattice(50.0, 50.0, 50.0))}


def assert_eg_matches_reference(hp, ep):
    seq, cost, trace = eg_solve(hp, ep)
    ref_seq, ref_cost, ref_trace = reference_eg(hp, ep)
    assert action_indices(hp, seq) == action_indices(hp, ref_seq)
    assert cost == ref_cost
    assert trace == ref_trace


def reference_aco(hp, ap, below=np.less):
    """Ant System with a full (ants, n_actions) block per step.

    Every ant prices every action from its own SOC, and each step draws
    its ants' uniforms with one rng.random(ants) call. An ant takes action
    count(below(cum, u)), where u is its draw times the row total. A row
    whose weights sum to 0 is sampled uniformly. Returns the best plan's
    action indices, its cost and the per-iteration best-ever trace.
    """
    hp.require_feasible()
    rng = np.random.default_rng(ap.seed)
    n, n_actions = hp.n_steps, len(hp.lattice)
    tau = np.full((n, n_actions), ap.pheromone_init, dtype=float)
    best_genome, best_cost, trace = None, np.inf, []
    ant_rows = np.arange(ap.ants)
    for _ in range(ap.iterations):
        socs = np.full(ap.ants, hp.soc0, dtype=float)
        total = np.zeros(ap.ants, dtype=float)
        paths = np.empty((ap.ants, n), dtype=np.int64)
        for t in range(n):
            soc_next, pen = hp.transitions(socs[:, None])
            stage = hp.base_costs[t] + pen
            heuristic = 1.0 / (1.0 + stage)
            weight = tau[t][None, :] ** ap.alpha * heuristic ** ap.beta
            degenerate = weight.sum(axis=1) == 0.0
            if degenerate.any():
                weight[degenerate] = 1.0
            cum = np.cumsum(weight, axis=1)
            u = rng.random(ap.ants) * cum[:, -1]
            choice = np.minimum(below(cum, u[:, None]).sum(axis=1), n_actions - 1)
            paths[:, t] = choice
            total += stage[ant_rows, choice]
            socs = soc_next[ant_rows, choice]
        if hp.terminal_soc_value != 0.0:
            total += hp.terminal_credit(socs)
        bi = int(np.argmin(total))
        if total[bi] < best_cost:
            best_cost = float(total[bi])
            best_genome = paths[bi].copy()
        tau *= (1.0 - ap.evaporation)
        deposits = 1.0 / (1.0 + np.maximum(total, 0.0))
        stage_idx = np.broadcast_to(np.arange(n), paths.shape)
        np.add.at(tau, (stage_idx.ravel(), paths.ravel()), np.repeat(deposits, n))
        np.maximum(tau, 1e-12, out=tau)
        trace.append(best_cost)
    return best_genome.tolist(), hp.require_finite(best_cost), trace


def fixed_draws(values):
    """A stand-in for np.random.default_rng: whatever the seed, each generator
    it makes returns the given draws, in order, from random()."""
    class FixedDraws:
        def __init__(self, seed):
            self.values = iter(values)

        def random(self, size):
            return np.array([next(self.values) for _ in range(np.prod(size))]
                            ).reshape(size)

    return FixedDraws


def assert_aco_matches_reference(hp, ap):
    seq, cost, trace = aco_solve(hp, ap)
    ref_idx, ref_cost, ref_trace = reference_aco(hp, ap)
    assert list(action_indices(hp, seq)) == ref_idx
    assert cost == ref_cost
    assert trace == ref_trace


class TestParams:
    def test_elite_must_leave_room(self):
        with pytest.raises(ValidationError):
            EvoParams(population=4, elite=4)
        with pytest.raises(ValidationError):
            EvoParams(elite=1)

    def test_mutation_probability_range(self):
        with pytest.raises(ValidationError):
            EvoParams(p_mut=1.5)

    def test_evaporation_open_interval(self):
        with pytest.raises(ValidationError):
            AcoParams(evaporation=1.0)
        with pytest.raises(ValidationError):
            AcoParams(evaporation=0.0)

    @pytest.mark.parametrize("cls, kw, message", [
        (EvoParams, {"crossover_points": 0}, "crossover_points must be >= 1"),
        (EvoParams, {"generations": 0}, "generations must be >= 1"),
        (EvoParams, {"epsilon_fitness": 0.0}, "epsilon_fitness must be positive"),
        (EvoParams, {"local_search_budget": -1}, "local_search_budget must be >= 0"),
        (AcoParams, {"ants": 0}, "ants and iterations must be >= 1"),
        (AcoParams, {"iterations": 0}, "ants and iterations must be >= 1"),
        (AcoParams, {"pheromone_init": 0.0}, "pheromone_init must be positive"),
        (AcoParams, {"alpha": -2.0}, "AcoParams.alpha must be >= 0"),
        (AcoParams, {"beta": -1.0}, "AcoParams.beta must be >= 0"),
    ])
    def test_out_of_range_knob_is_refused(self, cls, kw, message):
        with pytest.raises(ValidationError, match=message):
            cls(**kw)


class TestLhsInit:
    def test_population_matching_lattice_size_is_a_permutation(self, small_lattice):
        m = len(small_lattice)
        pop = _lhs_indices(np.random.default_rng(3), m, 5, m)
        for j in range(5):
            assert sorted(pop[:, j]) == list(range(m))

    def test_stratified_bins_each_hold_one_sample(self):
        pop = _lhs_indices(np.random.default_rng(9), 4, 6, 8)
        for j in range(6):
            assert sorted(pop[:, j] // 2) == [0, 1, 2, 3]

    def test_single_member_population(self, small_lattice):
        pop = _lhs_indices(np.random.default_rng(0), 1, 3, len(small_lattice))
        assert pop.shape == (1, 3)
        assert np.all((0 <= pop) & (pop < len(small_lattice)))


class TestSelect:
    def test_equal_costs_select_uniformly(self):
        rng = np.random.default_rng(21)
        picks = _select(np.full(4, 5.0), rng.random(20_000), 1e-9)
        counts = np.bincount(picks, minlength=4)
        assert np.all(np.abs(counts - 5000) < 3 * np.sqrt(20_000 * 0.25 * 0.75))

    def test_dominant_candidate_nearly_always_wins(self):
        rng = np.random.default_rng(2)
        picks = _select(np.array([0.0, 10.0]), rng.random(2000), 1e-9)
        assert picks.sum() == 0  # index 1 has fitness ~1e-9 of the total

    def test_frequencies_match_fitness_distribution(self):
        costs = np.array([0.0, 10.0, 30.0])
        eps = 1.0
        f = (costs.max() - costs) + eps
        p = f / f.sum()
        rng = np.random.default_rng(12)
        n = 100_000
        counts = np.bincount(_select(costs, rng.random(n), eps), minlength=3)
        for i in range(3):
            sigma = np.sqrt(n * p[i] * (1 - p[i]))
            assert abs(counts[i] - n * p[i]) <= 3 * sigma

    def test_draws_what_the_batch_kernel_draws(self):
        # count single picks, one uniform each, pick what one batch of count
        # uniforms picks on the same stream.
        rng = np.random.default_rng(4)
        for seed in range(50):
            costs = rng.uniform(0.0, 100.0, int(rng.integers(1, 30)))
            count = int(rng.integers(1, 8))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            singles = [int(_select(costs, rng_a.random(1), 1e-3)[0])
                       for _ in range(count)]
            assert singles == _select(costs, rng_b.random(count), 1e-3).tolist()
            assert rng_a.random() == rng_b.random()  # same number of draws


    def test_finite_costs_draw_what_the_affine_fitness_draws(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            costs = rng.uniform(0.0, 100.0, 40)
            cum = np.cumsum((costs.max() - costs) + 1e-9)
            u = np.random.default_rng(seed).random(25) * cum[-1]
            want = np.minimum(np.searchsorted(cum, u, side="right"), costs.size - 1)
            got = _select(costs, np.random.default_rng(seed).random(25), 1e-9)
            assert got.tolist() == want.tolist()

    @pytest.mark.filterwarnings("error")
    def test_infinite_cost_is_never_drawn(self):
        picks = _select(np.array([1.0, np.inf, 2.0]),
                        np.random.default_rng(3).random(5000), 1e-9)
        assert 1 not in picks

    @pytest.mark.filterwarnings("error")
    def test_all_infinite_costs_draw_uniformly_without_warning(self):
        picks = _select(np.full(4, np.inf), np.random.default_rng(9).random(20_000),
                        1e-9)
        counts = np.bincount(picks, minlength=4)
        assert np.all(np.abs(counts - 5000) < 3 * np.sqrt(20_000 * 0.25 * 0.75))


class TestCrossover:
    def test_identical_parents_reproduce_themselves(self, small_lattice):
        rng = np.random.default_rng(1)
        u = CandidateSequence(tuple(small_lattice.actions[i % 3] for i in range(6)))
        c1, c2 = crossover(u, u, k=2, rng=rng)
        assert tuple(c1) == tuple(u)
        assert tuple(c2) == tuple(u)

    def test_single_cut_semantics(self, small_lattice):
        # with distinct parent genes the cut position is visible in the child:
        # child1 must be a-prefix then b-suffix, child2 the mirror image
        a = CandidateSequence(tuple(small_lattice.actions[1] for _ in range(4)))
        b = CandidateSequence(tuple(small_lattice.actions[2] for _ in range(4)))
        seen_cuts = set()
        for seed in range(40):
            c1, c2 = crossover(a, b, k=1, rng=np.random.default_rng(seed))
            cut = next(i for i, g in enumerate(c1) if g == b[0])
            seen_cuts.add(cut)
            assert tuple(c1) == tuple(a[:cut] + b[cut:])
            assert tuple(c2) == tuple(b[:cut] + a[cut:])
        assert seen_cuts == {1, 2, 3}

    def test_positionwise_gene_conservation(self, small_lattice):
        rng = np.random.default_rng(333)
        n = 8
        for _ in range(200):
            ai = rng.integers(0, len(small_lattice), n)
            bi = rng.integers(0, len(small_lattice), n)
            a = CandidateSequence(tuple(small_lattice.actions[i] for i in ai))
            b = CandidateSequence(tuple(small_lattice.actions[i] for i in bi))
            k = int(rng.integers(1, n))
            c1, c2 = crossover(a, b, k, rng)
            for j in range(n):
                assert {c1[j], c2[j]} == {a[j], b[j]}

    def test_length_mismatch(self, small_lattice):
        a = CandidateSequence(small_lattice.actions[:3])
        b = CandidateSequence(small_lattice.actions[:4])
        with pytest.raises(LengthMismatch):
            crossover(a, b, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("n, k", [(4, 0), (4, 4), (1, 1)])
    def test_cut_count_outside_the_parents_is_refused(self, small_lattice, n, k):
        a = CandidateSequence((small_lattice.actions[1],) * n)
        with pytest.raises(ValidationError, match=f"need 1 <= k < len\\(parents\\), "
                                                  f"got k={k}, n={n}"):
            crossover(a, a, k, np.random.default_rng(0))

    def test_draws_what_the_batch_kernel_draws(self, small_lattice):
        rng = np.random.default_rng(5)
        for seed in range(50):
            n = int(rng.integers(2, 10))
            ai, bi = rng.integers(0, len(small_lattice), (2, n))
            a = CandidateSequence(tuple(small_lattice.actions[i] for i in ai))
            b = CandidateSequence(tuple(small_lattice.actions[i] for i in bi))
            k = int(rng.integers(1, n))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            c1, c2 = crossover(a, b, k, rng_a)
            use_b = _cut_mask(rng_b.random((1, n - 1)), k)[0]
            w1, w2 = np.where(use_b, bi, ai), np.where(use_b, ai, bi)
            assert tuple(c1) == tuple(small_lattice.actions[i] for i in w1)
            assert tuple(c2) == tuple(small_lattice.actions[i] for i in w2)
            assert rng_a.random() == rng_b.random()  # same number of draws

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_batch_kernel_equals_the_cut_flag_cumsum_formula(self, n):
        # _cut_mask on 58 pairs' cut keys, against a cumulative count of cuts.
        def reference(u, k):
            cuts = u.argsort(axis=1)[:, :k] + 1
            flags = np.zeros((u.shape[0], n), dtype=np.int64)
            np.put_along_axis(flags, cuts, 1, axis=1)
            return (np.cumsum(flags, axis=1) % 2).astype(bool)

        for k in range(1, n):
            u = np.random.default_rng(k).random((58, n - 1))
            assert _cut_mask(u, k).tolist() == reference(u, k).tolist()


class TestMutate:
    def test_zero_probability_is_identity(self, small_lattice):
        rng = np.random.default_rng(0)
        u = CandidateSequence(small_lattice.actions[:5])
        assert tuple(mutate(u, small_lattice, 0.0, rng)) == tuple(u)

    def test_singleton_lattice_cannot_change_anything(self):
        from helios.horizon import ActionLattice
        base = build_lattice(50.0, 50.0, 50.0)
        only = ActionLattice(actions=(base.actions[0],))
        u = CandidateSequence((base.actions[0],) * 4)
        mutated = mutate(u, only, 1.0, np.random.default_rng(0))
        assert tuple(mutated) == tuple(u)

    def test_changed_gene_count_matches_binomial(self, small_lattice):
        # each gene flips to a *different* action with p_mut * (1 - 1/|A|)
        p_mut = 0.1
        n, trials = 20, 10_000
        p_eff = p_mut * (1.0 - 1.0 / len(small_lattice))
        rng = np.random.default_rng(99)
        u = CandidateSequence((small_lattice.actions[0],) * n)
        changed = 0
        for _ in range(trials):
            v = mutate(u, small_lattice, p_mut, rng)
            changed += sum(1 for x, y in zip(u, v) if x != y)
        total = n * trials
        sigma = np.sqrt(total * p_eff * (1 - p_eff))
        assert abs(changed - total * p_eff) <= 3 * sigma

    def test_draws_what_the_batch_kernel_draws(self, small_lattice):
        rng = np.random.default_rng(6)
        for seed in range(50):
            genome = rng.integers(0, len(small_lattice), int(rng.integers(1, 12)))
            u = CandidateSequence(tuple(small_lattice.actions[i] for i in genome))
            p_mut = float(rng.uniform(0.0, 1.0))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = mutate(u, small_lattice, p_mut, rng_a)
            coins = rng_b.random((1, genome.size))
            repl = rng_b.integers(0, len(small_lattice), (1, genome.size))
            want = np.where(_mutation_mask(coins, p_mut), repl, genome)[0]
            assert tuple(got) == tuple(small_lattice.actions[i] for i in want)
            assert rng_a.random() == rng_b.random()  # same number of draws


    def test_a_coin_equal_to_p_mut_keeps_its_gene(self):
        # A random coin equals p_mut with probability about 2^-53, so only
        # hand-made draws pin the boundary: a gene mutates when its coin is
        # below p_mut.
        class FixedDraws:
            def random(self, size):
                return np.full(size, 0.25)

            def integers(self, low, high, size):
                return np.full(size, 7)

        lattice = build_lattice(1000.0, 100.0, 50.0)  # 23 actions
        u = CandidateSequence((lattice.actions[0],) * 3)
        assert tuple(mutate(u, lattice, 0.25, FixedDraws())) == tuple(u)
        mutated = mutate(u, lattice, np.nextafter(0.25, 1.0), FixedDraws())
        assert tuple(mutated) == (lattice.actions[7],) * 3


class TestLocalSearch:
    def test_zero_budget_is_identity(self):
        hp = make_problem([300.0, 100.0], [50.0, 20.0])
        genome = np.zeros(2, dtype=np.int64)
        cost = float(hp.costs_of(genome[None, :])[0])
        refined, refined_cost = _local_search_indices(hp, genome, cost, 0)
        assert refined.tolist() == genome.tolist()
        assert refined_cost == cost

    def test_global_optimum_is_a_fixed_point(self):
        hp = make_problem([320.0, 180.0], [90.0, 140.0], soc0=300.0)
        seq, cost = solve_exact(hp)
        genome = np.array(action_indices(hp, seq))
        refined, _ = _local_search_indices(hp, genome, cost, 10_000)
        assert refined.tolist() == genome.tolist()

    def test_never_worsens(self):
        rng = np.random.default_rng(6)
        hp = make_problem([300.0, 150.0, 250.0], [10.0, 80.0, 0.0], soc0=400.0)
        for _ in range(30):
            genome = rng.integers(0, len(hp.lattice), hp.n_steps)
            cost = float(hp.costs_of(genome[None, :])[0])
            for budget in (1, 7, 50):
                refined, refined_cost = _local_search_indices(hp, genome, cost, budget)
                assert refined_cost <= cost
                assert refined_cost == cost_of(
                    hp, [hp.lattice.actions[int(i)] for i in refined])

    @pytest.mark.parametrize("delta_p", [50.0, 10.0])  # 23 and 111 actions
    def test_batched_climb_matches_scalar_reference(self, delta_p):
        lattice = build_lattice(1000.0, 100.0, delta_p)
        assert len(lattice) == (23 if delta_p == 50.0 else 111)
        rng = np.random.default_rng(2024)
        improved = 0
        for _ in range(6):
            hp = make_problem(rng.uniform(0.0, 400.0, 6).tolist(),
                              rng.uniform(0.0, 400.0, 6).tolist(),
                              soc0=float(rng.uniform(150.0, 850.0)),
                              lattice=lattice,
                              terminal_soc_value=float(rng.choice([0.0, 0.02])))
            genome = rng.integers(0, len(lattice), hp.n_steps)
            cost = cost_of(hp, [lattice.actions[int(i)] for i in genome])
            for _, want_cost in assert_batched_climb_matches_scalar(
                    hp, genome, cost, (1, 7, 22, 23, 50, 400)):
                improved += want_cost < cost
        assert improved > 0

    def test_batched_climb_matches_scalar_reference_on_late_improvement(self):
        # A 50 kW discharge in a deficit window: idle and every charge level
        # are worse, so the only improvement at a position is the last
        # replacement in lattice order, the 100 kW discharge.
        lattice = build_lattice(1000.0, 100.0, 50.0)
        hp = make_problem([400.0] * 3, [0.0] * 3, soc0=600.0, lattice=lattice)
        genome = np.full(3, 21)
        cost = cost_of(hp, [lattice.actions[21]] * 3)
        results = assert_batched_climb_matches_scalar(
            hp, genome, cost, (1, 7, 21, 22, 23, 50, 400))
        assert results[-1][0].tolist() == [22, 22, 22]

    def test_batched_climb_matches_scalar_reference_when_all_tie(self):
        # Surplus every hour, free cycling and a SOC that stays in band:
        # every sequence costs 0, so no replacement is ever accepted.
        lattice = build_lattice(100.0, 100.0, 10.0)
        hp = make_problem([100.0] * 4, [1500.0] * 4, soc0=500.0,
                          costs=CostParams(c_bat=0.0), lattice=lattice)
        genome = np.array([3, 0, 15, 20])
        for want, want_cost in assert_batched_climb_matches_scalar(
                hp, genome, 0.0, (1, 7, 22, 23, 50, 400)):
            assert want.tolist() == genome.tolist()
            assert want_cost == 0.0


class TestEgSolve:
    def test_reaches_enumeration_optimum_on_small_instance(self):
        hp = make_problem([320.0, 180.0], [90.0, 140.0], soc0=300.0,
                          lattice=build_lattice(200.0, 200.0, 50.0))
        assert len(hp.lattice) == 9
        _, optimum = solve_exact(hp)
        _, cost, _ = eg_solve(hp, EvoParams(population=200, generations=100, seed=7))
        assert cost <= optimum * 1.01 + 1e-9

    def test_converges_to_zero_on_surplus_window(self):
        hp = make_problem([100.0] * 3, [250.0] * 3, soc0=500.0)
        _, cost, trace = eg_solve(hp, EvoParams(population=40, generations=30, seed=3))
        assert cost == 0.0
        assert trace[-1] == 0.0

    def test_deterministic_given_seed(self):
        hp = make_problem([320.0, 180.0, 90.0], [90.0, 140.0, 200.0], soc0=300.0)
        ep = EvoParams(population=30, generations=25, seed=1234)
        r1 = eg_solve(hp, ep)
        r2 = eg_solve(hp, ep)
        assert tuple(r1[0]) == tuple(r2[0])
        assert r1[1] == r2[1]
        assert r1[2] == r2[2]

    def test_trace_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(44)
        from conftest import random_small_problem
        for _ in range(10):
            hp = random_small_problem(rng)
            _, _, trace = eg_solve(hp, EvoParams(population=20, generations=40,
                                                 seed=int(rng.integers(1 << 30))))
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert len(trace) == 40


    # n = 1 takes the branch without crossover; odd child counts leave a pair
    # with one child; an _EG_BLOCK of 1 makes one-generation blocks, 500
    # blocks of a few generations, and 16384 (the default) one partial block
    # here; soc0 reaches outside the [100, 900] band.
    @settings(max_examples=150, deadline=None)
    @given(n_actions=st.sampled_from(sorted(EG_LATTICES)), n=st.integers(1, 8),
           population=st.integers(5, 130), p_mut=st.sampled_from([0.0, 0.05, 1.0]),
           local_search_budget=st.sampled_from([0, 50, 400]),
           generations=st.integers(1, 25), block=st.sampled_from([1, 500, 16384]),
           soc0=st.floats(-300.0, 1500.0), terminal=st.sampled_from([0.0, 0.2]),
           seed=st.integers(0, 2**31), data=st.data())
    def test_equals_the_one_generation_reference_bit_for_bit(
            self, n_actions, n, population, p_mut, local_search_budget, generations,
            block, soc0, terminal, seed, data):
        power = st.floats(0.0, 700.0)
        hp = make_problem(data.draw(st.lists(power, min_size=n, max_size=n), label="load"),
                          data.draw(st.lists(power, min_size=n, max_size=n), label="ren"),
                          soc0=soc0, lattice=EG_LATTICES[n_actions],
                          terminal_soc_value=terminal)
        ep = EvoParams(population=population, generations=generations, p_mut=p_mut,
                       crossover_points=data.draw(st.integers(1, n + 2), label="cuts"),
                       elite=data.draw(st.integers(2, population - 1), label="elite"),
                       local_search_budget=local_search_budget, seed=seed)
        with mock.patch.object(helios.evo, "_EG_BLOCK", block):
            assert_eg_matches_reference(hp, ep)

    def test_equals_the_reference_at_the_reference_sizes(self):
        # Population 120 on 6 steps of 23 actions: blocks of 14, 14 and 12
        # generations.
        hp = make_problem([199.0, 449.0, 449.0, 449.0, 449.0, 199.0], [0.0] * 6,
                          lattice=EG_LATTICES[23], terminal_soc_value=0.2)
        assert_eg_matches_reference(hp, EvoParams(population=120, generations=40,
                                                  local_search_budget=400, seed=2024))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_equals_the_reference_with_infinite_cost_candidates(self):
        # A 1.7e308 kW charge overflows the SOC penalty, so every plan that
        # uses it costs inf; Latin hypercube init gives it to some member at
        # every step, so selection starts on non-finite costs.
        lattice = ActionLattice(actions=(ControlAction(), ControlAction(p_ch=1.7e308),
                                         ControlAction(p_dis=50.0)))
        hp = make_problem([300.0, 120.0, 300.0, 80.0], [0.0, 50.0, 0.0, 10.0],
                          lattice=lattice)
        for seed in range(4):
            ep = EvoParams(population=9, generations=12, elite=2, p_mut=0.3,
                           local_search_budget=5, seed=seed)
            init = _lhs_indices(np.random.default_rng(seed), 9, 4, 3)
            assert np.isinf(hp.costs_of(init)).any()
            with mock.patch.object(helios.evo, "_EG_BLOCK", 100):
                assert_eg_matches_reference(hp, ep)


def spy_certificate(calls: list):
    """Patches eg_solve's certificate to record each call's (bound, result)."""
    certify = helios.evo.no_sequence_below

    def spy(hp, bound, max_cells):
        calls.append((bound, certify(hp, bound, max_cells)))
        return calls[-1][1]
    return mock.patch.object(helios.evo, "no_sequence_below", spy)


class TestCertificateStop:
    """eg_solve stops after generation 0 when horizon.no_sequence_below proves
    its incumbent optimal on the lattice."""

    def test_stopping_returns_what_every_generation_returns(self):
        rng = np.random.default_rng(5)
        calls = []
        for i in range(40):
            n = int(rng.integers(1, 6))
            hp = make_problem(rng.uniform(0.0, 700.0, n).tolist(),
                              rng.uniform(0.0, 700.0, n).tolist(),
                              soc0=float(rng.uniform(-300.0, 1500.0)),
                              lattice=EG_LATTICES[int(rng.choice([3, 6, 23]))],
                              terminal_soc_value=float(rng.choice([0.0, 0.2])))
            ep = EvoParams(population=int(rng.integers(5, 60)),
                           generations=int(rng.integers(1, 30)),
                           local_search_budget=int(rng.choice([0, 50, 400])), seed=i)
            with spy_certificate(calls):
                seq, cost, trace = eg_solve(hp, ep)
            with mock.patch.object(helios.evo, "no_sequence_below", lambda *args: False):
                full_seq, full_cost, full_trace = eg_solve(hp, ep)
            assert action_indices(hp, seq) == action_indices(hp, full_seq)
            assert cost == full_cost
            assert trace == full_trace
        stopped = [stop for _, stop in calls]
        assert len(stopped) == 40 and 0 < sum(stopped) < 40  # both paths ran

    def test_every_reference_day_window_stops_after_generation_0(self):
        cfg = load_config(REFERENCE_CONFIG)
        day = generate_synthetic(days=1, profile=SyntheticProfile(
            base_load_kw=199.0, bump_load_kw=250.0, bump_start_hour=4, bump_end_hour=8),
            seed=11)
        calls = []
        # _select runs once per generation.
        with spy_certificate(calls), mock.patch.object(
                helios.evo, "_select", side_effect=helios.evo._select) as select:
            run = run_closed_loop(day, StrategyKind.EG_MPC, cfg, seed=2024)
        assert len(calls) == len(run.convergence) == select.call_count == 24
        for (bound, stopped), (_, trace) in zip(calls, run.convergence):
            assert stopped
            assert trace == (bound,) * cfg.evo.generations


class TestAcoSolve:
    def test_single_action_lattice_returns_the_only_sequence(self):
        lat = build_lattice(50.0, 50.0, 50.0)
        # shrink to the idle action only
        from helios.horizon import ActionLattice
        only = ActionLattice(actions=(lat.actions[0],))
        hp = make_problem([100.0, 200.0], [50.0, 0.0], lattice=only)
        seq, cost, _ = aco_solve(hp, AcoParams(ants=5, iterations=5, seed=2))
        assert all(a == ControlAction() for a in seq)
        assert cost == cost_of(hp, seq)

    def test_mostly_reaches_near_optimum(self):
        hp = make_problem([350.0, 420.0], [60.0, 30.0], soc0=700.0,
                          lattice=build_lattice(200.0, 100.0, 50.0))
        _, optimum = solve_exact(hp)
        assert optimum > 0
        hits = 0
        for seed in range(20):
            _, cost, _ = aco_solve(hp, AcoParams(ants=50, iterations=100, seed=seed))
            if cost <= optimum * 1.05 + 1e-9:
                hits += 1
        assert hits >= 18  # within 5% in at least 90% of seeded runs

    def test_trace_is_running_minimum(self):
        hp = make_problem([300.0, 100.0, 220.0], [0.0, 90.0, 10.0], soc0=420.0)
        _, _, trace = aco_solve(hp, AcoParams(ants=10, iterations=30, seed=5))
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_deterministic_given_seed(self):
        hp = make_problem([300.0, 100.0], [0.0, 90.0], soc0=420.0)
        ap = AcoParams(ants=15, iterations=20, seed=77)
        assert aco_solve(hp, ap) == aco_solve(hp, ap)

    def test_cost_is_the_scalar_cost_of_the_plan_bit_for_bit(self):
        # The ants price their paths from the window's base table plus the
        # SOC penalty at their own state; that must be J of the plan exactly,
        # also from above the band, where every plan pays an SOC penalty.
        rng = np.random.default_rng(14)
        for delta in (50.0, 10.0):
            for _ in range(4):
                n = int(rng.integers(1, 7))
                hp = make_problem(rng.uniform(0.0, 600.0, n).tolist(),
                                  rng.uniform(0.0, 700.0, n).tolist(),
                                  soc0=float(rng.choice([40.0, 500.0, 1300.0])),
                                  lattice=build_lattice(1000.0, 100.0, delta),
                                  terminal_soc_value=0.2)
                seq, cost, _ = aco_solve(hp, AcoParams(ants=8, iterations=6, seed=3))
                assert cost == cost_of(hp, seq)

    # 111, 23, 6 and 3 actions; exponents 0.5, 1 and 2 take numpy's fast
    # power paths, 3 and 1.7 the general one; soc0 reaches outside the
    # [100, 900] band, so ants start and stay on distinct penalised SOCs.
    @settings(max_examples=60, deadline=None)
    @given(delta_p=st.sampled_from([10.0, 50.0, 250.0, 1000.0]),
           n=st.integers(1, 8), ants=st.integers(1, 50), iterations=st.integers(1, 15),
           soc0=st.floats(-300.0, 1500.0), terminal=st.sampled_from([0.0, 0.2]),
           alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0, 1.7]),
           beta=st.sampled_from([0.5, 1.0, 2.0, 3.0, 1.7]),
           seed=st.integers(0, 2**31), data=st.data())
    def test_grouped_ants_equal_the_per_ant_reference_bit_for_bit(
            self, delta_p, n, ants, iterations, soc0, terminal, alpha, beta, seed, data):
        power = st.floats(0.0, 700.0)
        hp = make_problem(data.draw(st.lists(power, min_size=n, max_size=n), label="load"),
                          data.draw(st.lists(power, min_size=n, max_size=n), label="ren"),
                          soc0=soc0, lattice=build_lattice(1000.0, 100.0, delta_p),
                          terminal_soc_value=terminal)
        assert_aco_matches_reference(hp, AcoParams(ants=ants, iterations=iterations,
                                                   alpha=alpha, beta=beta, seed=seed))

    def test_all_zero_weight_rows_are_sampled_uniformly_as_the_reference(self):
        # 1e300 kW loads keep every cost finite, but the heuristic
        # 1 / (1 + cost) is about 1e-300, so its square underflows to 0 and
        # every row of weights is 0 at every step.
        hp = make_problem([1e300, 2e300, 1e300], [0.0, 50.0, 0.0],
                          lattice=build_lattice(1000.0, 100.0, 50.0))
        assert not ((1.0 / (1.0 + hp.base_costs)) ** 2.0).any()
        for seed in range(3):
            assert_aco_matches_reference(hp, AcoParams(ants=12, iterations=4, seed=seed))

    def test_a_draw_of_zero_takes_a_leading_zero_weight_action(self, monkeypatch):
        # Random draws land exactly on a cumsum entry with probability about
        # 2^-53, so only hand-made draws pin the rule's boundary: action 0
        # costs inf (weight 0) and ant 0 always draws 0.0. count(cum < u)
        # takes action 0 there; count(cum <= u) would take action 1, the
        # window's only zero-cost action, while ant 1 draws near 1.
        hp = make_problem([300.0, 250.0], [100.0, 50.0],
                          lattice=build_lattice(100.0, 100.0, 50.0))
        hp.__dict__["base_costs"] = np.array([[np.inf, 0.0, 5.0, 10.0, 20.0]] * 2)

        # (ant 0, ant 1) per step
        monkeypatch.setattr(np.random, "default_rng", fixed_draws([0.0, 0.9999] * 4))
        ap = AcoParams(ants=2, iterations=2)
        assert_aco_matches_reference(hp, ap)
        _, cost, _ = reference_aco(hp, ap)
        _, cost_at_most, _ = reference_aco(hp, ap, below=np.less_equal)
        assert cost > 0.0 and cost_at_most == 0.0

    def test_a_step_reuses_its_rows_only_for_a_bit_equal_soc_set(self, monkeypatch):
        # From soc0 = 1001.3, storing 90 kWh then drawing 55.6 kWh ends 2.3e-13
        # kWh away from the opposite order, above soc_max, where the penalty and
        # the terminal credit price every bit. The one ant takes (3, 2, 2), then
        # (2, 3, 2), then (3, 2, 3), each cheaper than the last, so step 2's SOC
        # set goes B, A, B: sets that round alike but must each be priced from
        # their own bits, and every iteration's cost shows in the trace.
        hp = make_problem([300.0] * 3, [100.0] * 3, soc0=1001.3,
                          lattice=build_lattice(100.0, 100.0, 50.0),
                          terminal_soc_value=0.2)
        hp.__dict__["base_costs"] = np.array([[np.inf, np.inf, 0.0, 2000.0, np.inf]]
                                             + [[np.inf, np.inf, 10.0, 20.0, np.inf]] * 2)
        steps = hp.soc_steps
        soc_a, soc_b = (1001.3 + steps[2]) + steps[3], (1001.3 + steps[3]) + steps[2]
        assert soc_a != soc_b and round(soc_a, 6) == round(soc_b, 6)

        # A draw of 1e-6 takes action 2, one of 0.9999 action 3.
        monkeypatch.setattr(np.random, "default_rng", fixed_draws(
            [0.9999, 1e-6, 1e-6, 1e-6, 0.9999, 1e-6, 0.9999, 1e-6, 0.9999]))
        ap = AcoParams(ants=1, iterations=3)
        seq, cost, trace = aco_solve(hp, ap)
        assert action_indices(hp, seq) == (3, 2, 3)
        assert cost == hp.costs_of(np.array([[3, 2, 3]]))[0]
        assert trace[0] > trace[1] > trace[2] == cost
        assert_aco_matches_reference(hp, ap)


class TestSearchBudget:
    # make_problem's lattice has 9 actions.
    @pytest.mark.parametrize("solve,params,n_steps,message", [
        (eg_solve, EvoParams(population=MAX_SEARCH_TABLE // 3 + 1), 3,
         "EG population 333334 x 3 steps"),
        (aco_solve, AcoParams(ants=MAX_SEARCH_TABLE // 9 + 1), 3,
         "ACO colony 111112 x 9 steps or actions"),
        (aco_solve, AcoParams(ants=MAX_SEARCH_TABLE // 12 + 1), 12,
         "ACO colony 83334 x 12 steps or actions"),
    ], ids=["eg", "aco_by_actions", "aco_by_steps"])
    def test_just_past_the_cap_is_refused_before_allocating(self, solve, params,
                                                            n_steps, message):
        hp = make_problem([100.0] * n_steps, [0.0] * n_steps)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=message):
                solve(hp, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # EG's two populations alone would be 16 MB
        assert "base_costs" not in vars(hp)  # refused before the window was priced

    def test_sizes_at_the_cap_run(self, monkeypatch):
        monkeypatch.setattr(helios.evo, "MAX_SEARCH_TABLE", 63)
        hp = make_problem([300.0, 100.0, 220.0], [0.0, 90.0, 10.0])
        eg_solve(hp, EvoParams(population=21, generations=2))  # 21 x 3 steps
        aco_solve(hp, AcoParams(ants=7, iterations=2))  # 7 x 9 actions
        with pytest.raises(BudgetExceeded):
            eg_solve(hp, EvoParams(population=22, generations=2))
        with pytest.raises(BudgetExceeded):
            aco_solve(hp, AcoParams(ants=8, iterations=2))

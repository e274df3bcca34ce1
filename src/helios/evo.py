"""Metaheuristic searchers over candidate-sequence space.

eg_solve runs the evolutionary-game optimizer: Latin hypercube init,
fitness-proportionate selection, multi-point crossover, per-gene mutation,
elitist replacement, and a first-improvement local search on the incumbent
best. Each operator has one implementation, a batch kernel over index rows
(_lhs_indices, _select_batch, _crossover_batch, _mutate_batch,
_local_search_indices) that eg_solve runs; the object-level crossover and
mutate are thin wrappers over them that draw the same random numbers.
Candidates are priced by the window's own objective, HorizonProblem.costs_of.
The local search scores all replacements at one gene position in a single
batch, and charges its budget only for the evaluations up to and including
the first improvement, as a one-at-a-time scan would. aco_solve is the
ant-colony comparison arm: Ant System on the layered (stage, action)
construction graph. Its heuristic reads the window's SOC-free stage costs,
HorizonProblem.base_costs, plus the SOC penalty at each ant's own state
(HorizonProblem.transitions), priced once per distinct ant state. Both
solvers start with require_feasible.

All randomness flows from one seed through a single numpy Generator per
solve; identical inputs and seed give identical output and trace. Genomes
are lattice index vectors internally so whole populations evaluate as one
vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LengthMismatch, ValidationError, check_finite_fields
from .horizon import (ActionLattice, CandidateSequence, HorizonProblem,
                      sequence_from_indices)


@dataclass(frozen=True)
class EvoParams:
    """Knobs of the evolutionary-game optimizer."""

    population: int = 60
    generations: int = 80
    p_mut: float = 0.05            # per-gene mutation probability
    crossover_points: int = 2
    elite: int = 4                 # survivors copied unchanged each generation
    local_search_budget: int = 50  # neighbor evaluations per local search
    epsilon_fitness: float = 1e-9  # keeps selection defined when costs tie
    seed: int = 42

    def __post_init__(self):
        check_finite_fields(self)
        if not (2 <= self.elite < self.population):
            raise ValidationError(
                f"need 2 <= elite < population, got ({self.elite}, {self.population})")
        if not (0.0 <= self.p_mut <= 1.0):
            raise ValidationError(f"p_mut must be in [0, 1], got {self.p_mut}")
        if self.crossover_points < 1:
            raise ValidationError("crossover_points must be >= 1")
        if self.generations < 1:
            raise ValidationError("generations must be >= 1")
        if self.epsilon_fitness <= 0:
            raise ValidationError("epsilon_fitness must be positive")
        if self.local_search_budget < 0:
            raise ValidationError("local_search_budget must be >= 0")


@dataclass(frozen=True)
class AcoParams:
    """Knobs of the Ant System comparison arm."""

    ants: int = 40
    iterations: int = 60
    evaporation: float = 0.3   # rho in (0, 1)
    pheromone_init: float = 1.0
    alpha: float = 1.0         # pheromone exponent
    beta: float = 2.0          # heuristic exponent
    seed: int = 42

    def __post_init__(self):
        check_finite_fields(self)
        if not (0.0 < self.evaporation < 1.0):
            raise ValidationError(
                f"evaporation must be in (0, 1), got {self.evaporation}")
        if self.ants < 1 or self.iterations < 1:
            raise ValidationError("ants and iterations must be >= 1")
        if self.pheromone_init <= 0:
            raise ValidationError("pheromone_init must be positive")


# =============================================================================
# Operators
# =============================================================================


def _lhs_indices(rng: np.random.Generator, m: int, n_steps: int,
                 n_actions: int) -> np.ndarray:
    """Stratified (m, n_steps) index matrix.

    Per gene position the index range [0, n_actions) is split into m equal
    bins; each bin contributes exactly one uniform sample and the bin order
    is shuffled independently per position.
    """
    out = np.empty((m, n_steps), dtype=np.int64)
    width = n_actions / m
    for j in range(n_steps):
        bins = rng.permutation(m)
        samples = (bins + rng.random(m)) * width
        out[:, j] = np.minimum(samples.astype(np.int64), n_actions - 1)
    return out


def _select_batch(costs: np.ndarray, rng: np.random.Generator, epsilon: float,
                  count: int) -> np.ndarray:
    """count fitness-proportionate parent indices: P(i) = f_i / sum(f)."""
    # Cost-to-fitness transform for a minimization objective: affine
    # inversion against the generation's worst, offset so equal costs
    # still select uniformly. Non-finite costs get zero fitness (against the
    # worst finite cost); with none finite, every draw is uniform.
    worst = costs.max()
    if math.isfinite(worst):
        cum = np.cumsum((worst - costs) + epsilon)
    else:
        finite = np.isfinite(costs)
        cum = np.cumsum(np.where(finite, (costs[finite].max() - costs) + epsilon, 0.0)
                        if finite.any() else np.ones(costs.size))
    u = rng.random(count) * cum[-1]
    return np.minimum(np.searchsorted(cum, u, side="right"), costs.size - 1)


def crossover(a: CandidateSequence, b: CandidateSequence, k: int,
              rng: np.random.Generator) -> tuple[CandidateSequence, CandidateSequence]:
    """Multi-point crossover with k distinct cut positions.

    A cut at position c swaps the gene source from c onward, so at every
    position the two children hold exactly the multiset {a[i], b[i]}.
    """
    n = len(a)
    if len(b) != n:
        raise LengthMismatch(f"parent lengths differ: {n} vs {len(b)}")
    if n < 2 or not (1 <= k < n):
        raise ValidationError(f"need 1 <= k < len(parents), got k={k}, n={n}")
    # Genes as indices into a.actions + b.actions, so any actions cross over.
    genes = a.actions + b.actions
    children = _crossover_batch(np.arange(n)[None, :], np.arange(n, 2 * n)[None, :],
                                k, rng)
    return tuple(CandidateSequence(tuple(genes[i] for i in c[0])) for c in children)


def _crossover_batch(a: np.ndarray, b: np.ndarray, k: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Crossover of paired parent rows at k distinct cuts drawn per pair."""
    pairs, n = a.shape
    cuts = rng.random((pairs, n - 1)).argsort(axis=1)[:, :k] + 1
    # Gene j comes from b when an odd number of cuts lie at or before it.
    use_b = np.logical_xor.reduce(cuts[:, :, None] <= np.arange(n), axis=1)
    return np.where(use_b, b, a), np.where(use_b, a, b)


def mutate(u: CandidateSequence, lattice: ActionLattice, p_mut: float,
           rng: np.random.Generator) -> CandidateSequence:
    """Replace each gene with probability p_mut by a uniform lattice action.

    The replacement may equal the original gene.
    """
    # Genes as indices into lattice.actions + u.actions: a kept gene stays
    # u's own action, a replaced one is a lattice index.
    genes = lattice.actions + u.actions
    mutated = _mutate_batch(np.arange(len(lattice), len(genes))[None, :],
                            len(lattice), p_mut, rng)
    return CandidateSequence(tuple(genes[i] for i in mutated[0]))


def _mutate_batch(genomes: np.ndarray, n_actions: int, p_mut: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Replace each gene with probability p_mut by a uniform index < n_actions."""
    coins = rng.random(genomes.shape)
    repl = rng.integers(0, n_actions, size=genomes.shape)
    return np.where(coins < p_mut, repl, genomes)


def _local_search_indices(hp: HorizonProblem, genome: np.ndarray, cost: float,
                          budget: int) -> tuple[np.ndarray, float]:
    """First-improvement hill climb over single-gene replacements.

    Positions are visited round-robin. At each position the replacement
    actions, in lattice order and without the current gene, are scored in
    one batch, truncated to the evaluations left in the budget; the first
    strict improvement is accepted. Only the evaluations up to and including
    that row are charged (all rows when none improves), so the visiting
    order, tie-breaking and budget accounting are those of a scan that
    scores one replacement at a time. Stops when the evaluation budget runs
    out or a full sweep finds no improvement.
    """
    n = genome.size
    order = np.arange(len(hp.lattice))
    current = genome.copy()
    cur_cost = cost
    evals = 0
    stale_positions = 0
    pos = 0
    while evals < budget and stale_positions < n:
        repl = order[order != current[pos]][:budget - evals]
        cands = np.repeat(current[None, :], repl.size, axis=0)
        cands[:, pos] = repl
        costs = hp.costs_of(cands)
        better = np.flatnonzero(costs < cur_cost)
        if better.size:
            j = int(better[0])
            current = cands[j].copy()
            cur_cost = float(costs[j])
            evals += j + 1
            stale_positions = 0
        else:
            evals += repl.size
            stale_positions += 1
        pos = (pos + 1) % n
    return current, cur_cost


# =============================================================================
# Solvers
# =============================================================================


def eg_solve(hp: HorizonProblem, ep: EvoParams
             ) -> tuple[CandidateSequence, float, list[float]]:
    """Evolutionary-game optimization of one horizon problem.

    Returns the best-ever sequence, its cost, and the per-generation
    best-cost trace (monotone nonincreasing by elitism).
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
        parents = _select_batch(costs, rng, ep.epsilon_fitness, 2 * n_pairs)
        pa = pop[parents[0::2]]
        pb = pop[parents[1::2]]
        k = min(ep.crossover_points, n - 1)
        if k >= 1:
            c1, c2 = _crossover_batch(pa, pb, k, rng)
        else:  # one-gene sequences cannot be cut
            c1, c2 = pa.copy(), pb.copy()
        # Rows c1[0], c2[0], c1[1], ...: each pair's children side by side.
        children = np.concatenate((c1, c2), axis=1).reshape(-1, n)[:n_children]
        children = _mutate_batch(children, n_actions, ep.p_mut, rng)
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


def aco_solve(hp: HorizonProblem, ap: AcoParams
              ) -> tuple[CandidateSequence, float, list[float]]:
    """Ant System over the layered (stage, action) graph.

    Ants sample actions with probability proportional to
    pheromone^alpha * heuristic^beta where the heuristic is
    1 / (1 + one-step cost) at the ant's own predicted state. After each
    iteration pheromone evaporates by rho and every ant deposits
    1 / (1 + J) on the edges it used. Returns best-ever sequence, cost,
    and the per-iteration best-ever trace.

    Ants on bit-equal SOCs share one row of weights and its cumsum per
    step; an ant takes the first action whose cumsum reaches its draw times
    the row total (uniform when every weight is 0).
    """
    hp.require_feasible()
    rng = np.random.default_rng(ap.seed)
    n, n_actions = hp.n_steps, len(hp.lattice)

    tau = np.full((n, n_actions), ap.pheromone_init, dtype=float)
    best_genome: np.ndarray | None = None
    best_cost = np.inf
    trace: list[float] = []

    for _ in range(ap.iterations):
        draws = rng.random((n, ap.ants))
        tau_alpha = tau ** ap.alpha
        # states: the distinct SOCs, at[i]: ant i's row; all start at soc0.
        states, at = np.array([hp.soc0]), np.zeros(ap.ants, dtype=np.intp)
        total = np.zeros(ap.ants, dtype=float)
        paths = np.empty((ap.ants, n), dtype=np.int64)
        for t in range(n):
            soc_next, pen = hp.transitions(states[:, None])
            stage = hp.base_costs[t] + pen
            cum = np.cumsum(tau_alpha[t] * (1.0 / (1.0 + stage)) ** ap.beta, axis=1)
            # Weights are never negative: a last entry of 0 means all are 0.
            cum[cum[:, -1] == 0.0] = np.arange(1.0, n_actions + 1)  # uniform
            u = draws[t] * cum[at, -1]
            choice = np.minimum((cum.take(at, axis=0) < u[:, None]).sum(axis=1), n_actions - 1)
            paths[:, t] = choice
            total += stage[at, choice]
            socs = soc_next[at, choice]
            if t + 1 < n:  # regroup the ants by the bits of their next SOC
                # A stable sort: np.unique's SIMD quicksort adds ~1.4 MB of peak RSS.
                bits = np.sort(socs.view(np.int64), kind="stable")
                bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
                at, states = np.searchsorted(bits, socs.view(np.int64)), bits.view(float)
        if hp.terminal_soc_value != 0.0:
            total += hp.terminal_credit(socs)

        bi = int(np.argmin(total))
        if total[bi] < best_cost:
            best_cost = float(total[bi])
            best_genome = paths[bi].copy()

        tau *= (1.0 - ap.evaporation)
        deposits = 1.0 / (1.0 + np.maximum(total, 0.0))
        stage_idx = np.broadcast_to(np.arange(n), paths.shape)
        np.add.at(tau, (stage_idx.ravel(), paths.ravel()),
                  np.repeat(deposits, n))
        np.maximum(tau, 1e-12, out=tau)

        trace.append(best_cost)

    best_cost = hp.require_finite(best_cost)
    return sequence_from_indices(hp.lattice, best_genome), best_cost, trace

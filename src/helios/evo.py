"""Metaheuristic searchers over candidate-sequence space.

eg_solve runs the evolutionary-game optimizer: Latin hypercube init,
fitness-proportionate selection, multi-point crossover, per-gene mutation,
elitist replacement, and a first-improvement local search on the incumbent
best. Each operator has one implementation: _lhs_indices, _select (on given
uniforms), the mask kernels _cut_mask and _mutation_mask, and
_local_search_indices. eg_solve applies the kernels to a block of draws; the
object-level crossover and mutate draw one pair's cut keys, or one genome's
coins and replacement genes, as eg_solve's stream lays them out, and apply
the masks to the actions directly. Candidates are priced by the window's own
objective, HorizonProblem.costs_of.

A generation of eg_solve draws, whatever the costs, in this order (the order
is the contract that fixes every plan for a seed): random(2 * n_pairs)
selection uniforms, random((n_pairs, n - 1)) crossover cut keys,
random((n_children, n)) mutation coins, then
integers(0, n_actions, (n_children, n)) replacement genes. The three random
calls are one call of their summed length, which yields the same doubles;
integers stays its own call, as it draws 32-bit halves that a merged call
would regroup. Since nothing drawn depends on costs, eg_solve draws a block
of generations ahead (at most _EG_BLOCK doubles, 128 KB) and builds the
block's crossover and mutation masks in one pass; a generation then only
selects parents on its uniforms, gathers each child's genes from its own
parent or, where the mask says, its partner, copies in the mutated genes,
and prices the children. The population is step-major, (n_steps,
population), in two buffers that swap each generation: elites first, then
the children, so argmin and argsort break ties as on row-major populations.

The local search scores all replacements at one gene position in a single
batch, and charges its budget only for the evaluations up to and including
the first improvement, as a one-at-a-time scan would. aco_solve is the
ant-colony comparison arm: Ant System on the layered (stage, action)
construction graph. Its heuristic reads the window's SOC-free stage costs,
HorizonProblem.base_costs, plus the SOC penalty at each ant's own state
(HorizonProblem.transitions), priced once per distinct ant state. Both
solvers start with their size budget (require_eg_budget, require_aco_budget,
which compare_strategies also checks before any run), then require_feasible.

All randomness flows from one seed through a single numpy Generator per
solve; identical inputs and seed give identical output and trace. Genomes
are lattice index vectors internally so whole populations evaluate as one
vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BudgetExceeded, LengthMismatch, ValidationError, check_finite_fields
from .horizon import (MAX_SEARCH_TABLE, ActionLattice, CandidateSequence, HorizonProblem,
                      sequence_from_indices)

_EG_BLOCK = 16384   # float64 draws in a block of generations: 128 KB


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


def _select(costs: np.ndarray, u: np.ndarray, epsilon: float) -> np.ndarray:
    """Fitness-proportionate parent indices, P(i) = f_i / sum(f), one per
    uniform in u."""
    # Cost-to-fitness transform for a minimization objective: affine
    # inversion against the generation's worst, offset so equal costs
    # still select uniformly. Non-finite costs get zero fitness (against the
    # worst finite cost); with none finite, every draw is uniform.
    worst = costs.max()
    if math.isfinite(worst):
        cum = ((worst - costs) + epsilon).cumsum()
    else:
        finite = np.isfinite(costs)
        cum = np.cumsum(np.where(finite, (costs[finite].max() - costs) + epsilon, 0.0)
                        if finite.any() else np.ones(costs.size))
    return np.minimum(cum.searchsorted(u * cum[-1], side="right"), costs.size - 1)


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
    use_b = _cut_mask(rng.random((1, n - 1)), k)[0].tolist()
    return (CandidateSequence(tuple(y if s else x for x, y, s in zip(a, b, use_b))),
            CandidateSequence(tuple(x if s else y for x, y, s in zip(a, b, use_b))))


def _cut_mask(u: np.ndarray, k: int) -> np.ndarray:
    """Crossover's (pairs, n) gene-source mask from (pairs, n - 1) uniforms.

    Each row cuts at the k positions 1..n-1 of its k smallest draws; gene j
    comes from the second parent when an odd number of cuts lie at or
    before it.
    """
    pairs, n = u.shape[0], u.shape[1] + 1
    cuts = u.argsort(axis=1)[:, :k] + 1
    flags = np.zeros((pairs, n), dtype=bool)
    np.put_along_axis(flags, cuts, True, axis=1)
    return np.logical_xor.accumulate(flags, axis=1)


def mutate(u: CandidateSequence, lattice: ActionLattice, p_mut: float,
           rng: np.random.Generator) -> CandidateSequence:
    """Replace each gene with probability p_mut by a uniform lattice action.

    The replacement may equal the original gene.
    """
    # Coins first, then replacement genes: the order eg_solve draws them in.
    mutated = _mutation_mask(rng.random((1, len(u))), p_mut)[0].tolist()
    repl = rng.integers(0, len(lattice), (1, len(u)))[0].tolist()
    return CandidateSequence(tuple(lattice.actions[r] if m else g
                                   for g, r, m in zip(u, repl, mutated)))


def _mutation_mask(coins: np.ndarray, p_mut: float) -> np.ndarray:
    """Mutation's gene mask from one uniform per gene."""
    return coins < p_mut


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


def require_eg_budget(ep: EvoParams, n_steps: int) -> None:
    """Refuses an EG population table (population x steps) past MAX_SEARCH_TABLE."""
    if ep.population * n_steps > MAX_SEARCH_TABLE:
        raise BudgetExceeded(f"EG population {ep.population} x {n_steps} steps exceeds "
                             f"{MAX_SEARCH_TABLE} cells")


def require_aco_budget(ap: AcoParams, n_steps: int, n_actions: int) -> None:
    """Refuses an ACO colony whose paths (ants x steps) or per-step weights
    (ants x actions) exceed MAX_SEARCH_TABLE."""
    if ap.ants * max(n_steps, n_actions) > MAX_SEARCH_TABLE:
        raise BudgetExceeded(f"ACO colony {ap.ants} x {max(n_steps, n_actions)} steps "
                             f"or actions exceeds {MAX_SEARCH_TABLE} cells")


def eg_solve(hp: HorizonProblem, ep: EvoParams
             ) -> tuple[CandidateSequence, float, list[float]]:
    """Evolutionary-game optimization of one horizon problem.

    Returns the best-ever sequence, its cost, and the per-generation
    best-cost trace (monotone nonincreasing by elitism).
    """
    n, n_actions = hp.n_steps, len(hp.lattice)
    require_eg_budget(ep, n)
    hp.require_feasible()
    rng = np.random.default_rng(ep.seed)
    m, elite = ep.population, ep.elite
    n_children = m - elite
    n_pairs = (n_children + 1) // 2
    k = min(ep.crossover_points, n - 1)  # 0: one-gene sequences cannot be cut
    # A generation's doubles, in draw order: selection, cuts, mutation coins.
    n_sel = 2 * n_pairs
    n_cut = n_pairs * (n - 1)
    width = n_sel + n_cut + n_children * n
    block = max(1, min(ep.generations, _EG_BLOCK // width))
    draws = np.empty((block, width))
    genes = np.empty((block, n, n_children), dtype=np.int64)  # replacement genes
    # Child c's own parent is selection draw c, its partner draw c ^ 1.
    partner_of = np.arange(n_children) ^ 1

    # Step-major populations, elites first, then children; each generation
    # writes into the buffer the last one read.
    pop, nxt = np.empty((2, n, m), dtype=np.int64)
    pop[...] = _lhs_indices(rng, m, n, n_actions).T
    costs, nxt_costs = np.empty((2, m))
    costs[...] = hp.costs_of(pop.T)
    # Generation 1 keeps the initial minimum as elite 0, where argmin finds it first.
    best_genome: np.ndarray | None = None
    best_cost = np.inf
    last_searched = b""

    trace: list[float] = []
    for start in range(0, ep.generations, block):
        count = min(block, ep.generations - start)
        for g in range(count):
            rng.random(out=draws[g])
            genes[g] = rng.integers(0, n_actions, size=(n_children, n)).T
        # Everything that needs only the draws, for the whole block, step-major.
        cut_keys = draws[:count, n_sel:n_sel + n_cut].reshape(count * n_pairs, n - 1)
        use_b = _cut_mask(cut_keys, k).reshape(count, n_pairs, n)  # all False at n = 1
        swap = np.repeat(use_b, 2, axis=1)[:, :n_children]
        swap = np.ascontiguousarray(swap.transpose(0, 2, 1))
        coins = draws[:count, n_sel + n_cut:].reshape(count, n_children, n)
        mutated = np.ascontiguousarray(_mutation_mask(coins, ep.p_mut).transpose(0, 2, 1))

        for g in range(count):
            parents = _select(costs, draws[g, :n_sel], ep.epsilon_fitness)
            children = nxt[:, elite:]
            pop.take(parents[:n_children], axis=1, out=children)
            np.copyto(children, pop.take(parents[partner_of], axis=1), where=swap[g])
            np.copyto(children, genes[g], where=mutated[g])
            keep = costs.argsort(kind="stable")[:elite]
            pop.take(keep, axis=1, out=nxt[:, :elite])
            costs.take(keep, out=nxt_costs[:elite])
            nxt_costs[elite:] = hp.costs_of(children.T)
            pop, nxt, costs, nxt_costs = nxt, pop, nxt_costs, costs

            # Local search on the incumbent best. Re-searching an unchanged
            # incumbent cannot improve it (the climb is deterministic), so skip.
            bi = int(costs.argmin())
            if pop[:, bi].tobytes() != last_searched:
                refined, refined_cost = _local_search_indices(
                    hp, pop[:, bi], float(costs[bi]), ep.local_search_budget)
                last_searched = refined.tobytes()
                if refined_cost < costs[bi]:
                    pop[:, bi] = refined
                    costs[bi] = refined_cost
            if costs[bi] < best_cost:
                best_cost = float(costs[bi])
                best_genome = pop[:, bi].copy()

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
    n, n_actions = hp.n_steps, len(hp.lattice)
    require_aco_budget(ap, n, n_actions)
    hp.require_feasible()
    rng = np.random.default_rng(ap.seed)

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
        total += hp.terminal_credit(socs)

        bi = int(np.argmin(total))
        if total[bi] < best_cost:
            best_cost = float(total[bi])
            best_genome = paths[bi].copy()

        tau *= (1.0 - ap.evaporation)
        deposits = 1.0 / (1.0 + np.maximum(total, 0.0))
        np.add.at(tau.reshape(-1), (paths + np.arange(n) * n_actions).ravel(),
                  np.repeat(deposits, n))
        np.maximum(tau, 1e-12, out=tau)

        trace.append(best_cost)

    best_cost = hp.require_finite(best_cost)
    return sequence_from_indices(hp.lattice, best_genome), best_cost, trace

"""Reward evaluation on simulated ensembles, and policy search.

The objective is the time integral of the running reward under the
conditional law plus a terminal term, with an optional penalty per
reinsertion when the reinsertion dynamics do the estimating.  One
estimator scores both kinds of run: a killed run on its survivors, a
reinsertion run on every particle plus the penalty.  A feedback policy's
controls are read back from the policy at each node.  The integral uses
the left-endpoint rule on the output grid, so a running reward
identically equal to one integrates to the horizon exactly.

Optimization evaluates candidate policies under common random numbers:
every candidate re-solves the fixed point and re-simulates with the
same seed, so objective differences between candidates are not buried
in Monte Carlo noise.  The search is the cross-entropy method started
at the centre of the family's bounds; a generation solves all its
candidates' fixed points as one stacked ensemble, and the "fv"
objective rescores them as one stacked reinsertion pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .errors import ReinsertionBlowup, SurvivorDepletion
from .fleming_viot import DEFAULT_REINSERTION_CAP, FVTrace, simulate_fv_meanfield
from .killed_sim import Blocks, KilledEnsemble, SimConfig
from .measures import EmpiricalMeasure, MeasureFlow
from .model import ConstantPolicy, FeedbackPolicy, GridPolicy, LinearPolicy, ModelSpec
from .picard import solve_fixed_points

BATCHES = 20


@dataclass
class RewardReport:
    """Reward estimate with a batch-based standard error.

    batch_totals holds the estimate recomputed on contiguous particle
    batches; the standard errors are the batch standard deviations
    scaled by 1/sqrt(B).
    """

    running: float
    terminal: float
    reinsertion: float
    total: float
    running_se: float
    terminal_se: float
    total_se: float
    batch_totals: np.ndarray

    def to_dict(self) -> dict:
        return {
            "running": self.running,
            "terminal": self.terminal,
            "reinsertion": self.reinsertion,
            "total": self.total,
            "running_se": self.running_se,
            "terminal_se": self.terminal_se,
            "total_se": self.total_se,
        }


def _batch_bounds(n: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, n, min(BATCHES, n) + 1).astype(int)
    return [(int(bounds[b]), int(bounds[b + 1])) for b in range(len(bounds) - 1)]


def _batch_se(values: np.ndarray) -> float:
    """Standard error of the mean of per-batch values."""
    b = values.shape[0]
    return float(values.std(ddof=1) / np.sqrt(b)) if b > 1 else 0.0


def _estimate(run, flow: MeasureFlow, alive: list[np.ndarray] | None,
              counts: np.ndarray | None = None, cost: float = 0.0) -> RewardReport:
    """The reward of a run under its model's reward, over the particles
    alive at each node.

    alive[m] masks the particles alive at node m; None keeps every
    particle.  The running term integrates the survivors' mean integrand
    on the output grid, the terminal term reads the last node's
    survivors, and with reinsertion counts the reinsertion term is -cost
    times their mean.  Every term is recomputed on contiguous particle
    batches; a batch with no survivor at some node raises
    SurvivorDepletion naming the batch.
    """
    times = run.times
    reward = run.model.reward
    deltas = np.diff(times)
    # Each node's running integrand per particle, then the last node's
    # positions, over its survivors in particle order.  ends[m][i] counts
    # node m's survivors among the first i particles, so a batch is one
    # slice of each.
    nodes = [reward.running(t, run.snapshots[m], flow.mean_at(t), run.controls_at(m))
             for m, t in enumerate(times[:-1].tolist())]
    nodes.append(run.snapshots[-1])
    if alive is None:
        ends = [np.arange(run.n + 1)] * len(nodes)
    else:
        nodes = [v[mask] for v, mask in zip(nodes, alive)]
        ends = [np.concatenate(([0], np.cumsum(mask))) for mask in alive]

    batches = _batch_bounds(run.n)

    def totals(lo: int, hi: int, batch: int | None = None) -> tuple[float, float, float]:
        kept = [v[e[lo]:e[hi]] for v, e in zip(nodes, ends)]
        running = 0.0
        for m, v in enumerate(kept):
            if v.shape[0] == 0:
                raise SurvivorDepletion(float(times[m]), 0, 1, "" if batch is None else (
                    f", in reward batch {batch} of {len(batches)} (particles {lo}-{hi - 1}),"
                    f" while the run keeps {nodes[m].shape[0]} survivors at that node"))
            if m < deltas.shape[0]:
                running += float(deltas[m]) * float(v.mean())
        reinsertion = 0.0 if counts is None else -cost * float(counts[lo:hi].mean())
        return running, reward.terminal(EmpiricalMeasure(kept[-1])), reinsertion

    running, terminal, reinsertion = totals(0, run.n)
    runs, terms, extra = (np.array(column) for column in
                          zip(*(totals(lo, hi, b) for b, (lo, hi) in enumerate(batches))))
    batch_totals = runs + terms + extra
    return RewardReport(
        running=running, terminal=terminal, reinsertion=reinsertion,
        total=running + terminal + reinsertion,
        running_se=_batch_se(runs), terminal_se=_batch_se(terms),
        total_se=_batch_se(batch_totals), batch_totals=batch_totals,
    )


def eval_reward_conditional(ens: KilledEnsemble, flow: MeasureFlow) -> RewardReport:
    """Reward of a killed run under its model's reward, conditioning every
    term on survival.

    The measure argument of the running reward is the mean of flow at
    each node.  Callers of solve_fixed_point pass FixedPointResult.flow,
    which is conditional_flow of the returned ensemble (the output of the
    last sweep), not the input flow its drift read; the two lie the last
    entry of distance_trace apart.
    """
    return _estimate(ens, flow, [ens.alive_at(m) for m in range(ens.times.shape[0])])


def eval_reward_fv(fv: FVTrace, flow: MeasureFlow,
                   reinsertion_cost: float | None = None) -> RewardReport:
    """Reward of a reinsertion run, charging a cost per reinsertion.

    This is the conditional estimate with every particle alive, plus the
    reinsertion term -cost times the mean final count, which makes the
    dependence on the cost exactly linear.  The cost is the model's
    reward.reinsertion_cost unless reinsertion_cost is given.
    """
    cost = (fv.model.reward.reinsertion_cost if reinsertion_cost is None
            else float(reinsertion_cost))
    if cost < 0:
        raise ValueError("reinsertion_cost must be nonnegative")
    return _estimate(fv, flow, None, fv.final_counts, cost)


@dataclass(frozen=True)
class PolicyFamily:
    """Finite-dimensional parametrization of a feedback policy.

    init is where the search starts; policy_family puts it at the centre
    of the box [lo, hi].
    """

    kind: str
    dim: int
    init: tuple
    lo: tuple
    hi: tuple
    time_bins: int = 0
    space_bins: int = 0

    MAX_DIM = 64

    def __post_init__(self):
        if self.dim < 1 or self.dim > self.MAX_DIM:
            raise ValueError(f"parameter dimension must lie in [1, {self.MAX_DIM}]")

    def build(self, model: ModelSpec, params) -> FeedbackPolicy:
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} parameters, got {params.shape}")
        box = model.control_set
        if self.kind == "constant":
            return ConstantPolicy(tuple(params.tolist()), box)
        if self.kind == "linear":
            d_a = box.dim
            theta1 = params[d_a:].reshape(d_a, model.dim)
            return LinearPolicy(tuple(params[:d_a].tolist()),
                                tuple(map(tuple, theta1.tolist())), box)
        if self.kind == "grid":
            return GridPolicy.build(model, self.time_bins, self.space_bins, params)
        raise ValueError(f"unknown policy family {self.kind!r}")


def policy_family(model: ModelSpec, kind: str, time_bins: int = 2,
                  space_bins: int = 2) -> PolicyFamily:
    """The family's parameter box, with the search starting at its centre."""
    box = model.control_set
    bins = {}
    if kind == "constant":
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    elif kind == "linear":
        slope = np.repeat(np.asarray(box.hi) - np.asarray(box.lo), model.dim)
        lo = np.concatenate([np.asarray(box.lo), -slope])
        hi = np.concatenate([np.asarray(box.hi), slope])
    elif kind == "grid":
        cells = time_bins * space_bins ** model.dim
        lo, hi = np.tile(box.lo, cells), np.tile(box.hi, cells)
        bins = {"time_bins": time_bins, "space_bins": space_bins}
    else:
        raise ValueError(f"unknown policy family {kind!r}")
    return PolicyFamily(kind, lo.shape[0], tuple(((lo + hi) / 2).tolist()),
                        tuple(lo.tolist()), tuple(hi.tolist()), **bins)


@dataclass
class OptResult:
    """Search outcome with the full evaluation trace."""

    best_params: np.ndarray
    best_value: float
    trace_params: np.ndarray
    trace_values: np.ndarray
    trace_ses: np.ndarray
    n_evals: int
    seed: int
    metadata: dict = field(default_factory=dict)


def optimize_policy(model: ModelSpec, family: PolicyFamily, config: SimConfig,
                    objective: str = "conditional", budget: int = 100,
                    picard_tol: float = 1e-2, picard_max_iter: int = 10,
                    reinsertion_cap: int = DEFAULT_REINSERTION_CAP) -> OptResult:
    """Maximize the reward over a policy family under common random numbers.

    objective "conditional" scores candidates on the killed ensemble of
    their own fixed point; "fv" rescores via mean-field reinsertion
    dynamics driven by that fixed point, including the model's
    reinsertion penalty, with reinsertion_cap capping each particle's
    reinsertions.  Candidates whose ensemble depletes (or whose reinsertion
    run blows up) score -inf and stay in the trace.

    The search is the cross-entropy method from family.init: generations
    of 16 samples, of which the first budget are evaluated.  A generation
    solves its candidates' fixed points in one stacked pass, and "fv"
    rescores the candidates that did not deplete in one more, one block
    each.  Every score equals the candidate's own solve and rescoring,
    bit for bit.
    """
    if objective not in ("conditional", "fv"):
        raise ValueError("objective must be 'conditional' or 'fv'")
    if budget < 1:
        raise ValueError("budget must be positive")
    if reinsertion_cap < 0:
        raise ValueError("reinsertion_cap must be nonnegative")

    def evaluate(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each candidate's score and its standard error, -inf and nan
        where it fails."""
        policies = [family.build(model, params) for params in samples]
        solves = solve_fixed_points(model, policies, config, tol=picard_tol,
                                    max_iter=picard_max_iter)
        solved = [j for j, fp in enumerate(solves) if not isinstance(fp, SurvivorDepletion)]
        values, ses = np.full(len(policies), -np.inf), np.full(len(policies), np.nan)
        if objective == "fv" and solved:
            # Every solved candidate is a block of one reinsertion pass.
            k = len(solved)
            blocks = Blocks([policies[j] for j in solved], [solves[j].flow for j in solved],
                            [config.seed] * k, [0.0] * k, [model.initial] * k)
            fv = simulate_fv_meanfield(
                model, blocks, None, replace(config, n_particles=config.n_particles * k),
                reinsertion_cap=reinsertion_cap)
        for b, j in enumerate(solved):
            fp, solves[j] = solves[j], None  # the ensemble goes once scored
            try:
                if objective == "conditional":
                    report = eval_reward_conditional(fp.ensemble, fp.flow)
                else:
                    report = eval_reward_fv(fv.block(b), fp.flow)
            except (SurvivorDepletion, ReinsertionBlowup):
                continue
            values[j], ses[j] = report.total, report.total_se
        return values, ses

    lo = np.asarray(family.lo, dtype=float)
    hi = np.asarray(family.hi, dtype=float)
    pop, elite_count, smoothing = 16, 4, 0.7
    gen = rng.generator(config.seed, rng.OPTIMIZER, 0)
    mean = np.asarray(family.init, dtype=float)
    std = (hi - lo) / 4.0
    std_floor = 1e-6 * (hi - lo)
    generations = []
    for start in range(0, budget, pop):
        # Every generation draws pop samples, so the stream does not
        # depend on the budget; the last evaluates only the remainder.
        samples = np.clip(mean + std * gen.standard_normal((pop, family.dim)),
                          lo, hi)[: budget - start]
        values, ses = evaluate(samples)
        generations.append((samples, values, ses))
        top = np.argsort(-values, kind="stable")[:elite_count]
        elites = samples[top[np.isfinite(values[top])]]
        if elites.shape[0]:
            mean = smoothing * elites.mean(axis=0) + (1 - smoothing) * mean
            spread = elites.std(axis=0) if elites.shape[0] > 1 else std
            std = np.maximum(smoothing * spread + (1 - smoothing) * std, std_floor)

    params, values, ses = (np.concatenate(column) for column in zip(*generations))
    best = int(np.argmax(values))
    return OptResult(
        best_params=params[best].copy(),
        best_value=float(values[best]),
        trace_params=params,
        trace_values=values,
        trace_ses=ses,
        n_evals=values.shape[0],
        seed=config.seed,
        metadata={"objective": objective, "budget": budget,
                  "family": family.kind, "picard_tol": picard_tol,
                  "picard_max_iter": picard_max_iter},
    )

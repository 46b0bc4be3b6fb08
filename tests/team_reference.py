"""Per-assignment team oracle, kept as the differential reference.

Before the joint team search, two-colored flowtime was decided by fixing
each within-team bijection of agents to targets in turn and running the
labeled oracles on the relabeled instance, and the lower bound was the
least labeled lower bound over all bijections.  Both take one search per
bijection, ``prod(k!)`` of them, so they serve only small instances.
Makespan is still decided per bijection in the library, but without
searching a bijection that some agent's distance already rules out; the
reference searches them all.
"""

import itertools

from gridmapf.core import AgentTask, Instance, lower_bound_cost
from gridmapf.oracle import (
    DEFAULT_BUDGET,
    NoSolutionError,
    Witness,
    exists_individually_optimal,
    exists_makespan_at_most,
    optimal_flowtime,
)


def labeled_instances(instance):
    """The labeled instance of every within-team bijection, in a fixed order."""
    teams = sorted(instance.teams)
    members = [[a for a in instance.agents if a.team == team] for team in teams]
    orders = [itertools.permutations(sorted(instance.teams[team])) for team in teams]
    for combo in itertools.product(*map(list, orders)):
        goal = {a.id: cell for group, perm in zip(members, combo) for a, cell in zip(group, perm)}
        agents = tuple(AgentTask(a.id, a.start, goal[a.id], a.team) for a in instance.agents)
        yield Instance(instance.grid, agents, instance.directions)


def reference_lower_bound(instance):
    """Least labeled lower bound over all bijections, or None if none is finite."""
    bounds = [lower_bound_cost(labeled) for labeled in labeled_instances(instance)]
    return min((b for b in bounds if b is not None), default=None)


def reference_flowtime_decide(instance, bound, model, budget=DEFAULT_BUDGET):
    """Some bijection admits a solution of flowtime <= ``bound``."""
    for labeled in labeled_instances(instance):
        lb = lower_bound_cost(labeled)
        if lb is None or lb > bound:
            continue
        if lb == bound:
            witness = exists_individually_optimal(labeled, model, budget)
            if witness.decision:
                return witness
            continue
        try:
            cost, solution = optimal_flowtime(labeled, model, budget)
        except NoSolutionError:
            continue
        if cost <= bound:
            return Witness(True, solution)
    return Witness(False, None)


def reference_makespan_decide(instance, bound, model, budget=DEFAULT_BUDGET):
    """Some bijection admits a solution of makespan <= ``bound``."""
    for labeled in labeled_instances(instance):
        witness = exists_makespan_at_most(labeled, bound, model, budget)
        if witness.decision:
            return witness
    return Witness(False, None)

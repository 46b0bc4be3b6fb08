"""Per-assignment team oracle, kept as the differential reference.

Before the joint team search, two-colored flowtime was decided by fixing
each within-team bijection of agents to targets in turn and running the
labeled oracles on the relabeled instance, and the lower bound was the
least labeled lower bound over all bijections.  Both take one search per
bijection, ``prod(k!)`` of them, so they serve only small instances.
Makespan is still decided per bijection in the library, but it only
enumerates the bijections that every agent's distance leaves within the
bound (``oracle._bijections``); the reference searches them all, and
``reference_bijections`` is the library's old enumeration of them: every
product of within-team permutations, then a filter on the distances.
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


def reference_bijections(teams, limit, makespan=False):
    """Each bijection whose costs are all finite and sum to at most ``limit``
    (for makespan: whose greatest cost is at most ``limit``), in the order of
    the product of every team's permutations.  ``teams[i][m][j]`` is the
    cost of member m of team i to the team's target j, or None when out of
    reach; a bijection is the tuple of each member's target ``(i, j)``.
    """
    orders = [itertools.permutations(range(len(rows))) for rows in teams]
    for combo in itertools.product(*map(list, orders)):
        costs = [rows[m][j] for rows, perm in zip(teams, combo) for m, j in enumerate(perm)]
        if None in costs:
            continue
        if (max(costs, default=0) if makespan else sum(costs)) <= limit:
            yield tuple((i, j) for i, perm in enumerate(combo) for j in perm)


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

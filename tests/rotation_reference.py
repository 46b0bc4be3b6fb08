"""Brute-force rotation reference shared by the differential tests.

A set of movers rotates iff, in some cyclic order, each member enters the
cell that the next one leaves.  ``rotating_movers`` tries every ordered
subset of the movers against that definition, so it shares neither the
cell graph nor the component search of ``core._rotations``, and no cell
stands for one agent among several.
"""

import itertools


def rotating_movers(prev, here):
    """The indices of the agents in some rotating subset of the movers."""
    movers = [i for i in range(len(prev)) if here[i] != prev[i]]
    found = set()
    for k in range(2, len(movers) + 1):
        for subset in itertools.combinations(movers, k):
            # A cyclic order is fixed by where its lowest member sits, so
            # only the orders that start with it are tried.
            for rest in itertools.permutations(subset[1:]):
                ring = (subset[0],) + rest
                if all(here[a] == prev[b] for a, b in zip(ring, ring[1:] + ring[:1])):
                    found.update(ring)
    return found

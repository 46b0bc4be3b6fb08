"""Brute-force rotation reference shared by the differential tests.

A set of movers rotates iff, in some cyclic order, each member enters the
cell that the next one leaves.  ``rotating_movers`` tries the ordered
subsets of the movers against that definition, so it shares neither the
cell graph nor the component search of ``core._rotations``, and no cell
stands for one agent among several.
"""


def rotating_movers(prev, here):
    """The indices of the agents in some rotating subset of the movers."""
    movers = [i for i in range(len(prev)) if here[i] != prev[i]]
    found = set()
    # A cyclic order is fixed by where its lowest member sits, so only the
    # orders that start with it are tried.  They grow one member at a time,
    # and only by a mover leaving the cell that the last member enters: an
    # order that breaks this rotates under no extension.
    orders = [(a,) for a in movers]
    while orders:
        ring = orders.pop()
        for b in movers:
            if here[ring[-1]] != prev[b]:
                continue
            if b == ring[0]:
                found.update(ring)
            elif b > ring[0] and b not in ring:
                orders.append(ring + (b,))
    return found

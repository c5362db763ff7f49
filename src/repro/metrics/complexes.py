"""Protein-complex recovery (Fig. 32).

The paper checks, against the MIPS complex catalogue, what fraction of
known protein complexes is *entirely contained* in some reported dense
subgraph.  The MIPS database is not available offline, so the PPI
stand-in dataset plants synthetic complexes at generation time and this
module measures the same recovery statistic against them (see
"Substitutions" in docs/experiments.md).
"""


def complexes_found(complexes, dense_subgraphs):
    """The complexes entirely contained in at least one dense subgraph."""
    dense_subgraphs = [set(members) for members in dense_subgraphs]
    found = []
    for complex_members in complexes:
        complex_set = set(complex_members)
        if any(complex_set <= subgraph for subgraph in dense_subgraphs):
            found.append(frozenset(complex_set))
    return found


def complex_recovery_rate(complexes, dense_subgraphs):
    """Fraction of complexes found (the Fig. 32 numbers)."""
    complexes = list(complexes)
    if not complexes:
        return 0.0
    return len(complexes_found(complexes, dense_subgraphs)) / len(complexes)


def recovery_by_cover(complexes, dense_subgraphs):
    """A softer variant: fraction contained in the overall cover.

    Useful as a sanity upper bound — a complex inside the cover but split
    across subgraphs counts here but not in
    :func:`complex_recovery_rate`.
    """
    complexes = list(complexes)
    if not complexes:
        return 0.0
    covered = set()
    for members in dense_subgraphs:
        covered |= set(members)
    inside = sum(1 for members in complexes if set(members) <= covered)
    return inside / len(complexes)

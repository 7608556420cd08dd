"""One search for natural families: assign a value to each cell so that
every equality constraint along an arrow holds.

Limits, matching objects, ``Nat(F, G)``, the exponential's ``Nat(F x y_d,
G)`` and transformations out of a simplicial subset are all instances; see
``categories.limit_direct``, ``categories.diagram_nat_transforms``,
``categories.exponential_diagram`` and ``simplex.nat_transforms``.

Each constraint is checked at one cell, the first at which every value it
reads is assigned.  A constraint from an earlier cell into a later one
forces the later cell, unless an earlier constraint already forces it; two
arrows into one forced cell are then compared as soon as both their
sources are assigned, so a branch on which they disagree is cut there and
not when the search reaches their common target.
"""

from __future__ import annotations


def solve(cells: list, domains: list, constraints) -> list[dict]:
    """All assignments ``cell -> value`` with ``value[dst] ==
    table[value[src]]`` for every constraint ``(src, dst, table)``.

    ``domains[i]`` lists the candidate values of ``cells[i]``.  Solutions
    come out in lexicographic order of the cells, each cell's values taken
    in domain order, as dicts keyed in cell order.  The search is forward
    checking, and each constraint is indexed once:

    - the first one whose ``src`` comes before its ``dst`` forces ``dst``:
      the cell takes only the values of its domain equal to
      ``table[value[src]]``, so a forced value outside the domain ends the
      branch there;
    - every later one into that forced ``dst`` from an earlier ``src``
      compares ``table[value[src]]`` with the forcing table's value at the
      later of the two sources;
    - every other is checked when the later of its two cells is assigned.
    """
    if not cells:
        return [{}]
    if not all(domains):
        return []
    n = len(cells)
    pos = {cell: i for i, cell in enumerate(cells)}
    forced: list = [None] * n          # (earlier src index, table, index)
    checks: list = [[] for _ in range(n)]
    # A forced cell j that a second arrow from an earlier cell also fixes
    # gets the slot n + j of ``value``: its forced value, stored when its
    # forcing source is assigned, so each such arrow is a check on it.
    stores: list = [[] for _ in range(n)]
    stored: set = set()
    for src, dst, table in constraints:
        i, j = pos[src], pos[dst]
        if i >= j:
            checks[i].append((i, j, table))
        elif forced[j] is None:
            # The forced value selects the domain elements equal to it, in
            # domain order: one, or several if the domain repeats a value.
            index: dict = {}
            for v in domains[j]:
                index.setdefault(v, []).append(v)
            forced[j] = (i, table, index)
        else:
            s, t, _ = forced[j]
            if j not in stored:
                stored.add(j)
                stores[s].append((n + j, t))
            checks[max(s, i)].append((i, n + j, table))
    results: list[dict] = []
    value: list = [None] * (2 * n)
    todo: list = [None] * n            # remaining candidates of each cell
    last = n - 1
    i = 0
    todo[0] = iter(domains[0])
    while i >= 0:
        for v in todo[i]:
            value[i] = v
            for k, table in stores[i]:
                value[k] = table[v]
            for s, d, table in checks[i]:
                if table[value[s]] != value[d]:
                    break
            else:
                break
        else:
            i -= 1
            continue
        if i == last:
            results.append(dict(zip(cells, value)))
            continue
        i += 1
        if forced[i] is None:
            todo[i] = iter(domains[i])
        else:
            s, table, index = forced[i]
            todo[i] = iter(index.get(table[value[s]], ()))
    return results

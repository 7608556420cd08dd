"""One search for natural families: assign a value to each cell so that
every equality constraint along an arrow holds.

Limits, matching objects, ``Nat(F, G)``, the exponential's ``Nat(F x y_d,
G)`` and transformations out of a simplicial subset are all instances; see
``categories.limit_direct``, ``categories.diagram_nat_transforms``,
``categories.exponential_diagram`` and ``simplex.nat_transforms``.
"""

from __future__ import annotations


def solve(cells: list, domains: list, constraints) -> list[dict]:
    """All assignments ``cell -> value`` with ``value[dst] ==
    table[value[src]]`` for every constraint ``(src, dst, table)``.

    ``domains[i]`` lists the candidate values of ``cells[i]``.  Solutions
    come out in lexicographic order of the cells, each cell's values taken
    in domain order, as dicts keyed in cell order.  The search is forward
    checking: each constraint is indexed once by the later of its two
    cells; the first one whose ``src`` is earlier fixes its ``dst`` from
    ``table`` instead of trying every value, and every other is checked
    when its later cell is assigned.
    """
    if not cells:
        return [{}]
    if not all(domains):
        return []
    n = len(cells)
    pos = {cell: i for i, cell in enumerate(cells)}
    forced: list = [None] * n          # (earlier src index, table, index)
    checks: list = [[] for _ in range(n)]
    for src, dst, table in constraints:
        i, j = pos[src], pos[dst]
        if i < j and forced[j] is None:
            # The forced value selects the domain elements equal to it, in
            # domain order: one, or several if the domain repeats a value.
            index: dict = {}
            for v in domains[j]:
                index.setdefault(v, []).append(v)
            forced[j] = (i, table, index)
        else:
            checks[max(i, j)].append((i, j, table))
    results: list[dict] = []
    value: list = [None] * n
    todo: list = [None] * n            # remaining candidates of each cell
    last = n - 1
    i = 0
    todo[0] = iter(domains[0])
    while i >= 0:
        for v in todo[i]:
            value[i] = v
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

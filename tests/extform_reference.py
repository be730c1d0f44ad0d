"""Reference constructive dual: one forward pass in the costs' own
arithmetic, one value per dual variable.

A frozen copy of nnfopt's original dual_optimize.  The library's
integer version must return the same value and the same assignment on
every normalized circuit and cost map; keep this copy as it is.
"""

from nnfopt.circuit import AND, OR, check_normalized


def dual_optimize_reference(c, cost):
    check_normalized(c, require_smooth=False)
    record_kids = c.record_kids
    if not record_kids[c.output]:
        raise ValueError("unsatisfiable circuit: the primal system is infeasible")

    z: dict = {}
    base: list = []     # per gate: its Or variable, or the sum of its And variables
    eid = 0
    for nid, (kind, ks) in enumerate(zip(c.columns[0], record_kids)):
        if kind == AND:
            acc = 0
            for e, ch in enumerate(ks, eid):
                z[("and", nid, e)] = got = _plus(cost.get(e), base[ch])
                acc += got
            base.append(acc)
        elif kind == OR and ks:
            z[("or", nid)] = got = max(_plus(cost.get(e), base[ch])
                                       for e, ch in enumerate(ks, eid))
            base.append(got)
        else:
            # a childless Or has no dual variable for a parent to read
            base.append(None if kind == OR else 0)
        eid += len(ks)
    return z[("or", c.output)], z


def _plus(cost, value):
    return value if cost is None else cost + value

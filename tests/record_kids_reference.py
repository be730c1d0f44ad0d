"""Reference block expansion: NnfCircuit.record_kids as first written.

A frozen copy of nnfopt's original record_kids, which looks each block
literal up by its (positive mask, negative mask) key and sorts
(universe rank, node) pairs.  The library's table version must return
the same tuples on every circuit; keep this copy as it is.
"""

from nnfopt.circuit import AND, LIT


def record_kids_reference(c):
    kinds, kids, pos, neg = c.columns
    if not any(a or b for kind, a, b in zip(kinds, pos, neg) if kind == AND):
        return tuple(kids)
    upos = {v: i for i, v in enumerate(c.variables)}
    rank = tuple(upos[v] for v in c.bit_variables)
    lit_id: dict = {}
    for nid, kind in enumerate(kinds):
        if kind == LIT:
            lit_id.setdefault((pos[nid], neg[nid]), nid)
    out = []
    for kind, ks, a, b in zip(kinds, kids, pos, neg):
        if kind == AND and (a or b):
            lits = sorted([(rank[i], lit_id[(1 << i, 0)]) for i in _bits(a)]
                          + [(rank[i], lit_id[(0, 1 << i)]) for i in _bits(b)])
            ks = tuple(lid for _, lid in lits) + tuple(ks)
        out.append(ks)
    return tuple(out)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

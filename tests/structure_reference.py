"""Reference structure check: circuit.check_structure as first written.

A frozen copy of nnfopt's check_structure before its lean pass, which
builds the masks of mentioned-but-not-fixed variables at every And and
reads each Or's children twice.  The library's version must return the
same report, and raise the same ValueError, on every circuit; keep this
copy as it is.  It caches its report on the circuit as the library
does, so a comparison clears the circuit's `_structure` between calls.
"""

from itertools import chain

from nnfopt.circuit import OR, SELECTOR, StructureReport, _decision_markers


def check_structure_reference(c) -> StructureReport:
    """Structural decomposability, determinism and smoothness.

    Determinism is judged through decision markers only: an Or node passes
    with at most one child, marked SELECTOR (trusted, the transformations
    that write it keep children model-disjoint), or marked by the bit of
    a decision variable whose value each child provably fixes, pairwise
    differently.  A node fixes a variable on structural evidence only:
    literal leaves, the children of an And that mention it and agree, and
    Or nodes whose children all fix it alike.  Semantic determinism of
    arbitrary circuits is not attempted.  Any other marker is a
    ValueError.

    One pass over variable masks; fixed values are tracked as two masks
    over the decision variables, and a child's masks are dropped once its
    last parent has read them.  Circuits are immutable, so the report is
    computed on the first call for a circuit and kept on it.
    """
    rep = c.__dict__.get("_structure")
    if rep is not None:
        return rep
    kinds, kids, pos, neg = c.columns
    # decision marker -> its variable's mask, one shift per distinct marker
    dbit = {m: 1 << m for m in _decision_markers(c)}
    dmask = sum(dbit.values())
    refs = [0] * len(kinds)
    for ch in chain.from_iterable(kids):
        refs[ch] += 1
    refs[c.output] += 1
    vm: list = [0] * len(kinds)     # variables mentioned
    f1: list = [0] * len(kinds)     # decision variables fixed to 1
    f0: list = [0] * len(kinds)     # decision variables fixed to 0
    decomposable = smooth = deterministic = True
    for nid, (kind, ks, a, b) in enumerate(zip(kinds, kids, pos, neg)):
        if kind != OR:
            m = a | b
            clash = a & b
            if clash:
                decomposable = False
            x1, x0 = a & dmask, b & dmask
            if not (ks or clash):
                vm[nid], f1[nid], f0[nid] = m, x1, x0
                continue
            not1, not0 = x0, x1
            for ch in ks:
                cm = vm[ch]
                if m & cm:
                    decomposable = False
                m |= cm
                c1, c0, cd = f1[ch], f0[ch], cm & dmask
                x1 |= c1
                x0 |= c0
                not1 |= cd ^ c1     # fixed variables are mentioned ones
                not0 |= cd ^ c0
                refs[ch] -= 1
                if not refs[ch]:
                    vm[ch] = f1[ch] = f0[ch] = 0
            vm[nid], f1[nid], f0[nid] = m, x1 ^ (x1 & not1), x0 ^ (x0 & not0)
        else:
            m = 0
            x1 = x0 = dmask if ks else 0
            for ch in ks:
                m |= vm[ch]
                x1 &= f1[ch]
                x0 &= f0[ch]
            if len(ks) > 1:
                if a is None:
                    deterministic = False
                elif a != SELECTOR:
                    d = dbit[a]
                    if len(ks) != 2 or not (
                            (f0[ks[0]] & d and f1[ks[1]] & d)
                            or (f1[ks[0]] & d and f0[ks[1]] & d)):
                        deterministic = False
            for ch in ks:
                if vm[ch] != m:
                    smooth = False
                refs[ch] -= 1
                if not refs[ch]:
                    vm[ch] = f1[ch] = f0[ch] = 0
            vm[nid], f1[nid], f0[nid] = m, x1, x0
    c._structure = StructureReport(decomposable, deterministic, smooth)
    return c._structure

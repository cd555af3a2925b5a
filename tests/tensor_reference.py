"""Reference rewriting system for A^(tensor k), kept to cross-check qpalg.

The tensor power is presented inside one free algebra: a copy of every
rule of the base system in each factor, plus every cross-commutation that
moves a letter of a later factor past a letter of an earlier one, all
interreduced through `RewriteSystem.from_relations`.  qpalg computes the
same normal forms factor by factor, without building this system.
"""

from qpalg.ncalg import NCPoly, TensorAlgebra
from qpalg.rewrite import RewriteSystem


def straighten_relations(tensor: TensorAlgebra) -> list[NCPoly]:
    """Cross-commutation relations: later-factor letter past earlier one."""
    rels = []
    nb = len(tensor.base)
    for hi in range(1, tensor.factors):
        for lo in range(hi):
            for g in range(nb):
                for h in range(nb):
                    a = tensor.letter(g, hi)
                    b = tensor.letter(h, lo)
                    rels.append(NCPoly(tensor.alphabet, {(a, b): 1, (b, a): -1}))
    return rels


def reference_tensor_system(system: RewriteSystem, tensor: TensorAlgebra) -> RewriteSystem:
    """Per-factor rule copies plus straightening, interreduced."""
    rels = []
    for rule in system.rules:
        rel = rule.as_relation()
        for f in range(tensor.factors):
            rels.append(tensor.inject(rel, f))
    rels.extend(straighten_relations(tensor))
    return RewriteSystem.from_relations(tensor.alphabet, rels)

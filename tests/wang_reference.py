"""Wang's block-matrix map, kept to cross-check qpalg's block quotient.

The two-idempotent algebra T = <p, q | p^2 = p, q^2 = q> carries the
magic matrix W with blocks [[p, 1 - p], [1 - p, p]] and
[[q, 1 - q], [1 - q, q]] followed by an identity block, so u_ij -> W_ij
is an algebra map from the size-n magic algebra onto T (Wang, CMP 195,
1998).  qpalg reads the same normal forms in the block quotient of A_s(n)
on blocks (2, 2, 1, ..., 1), without a second alphabet.
"""

from qpalg.ncalg import Alphabet, NCPoly, substitute
from qpalg.rewrite import RewriteSystem, complete, normal_form


def two_idempotents() -> RewriteSystem:
    """T = <p, q | p^2 = p, q^2 = q>, completed."""
    alphabet = Alphabet(["p", "q"])
    p, q = NCPoly.gen(alphabet, 0), NCPoly.gen(alphabet, 1)
    return complete(RewriteSystem.from_relations(alphabet, [p * p - p, q * q - q]), 4).system


def block_matrix(n: int, target: RewriteSystem) -> list[list[NCPoly]]:
    """W over T as rows of entries, for n >= 4."""
    p, q = NCPoly.gen(target.alphabet, 0), NCPoly.gen(target.alphabet, 1)
    one, zero = NCPoly.one(target.alphabet), NCPoly.zero(target.alphabet)
    entries = [[zero] * n for _ in range(n)]
    entries[0][0], entries[0][1] = p, one - p
    entries[1][0], entries[1][1] = one - p, p
    entries[2][2], entries[2][3] = q, one - q
    entries[3][2], entries[3][3] = one - q, q
    for i in range(4, n):
        entries[i][i] = one
    return entries


def image_under_w(poly: NCPoly, n: int, target: RewriteSystem) -> NCPoly:
    """Normal form in T of the image of a u-polynomial under u_ij -> W_ij."""
    w = block_matrix(n, target)
    images = {i * n + j: w[i][j] for i in range(n) for j in range(n)}
    return normal_form(substitute(poly, images), target)

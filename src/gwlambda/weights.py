"""Weights and Weyl characters of the special orthogonal groups.

Characters of the odd (B) and even (D) special orthogonal series are
computed by Freudenthal's multiplicity formula on the dominant weights
below the highest weight, in exact integers (pairings with 2*rho, so the
half-integral rho of the B series stays integral).  Each Weyl orbit of
those weights is listed once, into one map from weight to dominant
representative, which both answers the formula's lookups and is the
character's support: signed permutations for B; for D, evenly signed ones,
kept by the parity of their minus signs.  The dimension comes from Weyl's
product formula, computed independently.

Dominance is the partial-sum order, literally: prefix sums for B, prefix
sums plus the sum with the last coordinate negated for D (``_below``).  A
character's dominant weights lie below its highest weight, and for D also
in its root-lattice coset; ``check_triangularity`` asks no lattice coset.

The simple modules of the extended torus (1, d, and one [e^g] per nonzero
{g, -g} orbit) are the basis of ``lambda_rings.KExtTorusRing``.
"""

import itertools
import operator
from collections import namedtuple
from functools import lru_cache

from .errors import DomainError

# Caps on a character's input, checked before any work (README): _orbit
# lists n! permutations per dominant weight; the support lies in the box
# [-w1, w1]^n of the highest weight w; Freudenthal walks root strings of up
# to 2 w1 + 1 weights from every dominant weight.
MAX_WEYL_RANK = 8
MAX_WEIGHT_BOX = 200_000
MAX_TOP_ENTRY = 20


class Flavor(namedtuple("Flavor", "kind n")):
    """Series of the special orthogonal group: B (odd) or D (even)."""

    __slots__ = ()

    def __new__(cls, kind, n):
        if kind not in ("B", "D"):
            raise DomainError("flavor kind must be 'B' or 'D'")
        if kind == "B" and n < 1:
            raise DomainError("B flavor needs n >= 1")
        if kind == "D" and n < 2:
            raise DomainError("D flavor needs n >= 2")
        return super().__new__(cls, kind, n)


def _check_weight(flavor, weight):
    weight = tuple(int(v) for v in weight)
    if len(weight) != flavor.n:
        raise DomainError(
            "weight has %d coordinates, flavor needs %d" % (len(weight), flavor.n)
        )
    return weight


def is_dominant(weight, flavor):
    w = _check_weight(flavor, weight)
    n = flavor.n
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        return False
    if flavor.kind == "B":
        return w[-1] >= 0
    return n < 2 or w[n - 2] >= abs(w[n - 1])


def _highest_weight(flavor, weight):
    """A checked weight that is dominant, as a highest weight must be."""
    weight = _check_weight(flavor, weight)
    if not is_dominant(weight, flavor):
        raise DomainError("highest weight must be dominant")
    return weight


def _partial_sums(flavor, w):
    """The prefix sums S_1..S_n of a checked weight; for D also S_n - 2 w_n,
    the full sum with the last coordinate negated."""
    sums = list(itertools.accumulate(w))
    if flavor.kind == "D":
        sums.append(sums[-1] - 2 * w[-1])
    return sums


def _below(sums, upper_sums):
    return all(map(operator.le, sums, upper_sums))


# ---------------------------------------------------------------------------
# Weyl characters by Freudenthal's formula


@lru_cache(maxsize=None)
def _root_system(kind, n):
    """The positive roots (e_i - e_j and e_i + e_j for i < j, and e_i for B)
    and 2 rho, their sum."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (-1, 1):
                root = [0] * n
                root[i], root[j] = 1, sign
                roots.append(tuple(root))
    if kind == "B":
        roots.extend(tuple(int(i == j) for j in range(n)) for i in range(n))
    return tuple(roots), tuple(map(sum, zip(*roots)))


def _pairing(u, v):
    return sum(a * b for a, b in zip(u, v))


def _dominant_weights(flavor, weight):
    """Dominant mu with weight - mu a non-negative integer combination of
    simple roots: mu below weight in the partial-sum order (``_below``),
    and for D with sum(weight) - sum(mu) even (the D_n root lattice)."""
    top = _partial_sums(flavor, weight)
    out = []
    for mu in itertools.combinations_with_replacement(range(weight[0], -1, -1), flavor.n):
        for sign in (1, -1) if flavor.kind == "D" and mu[-1] else (1,):
            mu_signed = mu[:-1] + (sign * mu[-1],)
            if _below(_partial_sums(flavor, mu_signed), top) and (
                flavor.kind == "B" or (sum(weight) - sum(mu_signed)) % 2 == 0
            ):
                out.append(mu_signed)
    return out


def _orbit(kind, mu):
    """The Weyl orbit of the dominant weight ``mu``, each weight once: the
    signed permutations for B.  For D, every sign pattern when ``mu`` has
    a zero entry (negating a zero changes the parity and nothing else);
    otherwise those whose number of minus signs has the parity of ``mu``'s
    (odd exactly when its last entry is negative)."""
    odd = None if kind == "B" or 0 in mu else mu[-1] < 0
    for perm in set(itertools.permutations(abs(v) for v in mu)):
        for vec in itertools.product(*((v, -v) if v else (0,) for v in perm)):
            if odd is None or sum(v < 0 for v in vec) % 2 == odd:
                yield vec


@lru_cache(maxsize=None)
def _weyl_character_cached(flavor, weight):
    roots, rho2 = _root_system(flavor.kind, flavor.n)

    def level(mu):  # |mu + rho|^2 - |rho|^2, an integer
        return sum(v * (v + r) for v, r in zip(mu, rho2))

    dominant = _dominant_weights(flavor, weight)
    # Every weight of the character, mapped to the dominant weight of its
    # orbit: a weight outside it has multiplicity 0.
    rep_of = {vec: mu for mu in dominant for vec in _orbit(flavor.kind, mu)}
    top = level(weight)
    mult = {weight: 1}
    # Freudenthal: (|weight+rho|^2 - |mu+rho|^2) m(mu)
    #   = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha),
    # solved in decreasing |mu+rho|^2, so every term on the right is known.
    for mu in sorted(dominant, key=level, reverse=True):
        if mu == weight:
            continue
        total = 0
        for alpha in roots:
            nu = tuple(map(operator.add, mu, alpha))
            rep = rep_of.get(nu)
            while rep is not None:
                total += mult[rep] * _pairing(nu, alpha)
                nu = tuple(map(operator.add, nu, alpha))
                rep = rep_of.get(nu)
        m, rem = divmod(2 * total, top - level(mu))
        if rem or m < 1:
            raise AssertionError("Freudenthal multiplicity must be a positive integer")
        mult[mu] = m
    return tuple(sorted((vec, mult[mu]) for vec, mu in rep_of.items()))


def weyl_character(weight, flavor):
    """Character of the simple module with the given dominant highest weight.

    Returns {weight: multiplicity} with all multiplicities positive.
    """
    weight = _highest_weight(flavor, weight)
    top, n = weight[0], flavor.n
    for what, size, cap in (
        ("rank", n, MAX_WEYL_RANK),
        ("first entry", top, MAX_TOP_ENTRY),
        ("weight box", (2 * top + 1) ** n, MAX_WEIGHT_BOX),
    ):
        if size > cap:
            raise DomainError("the %s is %d; characters take up to %d" % (what, size, cap))
    return dict(_weyl_character_cached(flavor, weight))


def weyl_dim(weight, flavor):
    """Dimension by the product formula over positive roots (independent
    of the character computation; used as its oracle):
    prod (2 weight + 2 rho, alpha) / prod (2 rho, alpha), divided exactly."""
    weight = _highest_weight(flavor, weight)
    roots, rho2 = _root_system(flavor.kind, flavor.n)
    shifted = tuple(2 * w + r for w, r in zip(weight, rho2))
    num = den = 1
    for alpha in roots:
        num *= _pairing(shifted, alpha)
        den *= _pairing(rho2, alpha)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError("dimension formula must produce an integer")
    return dim


def character_mass(char):
    return sum(char.values())


def check_triangularity(weight, flavor):
    """Highest weight has multiplicity 1 and dominates the whole support."""
    weight = _check_weight(flavor, weight)
    char = weyl_character(weight, flavor)
    if char.get(weight) != 1:
        return False
    top = _partial_sums(flavor, weight)
    return all(_below(_partial_sums(flavor, mu), top) for mu in char)


# ---------------------------------------------------------------------------
# exchange format


def char_record(char, n):
    """JSON-ready record: {n, terms} with terms sorted lex by weight."""
    terms = [
        {"weight": list(w), "mult": m} for w, m in sorted(char.items())
    ]
    return {"n": n, "terms": terms}

"""Weights, Weyl characters, and restriction to the extended torus.

Characters of the odd (B) and even (D) special orthogonal series are
computed from the Weyl character formula as exact Laurent polynomials:
alternating orbit sums over signed permutations (evenly signed for D),
followed by exact division.  All arithmetic is on doubled weights so that
the half-integral shift of the B series stays integral.

Dominance is the partial-sum order, literally: prefix sums for B, prefix
sums plus the sum with the last coordinate negated for D.  No root-lattice
membership is imposed.

The rank is capped (default 4, override via GWLAMBDA_WEYL_RANK_CAP) since
the group sums grow as 2^n n!.
"""

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, FormatError, _checked
from .fields import _is_prime

RANK_CAP_ENV = "GWLAMBDA_WEYL_RANK_CAP"
_DEFAULT_RANK_CAP = 4


@dataclass(frozen=True)
class Flavor:
    """Series of the special orthogonal group: B (odd) or D (even)."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("B", "D"):
            raise DomainError("flavor kind must be 'B' or 'D'")
        if self.kind == "B" and self.n < 1:
            raise DomainError("B flavor needs n >= 1")
        if self.kind == "D" and self.n < 2:
            raise DomainError("D flavor needs n >= 2")


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


def dominance_leq(lower, upper, flavor):
    """Partial-sum order: lower <= upper.

    B: every prefix sum of ``lower`` is bounded by the one of ``upper``.
    D: the same, plus the full sum with the last coordinate negated.
    """
    a = _check_weight(flavor, lower)
    b = _check_weight(flavor, upper)
    n = flavor.n
    for t in range(1, n + 1):
        if sum(a[:t]) > sum(b[:t]):
            return False
    if flavor.kind == "D":
        if sum(a[:-1]) - a[-1] > sum(b[:-1]) - b[-1]:
            return False
    return True


def minus(weight):
    """The companion weight with the last coordinate negated."""
    weight = tuple(weight)
    if not weight:
        raise DomainError("weight must have at least one coordinate")
    return weight[:-1] + (-weight[-1],)


# ---------------------------------------------------------------------------
# Weyl character formula


def _rank_cap():
    raw = os.environ.get(RANK_CAP_ENV, "")
    try:
        return int(raw) if raw else _DEFAULT_RANK_CAP
    except ValueError:
        raise DomainError("%s must be an integer" % RANK_CAP_ENV) from None


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _alternating_sum(n, v, even_only):
    """Sum of sign(w) e^{w(v)} over signed permutations (evenly signed if asked)."""
    terms = {}
    for perm in itertools.permutations(range(n)):
        ps = _perm_sign(perm)
        for signs in itertools.product((1, -1), repeat=n):
            sp = math.prod(signs)
            if even_only and sp < 0:
                continue
            key = tuple(signs[i] * v[perm[i]] for i in range(n))
            s = ps * sp
            terms[key] = terms.get(key, 0) + s
    return {k: c for k, c in terms.items() if c}


def _laurent_divide(num, den):
    """Exact division of Laurent polynomials on Z^n, lex leading terms."""
    if not den:
        raise DomainError("division by the zero polynomial")
    den_lead = max(den)
    if den[den_lead] != 1:
        raise AssertionError("denominator leading coefficient must be 1")
    rem = dict(num)
    quo = {}
    steps = 0
    while rem:
        steps += 1
        if steps > 10**6:
            raise AssertionError("non-exact character division")
        lead = max(rem)
        shift = tuple(a - b for a, b in zip(lead, den_lead))
        coeff = rem[lead]
        quo[shift] = quo.get(shift, 0) + coeff
        for key, val in den.items():
            nk = tuple(a + b for a, b in zip(key, shift))
            nv = rem.get(nk, 0) - coeff * val
            if nv:
                rem[nk] = nv
            else:
                rem.pop(nk, None)
    return quo


def _doubled_rho(flavor):
    n = flavor.n
    if flavor.kind == "B":
        return tuple(2 * (n - i) - 1 for i in range(n))  # 2n-1, 2n-3, ..., 1
    return tuple(2 * (n - 1 - i) for i in range(n))  # 2n-2, ..., 2, 0


@lru_cache(maxsize=None)
def _weyl_character_cached(kind, n, weight):
    flavor = Flavor(kind, n)
    even_only = kind == "D"
    rho2 = _doubled_rho(flavor)
    shifted = tuple(2 * w + r for w, r in zip(weight, rho2))
    num = _alternating_sum(n, shifted, even_only)
    den = _alternating_sum(n, rho2, even_only)
    quo = _laurent_divide(num, den)
    out = {}
    for key, mult in quo.items():
        if any(v % 2 for v in key):
            raise AssertionError("character support must lie on the weight lattice")
        out[tuple(v // 2 for v in key)] = mult
    return tuple(sorted(out.items()))


def weyl_character(weight, flavor):
    """Character of the simple module with the given dominant highest weight.

    Returns {weight: multiplicity} with all multiplicities positive.
    """
    weight = _check_weight(flavor, weight)
    if not is_dominant(weight, flavor):
        raise DomainError("highest weight must be dominant")
    cap = _rank_cap()
    if flavor.n > cap:
        raise DomainError(
            "rank %d exceeds the cap %d (set %s to raise it)"
            % (flavor.n, cap, RANK_CAP_ENV)
        )
    return dict(_weyl_character_cached(flavor.kind, flavor.n, weight))


def weyl_dim(weight, flavor):
    """Dimension by the product formula over positive roots (independent
    of the character computation; used as its oracle)."""
    weight = _check_weight(flavor, weight)
    if not is_dominant(weight, flavor):
        raise DomainError("highest weight must be dominant")
    n = flavor.n
    if flavor.kind == "B":
        rho = [Fraction(2 * (n - i) - 1, 2) for i in range(n)]
    else:
        rho = [Fraction(n - 1 - i) for i in range(n)]
    lam = [Fraction(w) for w in weight]
    top = [a + b for a, b in zip(lam, rho)]

    def pairing(v, coeffs):
        return sum(c * x for c, x in zip(coeffs, v))

    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            plus = [0] * n
            plus[i], plus[j] = 1, 1
            minusr = [0] * n
            minusr[i], minusr[j] = 1, -1
            roots.append(plus)
            roots.append(minusr)
    if flavor.kind == "B":
        for i in range(n):
            single = [0] * n
            single[i] = 1
            roots.append(single)
    dim = Fraction(1)
    for root in roots:
        dim *= Fraction(pairing(top, root), 1) / pairing(rho, root)
    if dim.denominator != 1:
        raise AssertionError("dimension formula must produce an integer")
    return int(dim)


def character_mass(char):
    return sum(char.values())


def check_triangularity(weight, flavor):
    """Highest weight has multiplicity 1 and dominates the whole support."""
    weight = _check_weight(flavor, weight)
    char = weyl_character(weight, flavor)
    if char.get(weight) != 1:
        return False
    return all(dominance_leq(mu, weight, flavor) for mu in char)


# ---------------------------------------------------------------------------
# restriction to the extended torus


def canonical_rep(gamma):
    """Flip the global sign so the first nonzero coordinate is positive."""
    for v in gamma:
        if v > 0:
            return tuple(gamma)
        if v < 0:
            return tuple(-x for x in gamma)
    return tuple(gamma)


def fold_restriction(char):
    """Fold a negation-symmetric character into {g, -g} orbit multiplicities.

    Returns (pairs, zero_mass): ``pairs`` maps each canonical nonzero
    weight to its multiplicity, ``zero_mass`` is the multiplicity at 0.
    """
    char = {tuple(k): v for k, v in char.items() if v}
    for gamma, mult in char.items():
        neg = tuple(-v for v in gamma)
        if char.get(neg, 0) != mult:
            raise DomainError(
                "character is not self-dual at torus level: "
                "multiplicity mismatch at %r" % (gamma,)
            )
    pairs = {}
    zero_mass = 0
    for gamma, mult in char.items():
        if all(v == 0 for v in gamma):
            zero_mass = mult
            continue
        rep = canonical_rep(gamma)
        if rep == gamma:
            pairs[rep] = mult
    return pairs, zero_mass


# ---------------------------------------------------------------------------
# simple modules of the extension, over a splitting coefficient field


@dataclass(frozen=True)
class OrbitSimple:
    """A simple module tagged by its source orbit on the weight lattice.

    kind 'fixed' (the zero orbit, which lifts; label names the extension
    of the lift by the trivial or the sign character) or 'induced' (a free
    {g, -g} orbit with canonical representative ``rep``).
    """

    kind: str
    label: str = ""
    rep: tuple = ()
    endo_dim: int = 1


def classify_semidirect(r, bound):
    """Simple modules with weights in the box [-bound, bound]^r.

    The zero orbit is fixed by the involution and its one-dimensional
    module lifts in two ways; every other orbit in the box is free and
    induces one simple of dimension 2.
    """
    if r < 1:
        raise DomainError("torus rank must be >= 1")
    if bound < 0:
        raise DomainError("bound must be >= 0")
    out = [
        OrbitSimple(kind="fixed", label="1"),
        OrbitSimple(kind="fixed", label="delta"),
    ]
    reps = set()
    for coords in itertools.product(range(-bound, bound + 1), repeat=r):
        if any(coords):
            reps.add(canonical_rep(coords))
    out.extend(OrbitSimple(kind="induced", rep=g) for g in sorted(reps))
    return tuple(out)


def endo_dim(case, p, end_h):
    """Endomorphism dimension of an induced-from-H simple over any field.

    ``case`` is the orbit/lift situation of the inducing simple, ``p`` the
    index of the subgroup (a prime), ``end_h`` the endomorphism dimension
    below.  A fixed simple that lifts keeps end_h (as does a free orbit);
    a fixed simple with no lift induces irreducibly with p times it.
    """
    if not _is_prime(p):
        raise DomainError("index must be prime")
    if end_h < 1:
        raise DomainError("endomorphism dimension must be >= 1")
    if case == "fixed-with-lift":
        return end_h
    if case == "free":
        return end_h
    if case == "fixed-without-lift":
        return p * end_h
    raise DomainError(
        "case must be 'fixed-with-lift', 'fixed-without-lift', or 'free'"
    )


# ---------------------------------------------------------------------------
# exchange format


def char_record(char, n):
    """JSON-ready record: {n, terms} with terms sorted lex by weight."""
    terms = [
        {"weight": list(w), "mult": m} for w, m in sorted(char.items())
    ]
    return {"n": n, "terms": terms}


def parse_char(record):
    record = _checked(record, dict, "character record")
    n = _checked(record.get("n"), int, "n")
    if n < 1:
        raise FormatError("n must be a positive integer")
    out = {}
    for idx, term in enumerate(_checked(record.get("terms"), list, "terms")):
        where = "terms[%d]" % idx
        term = _checked(term, dict, where)
        weight = _checked(term.get("weight"), list, where + ".weight")
        if len(weight) != n:
            raise FormatError("%s.weight must be a list of %d integers" % (where, n))
        key = tuple(
            _checked(v, int, "%s.weight[%d]" % (where, i)) for i, v in enumerate(weight)
        )
        mult = _checked(term.get("mult"), int, where + ".mult")
        out[key] = out.get(key, 0) + mult
    return {k: v for k, v in out.items() if v}

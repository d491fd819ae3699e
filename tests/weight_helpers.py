"""Weight functions that only the tests use.

The companion weight with the last coordinate negated, the dominance
order between two weights, the folding of a character into {g, -g} orbits,
the endomorphism dimension of an induced simple, the reader of a
character record, and the highest weights of the benchmark.  They are built on the helpers of ``gwlambda.weights``,
``gwlambda.lambda_rings`` and ``gwlambda.errors`` that the program itself
runs.
"""

import itertools

from gwlambda.errors import DomainError, FormatError, _checked
from gwlambda.fields import _is_prime
from gwlambda.lambda_rings import canonical_rep
from gwlambda.weights import Flavor, _below, _check_weight, _partial_sums


def minus(weight):
    """The companion weight with the last coordinate negated."""
    weight = tuple(weight)
    if not weight:
        raise DomainError("weight must have at least one coordinate")
    return weight[:-1] + (-weight[-1],)


def dominance_leq(lower, upper, flavor):
    """Partial-sum order: lower <= upper.

    B: every prefix sum of ``lower`` is bounded by the one of ``upper``.
    D: the same, plus the full sum with the last coordinate negated.
    """
    a = _check_weight(flavor, lower)
    b = _check_weight(flavor, upper)
    return _below(_partial_sums(flavor, a), _partial_sums(flavor, b))


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


def parse_char(record):
    """The character of a ``char_record``: equal weights merged, zeros dropped."""
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


def benchmark_weights(n):
    """The B_n and D_n highest weights with entries in 0..2 summing to at most 4."""
    tops = [
        w for w in itertools.product(range(2, -1, -1), repeat=n)
        if list(w) == sorted(w, reverse=True) and sum(w) <= 4
    ]
    return [(w, Flavor(kind, n)) for kind in ("B", "D") for w in tops]

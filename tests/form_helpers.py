"""Field arithmetic for the elimination oracles, a form constructor and a
GW(F) class oracle that only the tests use."""

from gwlambda.forms import GramForm, GWClass


def add(field, a, b):
    """a + b in the field: the plain sum, reduced mod q over fq."""
    total = a + b
    return total % field.q if field.kind == "fq" else total


def neg(field, a):
    """-a in the field."""
    return -a % field.q if field.kind == "fq" else -a


def inv(field, a):
    """1/a in the field, for a nonzero a."""
    return pow(a, -1, field.q) if field.kind == "fq" else 1 / a


def diagonal_form(field, entries):
    """The form <a1,...,an> with the given nonzero diagonal entries."""
    entries = list(entries)
    gram = [
        [entries[i] if i == j else field.zero for j in range(len(entries))]
        for i in range(len(entries))
    ]
    return GramForm(field, gram)


def diagonal_class(x):
    """Oracle: the class in GW(F) of an element x of ``GWFieldRing``, from
    its signed counts per square class by ``GWClass.of_diagonal``; it
    shares no code with the ring's equality."""
    classes = x.ring.field.square_classes
    pos = [classes[i] for i, c in x.terms.items() for _ in range(c)]
    neg = [classes[i] for i, c in x.terms.items() for _ in range(-c)]
    return GWClass.of_diagonal(x.ring.field, pos, neg)

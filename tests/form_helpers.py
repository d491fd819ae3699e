"""A form constructor that only the tests use."""

from gwlambda.forms import GramForm


def diagonal_form(field, entries):
    """The form <a1,...,an> with the given nonzero diagonal entries."""
    entries = list(entries)
    gram = [
        [entries[i] if i == j else field.zero for j in range(len(entries))]
        for i in range(len(entries))
    ]
    return GramForm(field, gram)

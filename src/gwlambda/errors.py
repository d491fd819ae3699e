"""Shared exception types."""


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class NotSymmetricError(DomainError):
    """A polynomial expected to be symmetric in each alphabet is not."""


class FormatError(DomainError):
    """A serialized record violates the exchange format."""


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _checked(value, kind, where):
    """``value`` if it is a JSON integer, string, list or object as ``kind`` asks.

    JSON ``true``/``false`` load as ``bool``, a subclass of ``int``; they
    are not integers here.  Shared by every record parser.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError("%s must be %s" % (where, _JSON_KINDS[kind]))
    return value

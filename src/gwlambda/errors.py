"""Shared exception types, and the JSON checks shared by every record parser."""

import json


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class FormatError(DomainError):
    """A serialized record violates the exchange format."""


# Every integer read from argv or from a record has absolute value below
# INT_LIMIT.  The work caps assume it: with them, no integer that a run
# computes or prints comes near Python's 4,300-digit limit on int-to-str
# conversion, and no count of repeats overflows a C size.
INT_LIMIT = 2**63


def _bounded(where, *values):
    """Refuse, naming ``where``, an integer of absolute value INT_LIMIT or more."""
    if any(not -INT_LIMIT < v < INT_LIMIT for v in values):
        raise FormatError("%s must have absolute value below 2**63" % where)


def _ints(text, where):
    """The comma-separated integers of ``text``, each checked by ``_bounded``."""
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise FormatError("%s must be a comma-separated integer list" % where) from None
    _bounded(where, *values)
    return values


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _checked(value, kind, where):
    """``value`` if it is a JSON integer, string, list or object as ``kind`` asks.

    JSON ``true``/``false`` load as ``bool``, a subclass of ``int``; they
    are not integers here, and an integer must pass ``_bounded``.  Shared by
    every record parser.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError("%s must be %s" % (where, _JSON_KINDS[kind]))
    if kind is int:
        _bounded(where, value)
    return value


def _load_json(path):
    """The JSON value in the file at ``path``.

    Bytes that are not UTF-8, malformed or too deeply nested JSON, and
    integers too long to convert are format errors; ``OSError`` passes
    through.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError("invalid JSON in %s: %s" % (path, exc)) from None

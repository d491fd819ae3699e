"""Exact lambda-ring computations on Grothendieck-Witt rings of symmetric
representations: universal polynomial tables, bilinear-form algebra over
model fields, extension rings of a split torus, and Weyl characters.

``import gwlambda`` loads the field, form and weight layers; ``lambda_rings``,
``symfun`` and ``cli`` load on first attribute access."""

import importlib

from . import fields, forms, weights

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("cli", "lambda_rings", "symfun"):
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

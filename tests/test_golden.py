"""Byte-identical records output for a fixed set of small sweeps.

Each case pins the sha256 of the full ``--format records`` output of one
``gwlambda check --sweep`` run.  A change to the engine that keeps every
result but alters a single byte of a record (term order, coefficient
representatives, the pass flag) fails here; such a change must say why in
CHANGES.md and update the digest.  The ``--format human`` cases pin the
element display strings (sweep names, and the lhs/rhs of failing checks).
"""

import hashlib
import json

import pytest

from gwlambda import cli

SWEEP = ("check", "--sweep", "--bound", "1", "--format", "records")

CASES = {
    "gw-ext-torus-qc": (
        ("--ring", "gw-ext-torus", "--field", "qc"),
        "c5c502b161e246a2a0068885ed7baac0a9bc7288423657d6c531d1b67b5b79ea",
    ),
    "gw-ext-torus-rc": (
        ("--ring", "gw-ext-torus", "--field", "rc"),
        "014ee612070d9166381fa33f4fbbdb3fab3eeff3d5ee93df3d77904f083ad5b2",
    ),
    "gw-ext-torus-rc-r2": (
        ("--ring", "gw-ext-torus", "--field", "rc", "--r", "2"),
        "68b18f9e1b7aed37277555c9804243840719981d4680c4ac7c3b04f503d59c85",
    ),
    "gw-ext-torus-fq3": (
        ("--ring", "gw-ext-torus", "--field", "fq:3"),
        "d26205376e363e0299016af15dfc5ea5f8b937d5f9ed63fab2a4c2f58772f61f",
    ),
    "gw-ext-torus-fq5": (
        ("--ring", "gw-ext-torus", "--field", "fq:5"),
        "49923179d1c75ca71128e757cf82cd4c41591a418ddef20cca4c384d05d926ff",
    ),
    "gw-ext-torus-fq7": (
        ("--ring", "gw-ext-torus", "--field", "fq:7"),
        "97da9014120d181d6f9997da977099b83ab46ebc47665a574d40cb6a0ad00ed6",
    ),
    "k-torus-r2": (
        ("--ring", "k-torus", "--r", "2"),
        "e84edd84ea14e71801142804d0aa93fe663bb06eb30a897cda0e1f8caabfc449",
    ),
    "k-ext-torus": (
        ("--ring", "k-ext-torus"),
        "6c8e0176e73c6a7fec0f7b6822f943b90d6351a6c42c64996e6cb07ebbe983d7",
    ),
    "gw-field-fq7": (
        ("--ring", "gw-field", "--field", "fq:7"),
        "0f373910eae58219279aa1fcdf1a5e5fe1812366d417e3390909b2d21c3802c9",
    ),
    "integers-bound2": (
        ("--ring", "integers", "--bound", "2"),
        "39a6d6291f949c4ed586e013f6286560fe42447ddeee3a2faf5f9ab4e63aa64d",
    ),
}

# Corrupted constants: the failing records carry their lhs and rhs, so
# these pin the rendering of two unequal elements as well.
CORRUPTED = {
    "rc": "eafceb4eed709ccf6e6d875695e6384ba96cf6095604ec6879fc9af9a6a53fc7",
    "fq:3": "e0c788ae7487fe30bdd303558b846458e4dc85e07ed02ce81a6e3424c0fdfa0a",
}


HUMAN_SWEEP = ("check", "--sweep", "--bound", "1", "--format", "human")

HUMAN_K_TORUS_R2 = "f42c57959c2278079101a3001c32b8733ecee435b30f66a6cc9a9a8b4821c720"
HUMAN_CORRUPTED_FQ5 = "d6c47cdfb3117bebccd2bed56a07363e7b842c2c8538d32daa92a0533ac58a92"

HUMAN_CASES = {
    "integers-bound2": (
        ("--ring", "integers", "--bound", "2"),
        "0f167bc3c5825cb650077a823ff15bdcf37bd2b62aab958714c860667b87e218",
    ),
    "gw-field-rc": (
        ("--ring", "gw-field", "--field", "rc"),
        "7dad93f1c762484261467697362d787c56930a0ce895e18286fae64fe286e49d",
    ),
    "gw-field-fq5": (
        ("--ring", "gw-field", "--field", "fq:5"),
        "92ea8905d84592d1ab80f2ce5abe75de17faddca2d34f032f5a1a99b0eb4cd4a",
    ),
}

# Inline integer operands: a product check and a composition check.
INLINE = ("check", "--ring", "integers", "--x", "5", "--y", "-3", "--j", "2", "--kmax", "3")
INLINE_DIGESTS = {
    "records": "3b2bc6128345ce41fe98b113fa18a7430ebe7d89b1f9a22a0696af691966fea3",
    "human": "fb1f33507321b3d257dd41763842ce482a979d228808ef9e934bca3b1f40823b",
}


def records_digest(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_sweep_records_digest(capsys, name):
    flags, digest = CASES[name]
    assert records_digest(capsys, SWEEP + flags) == (0, digest)


@pytest.mark.parametrize("field", CORRUPTED)
def test_corrupted_constants_records_digest(capsys, tmp_path, field):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"lambda2_pair": "one"}))
    argv = SWEEP + (
        "--ring", "gw-ext-torus", "--field", field, "--kmax", "3",
        "--constants", str(constants),
    )
    assert records_digest(capsys, argv) == (1, CORRUPTED[field])


def test_k_torus_human_digest(capsys):
    argv = HUMAN_SWEEP + ("--ring", "k-torus", "--r", "2")
    assert records_digest(capsys, argv) == (0, HUMAN_K_TORUS_R2)


@pytest.mark.parametrize("name", HUMAN_CASES)
def test_sweep_human_digest(capsys, name):
    flags, digest = HUMAN_CASES[name]
    assert records_digest(capsys, HUMAN_SWEEP + flags) == (0, digest)


@pytest.mark.parametrize("fmt", INLINE_DIGESTS)
def test_inline_integers_digest(capsys, fmt):
    argv = INLINE + ("--format", fmt)
    assert records_digest(capsys, argv) == (0, INLINE_DIGESTS[fmt])


def test_corrupted_constants_human_digest(capsys, tmp_path):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"lambda2_pair": "one"}))
    argv = HUMAN_SWEEP + (
        "--ring", "gw-ext-torus", "--field", "fq:5", "--kmax", "3",
        "--constants", str(constants),
    )
    assert records_digest(capsys, argv) == (1, HUMAN_CORRUPTED_FQ5)

"""Byte-identical output for a fixed set of small runs.

Each sweep case pins the sha256 of the full ``--format records`` output of
one ``gwlambda check --sweep`` run.  A change to the engine that keeps every
result but alters a single byte of a record (term order, coefficient
representatives, the pass flag) fails here; such a change must say why in
CHANGES.md and update the digest.  The ``--format human`` cases pin the
element display strings (sweep names, and the lhs/rhs of failing checks).
"""

import hashlib
import json
from pathlib import Path

import pytest

from gwlambda import cli
from gwlambda.forms import diagonalize, exterior_power, gw_class, parse_form, perp_sum, tensor

from weight_helpers import benchmark_weights

# No --bound: a sweep's default bound is 1, and a gw-field sweep takes none.
SWEEP = ("check", "--sweep", "--format", "records")

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
    # 399 records: 14 basis symbols, a box of rank 2 and bound 2
    "k-ext-torus-r2-bound2": (
        ("--ring", "k-ext-torus", "--r", "2", "--bound", "2", "--kmax", "3"),
        "92819a1adbb7e6d71630468b7a05229309e072691ace62e102fa1941c1d9f47f",
    ),
    "gw-field-fq7": (
        ("--ring", "gw-field", "--field", "fq:7"),
        "0f373910eae58219279aa1fcdf1a5e5fe1812366d417e3390909b2d21c3802c9",
    ),
    # Over qc and rc GW(F) zero and equality are read off the counts.
    "gw-field-qc": (
        ("--ring", "gw-field", "--field", "qc"),
        "843321e0ba24a784ccac3776e8b9400ad65832479888fd45bdfbe4a3fbe453b7",
    ),
    "gw-field-rc": (
        ("--ring", "gw-field", "--field", "rc"),
        "0b800729d19000d3ef488cf7edff26749e06bfa98b3872f23b1a27917306eb2e",
    ),
    "gw-ext-torus-qc-r2-bound2-k4": (
        ("--ring", "gw-ext-torus", "--field", "qc", "--r", "2", "--bound", "2", "--kmax", "4"),
        "198ba3619a574cd24319145cec450dac2ebe5227cc129e86f8c6ed91d2fbc368",
    ),
    "integers-bound2": (
        ("--ring", "integers", "--bound", "2"),
        "39a6d6291f949c4ed586e013f6286560fe42447ddeee3a2faf5f9ab4e63aa64d",
    ),
    # The two sweeps of the benchmark (perfbench/README.md): 532 and 90 records.
    "gw-ext-torus-rc-r2-bound2-k4": (
        ("--ring", "gw-ext-torus", "--field", "rc", "--r", "2", "--bound", "2", "--kmax", "4"),
        "e33c60f6fcbea73343d3ecf6d100da2ecc766f8bd1c3b171793acedab8b08457",
    ),
    "gw-ext-torus-fq5-bound2-k5": (
        ("--ring", "gw-ext-torus", "--field", "fq:5", "--r", "1", "--bound", "2", "--kmax", "5"),
        "402cfae4256bf5ea4e59a0fa7986daf876509c05b64e926573b4565052001335",
    ),
}

# Corrupted constants: the failing records carry their lhs and rhs, so
# these pin the rendering of two unequal elements as well.
CORRUPTED = {
    "qc": "ac190ce170e581874d0d768b90340c106ef9a49fc47d620be177616fc404f2f8",
    "rc": "eafceb4eed709ccf6e6d875695e6384ba96cf6095604ec6879fc9af9a6a53fc7",
    "fq:3": "e0c788ae7487fe30bdd303558b846458e4dc85e07ed02ce81a6e3424c0fdfa0a",
}


HUMAN_SWEEP = ("check", "--sweep", "--format", "human")

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


# ``gwlambda forms`` on two Gram matrices with non-integer rational entries
# and zero diagonal entries, read over every field kind.  Each digest covers
# one form, field and format: every exterior power, the class, a
# sub-Lagrangian reduction, the hyperbolic witness and ``hyperbolic --n 3``.
# The zero diagonals take the pivot-swap and sum-of-basis-vectors paths of
# diagonalization; the fractions exercise every field's parsing.
FORMS = {
    "zero-pivot-3": (
        [["1/2", "0", "3"], ["0", "0", "-2/3"], ["3", "-2/3", "5"]],
        "0,1,0",
    ),
    "hyperbolic-like-4": (
        [["0", "1/2", "2", "0"], ["1/2", "0", "0", "-3"],
         ["2", "0", "0", "1"], ["0", "-3", "1", "0"]],
        "1,0,0,0;0,0,0,1",
    ),
}

FORMS_DIGESTS = {
    ("zero-pivot-3", "qc", "records"): "987e8a7c2926c1faf3bfc916f4b8929aceafffdabc180e402df1d61d86a58052",
    ("zero-pivot-3", "qc", "human"): "643e1c05f1be487bad250f9e553619d71549d2e837400b8a26f23cc7a52fdbed",
    ("zero-pivot-3", "rc", "records"): "9a4fefcd72c080304e557450cde54a47723820a7705eee8cc815cd8795c5b946",
    ("zero-pivot-3", "rc", "human"): "991627ec0cdc9ba6ffb1ff0c3b9ed2706a15af100872ad90fa805ab9e81a6236",
    ("zero-pivot-3", "fq:5", "records"): "a0040aa7b4d55387dab66bf3bf2fc0775a64361c67c4df6fee8f0141b7fe5a36",
    ("zero-pivot-3", "fq:5", "human"): "fb709d0f5c03a0e7cc65be26f7525ded43e6bbddb7e4cbc0a1b48fa54b09b0e6",
    ("zero-pivot-3", "fq:7", "records"): "98fcaa1a89267e99d225c4c7744f973791a9dfafb13e5017a38abf88a99e08c1",
    ("zero-pivot-3", "fq:7", "human"): "3aac6ed1e32861e94c0c31f2976db99e32dd8b073fae7afa409888a343d33de5",
    ("hyperbolic-like-4", "qc", "records"): "ca409414b0015ecab74f4f6ad94a3378329f0b4d78638685648e9d226e408c1c",
    ("hyperbolic-like-4", "qc", "human"): "a71da2ee159d2254008542b34360e06bcd76392899903adc890029eefcc8ab3f",
    ("hyperbolic-like-4", "rc", "records"): "d74f44c8260b0e2a3783e76c78ea92e14c3979826dc52751325100c0f991c77c",
    ("hyperbolic-like-4", "rc", "human"): "bc308811c48162fa3cbc5a734cbdfbd070171bd198f18442ace3afcfb7e1035f",
    ("hyperbolic-like-4", "fq:5", "records"): "d0db8be4ed4f0c786eaf701a85174f95795c3cd7cde28aa98d5543f42a1fdfff",
    ("hyperbolic-like-4", "fq:5", "human"): "5fc2154e9c0085ec9a82df6628c42a8b5200caaf234e459f8023c76d74fac118",
    ("hyperbolic-like-4", "fq:7", "records"): "d0bdacd0af35266a686330e77ae6e1d98e991cd773036769ac2f9c167d3602d1",
    ("hyperbolic-like-4", "fq:7", "human"): "e0dd5068596196d5a615d916b98ba087f83e29874dd3c56146f39474672591db",
}


def forms_transcript(capsys, path, field, fmt, dim, vectors):
    """Every ``gwlambda forms`` action on one form file, output concatenated."""
    runs = [("exterior", "--in", path, "--k", str(k)) for k in range(dim + 1)]
    runs += [
        ("class", "--in", path),
        ("reduce", "--in", path, "--vectors", vectors),
        ("hyperbolic-witness", "--in", path),
        ("hyperbolic", "--n", "3", "--field", field),
    ]
    out = []
    for run in runs:
        assert cli.main(["forms", *run, "--format", fmt]) == 0
        out.append(capsys.readouterr().out)
    return "".join(out)


@pytest.mark.parametrize("key", sorted(FORMS_DIGESTS))
def test_forms_digest(capsys, tmp_path, key):
    name, field, fmt = key
    gram, vectors = FORMS[name]
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"field": field, "gram": gram}))
    text = forms_transcript(capsys, str(path), field, fmt, len(gram), vectors)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FORMS_DIGESTS[key]



# ``gwlambda forms reduce`` on a 5-dimensional form with a 1-dimensional
# isotropic N = <v>, v = (1/2, 0, 3, 3, 0).  N-perp has a basis of four
# vectors, and over every field kind the third of them lies in the span of
# N and the first two, so the complement (dimension 3) is chosen by skipping
# it.  The reduced Gram matrix pins that choice and the kernel basis.
REDUCE_GRAM = [
    ["0", "1/2", "1", "0", "2"],
    ["1/2", "3", "0", "-1", "0"],
    ["1", "0", "-2/3", "0", "1"],
    ["0", "-1", "0", "1/3", "4"],
    ["2", "0", "1", "4", "0"],
]
REDUCE_VECTORS = "1/2,0,3,3,0"

REDUCE_DIGESTS = {
    ("qc", "records"): "891ee2a1de93cd193771f43c62a6ca44ec462e9aad8a184dfb4d0fc97f69d274",
    ("qc", "human"): "bb7eba99ab0ce0867c87f19ede3f3750e2e61ec11aae163f2641244c919704bc",
    ("rc", "records"): "5ffe1d7dd594324154b53285323c28f53f7cf016c3cb93f6a910da4b0c0997cf",
    ("rc", "human"): "bb7eba99ab0ce0867c87f19ede3f3750e2e61ec11aae163f2641244c919704bc",
    ("fq:5", "records"): "04e42f9d9100f804930882115508bbd82014750b6fb9b7115b5c79741be32cda",
    ("fq:5", "human"): "e4ad199ba60795ec9af1e4f8ebd7a0a72b8a4f41f65c4f3bdcf11ddcfa780102",
    ("fq:7", "records"): "bf824b9288ecb4eb9050fb0ce18b969b3430c275aba7d3969d02f6c341e59e25",
    ("fq:7", "human"): "2613d13cee758cbc047b5ce0b914a04b5c972ba7ad33cf3d6ce188585bf70db5",
}


@pytest.mark.parametrize("key", sorted(REDUCE_DIGESTS), ids="-".join)
def test_forms_reduce_digest(capsys, tmp_path, key):
    field, fmt = key
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"field": field, "gram": REDUCE_GRAM}))
    argv = ("forms", "reduce", "--in", str(path), "--vectors", REDUCE_VECTORS, "--format", fmt)
    assert records_digest(capsys, argv) == (0, REDUCE_DIGESTS[key])

# ``gwlambda poly --format records``: P_k for k = 1..6, P_kj for every
# j >= 2 with kj <= 9, and P_kj(5, 2), the table the fq:5 kmax=5 sweep
# builds.  These pin the table engine's output byte for byte: term order,
# signs and the text of every coefficient.
POLY_DIGESTS = {
    (1, None): "d43a4c2334a01a50d82938f2ab072337bddc1804515a83f7f4352d8a5245da2d",
    (2, None): "cc09bc07fd4ada447ca4e66cb88fefd61dfc827838eb0b01d09fb7364a86a915",
    (3, None): "fb4dba2996c4f8e481883c82ddbf8683325c18ecd1b9bd85b678cb6d52727d34",
    (4, None): "d1ca7f2d893172d9740da75b1449f2fc21cac63f21d647184d235b48b1c8447e",
    (5, None): "0a36f3bb149dbc491af025b6f2eb09b8825ac02aa6305ca27f57a7d4a4d59a69",
    (6, None): "68e76673b4ff932de62c64acd80a54b8d0bbec4fb232b4dd623c1d009afcd2e2",
    (1, 2): "8964e89916f371d1cfdd4dcca250020313617749013f416143c5adbb4f14ecdc",
    (2, 2): "7bbf73b9d42012e0e82e91f491f0574aa8982c313e239b5bfa956c04631fca9b",
    (3, 2): "8e440be1a7b263932cbcb463123f8bdb9a07e8593aabb6b999935699e3dd5afc",
    (4, 2): "3b744e60a0a6b1828af3d07ff2b13b4544186920d6525740edd94ccfc011d267",
    (1, 3): "5157987889546a19683661e601f26e54e396fbaa32ce67f09fcbbafadb6cfca5",
    (2, 3): "34a33388ff340eaa02ca634ab319e9edc944a16548404d30e9eaf4322549027b",
    (3, 3): "db2173e8b4466b703ccfe5387e8c1d94ba89a7bef91ecb045fccfec0031eded1",
    (1, 4): "31087ae635da3c2f385cb55cc3d716be27f5b16ae9c0ee063f5bd1109b0325b6",
    (2, 4): "8653640725c753c74ccf9aceccf823858617b710cb97110f6369d1a4bf37f701",
    (1, 5): "aa773cac4d7c3fc6a9a1a7505eb6b2ea74514fe8ae282c9a14af0cdb4565d45b",
    (1, 6): "cccdd5c12481395f3c3a1e0ea00c397c8021735b1fc07ab0550a38badb4a453f",
    (1, 7): "f0489284c1dab1333ff42856c3955c8e157b2f1dbba2642ac5d867af4eb2a79b",
    (1, 8): "bb3344f11b45f1a58f69784b75eb7a2242a9af6fea532564a18172bc897e0245",
    (1, 9): "aa32832c340b6e58f2562a1e88d36d7d03def831872babcb4d87066c8c4e863b",
    (5, 2): "8f6f59c97d277290208d5a072ecb0d8f9c64378f7c3c4953461855ed657e0a4e",
}


@pytest.mark.parametrize("k, j", list(POLY_DIGESTS), ids=str)
def test_poly_records_digest(capsys, k, j):
    argv = ("poly", "--k", str(k)) + (() if j is None else ("--j", str(j)))
    assert records_digest(capsys, argv + ("--format", "records")) == (0, POLY_DIGESTS[k, j])


# Virtual elements (negative counts and coefficients), read from element
# files: ``check --x-file --y-file`` and ``check --x-file --j 2``, both with
# ``--kmax 3``.  Every x and y has a negative term, so its lambda-series
# does not stop and goes through truncated series inversion; summation
# order decides which fq counts print for a class (see the comment above
# ``lambda_rings._series_mul``).  The basis sweeps above pin only positive
# elements.
def _c(pos=(), neg=()):
    return {"pos": list(pos), "neg": list(neg)}


def _elt(ring, r, field, terms):
    return {
        "ring": ring, "rank_r": r, "field": field,
        "terms": [{"basis": b, "coeff": k} for b, k in terms],
    }


VIRTUAL = {
    # x = (<2> - <1,1>)[e^2] + (<2> - <1>)*1 - <2,2>[e^1],
    # y = -<1,1,2>*d + <1,1,2,2>*1: reversing either summation order, in
    # _series_mul or in _series_inv, changes the printed counts.
    "gw-ext-torus-fq5": (
        _elt("gw-ext-torus", 1, "fq:5", [
            ("pair:2", _c(["2"], ["1", "1"])), ("one", _c(["2"], ["1"])), ("pair:1", _c([], ["2", "2"])),
        ]),
        _elt("gw-ext-torus", 1, "fq:5", [
            ("delta", _c([], ["1", "1", "2"])), ("one", _c(["1", "1", "2", "2"])),
        ]),
    ),
    # x = (<1> - <-1>)[e^1] + <-1>*d - <1,1>*1,  y = <-1,-1>[e^2] - <1>*d
    "gw-ext-torus-rc": (
        _elt("gw-ext-torus", 1, "rc", [
            ("pair:1", _c(["1"], ["-1"])), ("delta", _c(["-1"])), ("one", _c([], ["1", "1"])),
        ]),
        _elt("gw-ext-torus", 1, "rc", [("pair:2", _c(["-1", "-1"])), ("delta", _c([], ["1"]))]),
    ),
    # x = [e^(1,0)] - 2[e^(1,1)] + d,  y = [e^(0,1)] - 1
    "k-ext-torus-r2": (
        _elt("k-ext-torus", 2, None, [("pair:1,0", 1), ("pair:1,1", -2), ("delta", 1)]),
        _elt("k-ext-torus", 2, None, [("pair:0,1", 1), ("one", -1)]),
    ),
}

VIRTUAL_DIGESTS = {
    ("gw-ext-torus-fq5", "product"): "9862b4775636ad0758cecf85f72d665a490e2ecc1e71cec39bb9b567dfbbf889",
    ("gw-ext-torus-fq5", "composition"): "a8dbc07871c986da589e20e04d1224b5f5dfefdb5e10167a17a91608bffdff28",
    ("gw-ext-torus-rc", "product"): "29d9a4234db065b4aeaeecf534bf9db0721bd3387779b75d21898b89f0e0442e",
    ("gw-ext-torus-rc", "composition"): "9ceac614fa9c219db0358501eb2d5489fc22a2527de239249899762a40b51cef",
    ("k-ext-torus-r2", "product"): "6fcb19f249c905a43cde8135280eb05ea204acca5e6133284588f67e5cc38bbb",
    ("k-ext-torus-r2", "composition"): "c51f681afbf1fa1124683069315b6d85a611c27aeb452f38743e81afe72c260d",
}


def virtual_argv(directory, name, check, fmt):
    """``check`` on the files of VIRTUAL[name]: a product or a composition."""
    paths = []
    for tag, record in zip("xy", VIRTUAL[name]):
        path = directory / ("%s.json" % tag)
        path.write_text(json.dumps(record))
        paths.append(str(path))
    argv = ["check", "--x-file", paths[0], "--kmax", "3", "--format", fmt]
    return argv + (["--y-file", paths[1]] if check == "product" else ["--j", "2"])


@pytest.mark.parametrize("key", sorted(VIRTUAL_DIGESTS), ids="-".join)
def test_virtual_element_records_digest(capsys, tmp_path, key):
    argv = virtual_argv(tmp_path, *key, "records")
    assert records_digest(capsys, argv) == (0, VIRTUAL_DIGESTS[key])


# The fq:5 files in ``--format human``, run from their directory so that
# each line names the operands x.json and y.json; then under corrupted
# constants (lambda^2 of a pair symbol set to 1), where the product still
# passes and the composition fails and prints the lhs and rhs of each
# failing check.
HUMAN_VIRTUAL = {
    ("product", False): (0, "f6d0352ecea8a7efb022c9e268d0d05b49f52bd15df5555345c3b4c765cd8bf7"),
    ("composition", False): (0, "42376f7d449ea565033beb0008785f88b9744aca30aa514065847c776e0b6793"),
    ("product", True): (0, "f6d0352ecea8a7efb022c9e268d0d05b49f52bd15df5555345c3b4c765cd8bf7"),
    ("composition", True): (1, "f421bc2b25a54c1f2c40ab04322077a82601a0f5c11b898b9bfe28e3618f0f76"),
}


@pytest.mark.parametrize("check, corrupted", sorted(HUMAN_VIRTUAL))
def test_virtual_element_human_digest(capsys, tmp_path, monkeypatch, check, corrupted):
    monkeypatch.chdir(tmp_path)
    argv = virtual_argv(Path(), "gw-ext-torus-fq5", check, "human")
    if corrupted:
        Path("constants.json").write_text(json.dumps({"lambda2_pair": "one"}))
        argv += ["--constants", "constants.json"]
    assert records_digest(capsys, argv) == HUMAN_VIRTUAL[check, corrupted]


# The classes and diagonalizations of the forms built from the two ``FORMS``
# Gram matrices, a = hyperbolic-like-4 and b = zero-pivot-3: every exterior
# power of a, of b and of a perp b, and every product Lambda^i a (x)
# Lambda^j b.  One line per form: rank, signed discriminant, signature, then
# the diagonal entries.
FORMS_CLASS_DIGESTS = {
    "qc": "1cfb66c41c5ca02c2eb26780ef4de9168edf9c6d4546c7a12db522a51546d95b",
    "rc": "833a4c05f65a4cf0797af34f52683dd876da29fcbd9ddc50a8500ad88e8471bb",
    "fq:5": "674ea79f744abb2844a8d157faee58ecfd22aa0aac540fd43bdc7fcfbc65ccb4",
    "fq:7": "3dda64ed25e320c166db74a9e4ab1fc33c10cc18fa48a9215be31832b2905da2",
}


def forms_class_transcript(field):
    a, b = (parse_form({"field": field, "gram": FORMS[name][0]}) for name in sorted(FORMS))
    built = [("a^%d" % k, exterior_power(a, k)) for k in range(a.dim + 1)]
    built += [("b^%d" % k, exterior_power(b, k)) for k in range(b.dim + 1)]
    whole = perp_sum(a, b)
    built += [("ab^%d" % k, exterior_power(whole, k)) for k in range(whole.dim + 1)]
    built += [
        ("a^%d*b^%d" % (i, j), tensor(exterior_power(a, i), exterior_power(b, j)))
        for i in range(a.dim + 1)
        for j in range(b.dim + 1)
    ]
    lines = []
    for label, form in built:
        cls = gw_class(form)
        diag = ",".join(form.field.to_str(v) for v in diagonalize(form))
        lines.append(
            "%s %d %s %s %s" % (label, cls.rank, form.field.to_str(cls.disc), cls.signature, diag)
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", FORMS_CLASS_DIGESTS)
def test_forms_class_and_diagonal_digest(field):
    text = forms_class_transcript(field)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FORMS_CLASS_DIGESTS[field]


# ``gwlambda char`` in both formats: the 18 B4/D4 highest weights of the
# benchmark (each flavor one transcript, in ``benchmark_weights`` order), and
# a few B2 and D3 weights, two of D3 with a negative last entry.  These pin
# every weight and multiplicity of each character, and the dim/mass line.
CHAR_WEIGHTS = {
    "B4": [w for w, f in benchmark_weights(4) if f.kind == "B"],
    "D4": [w for w, f in benchmark_weights(4) if f.kind == "D"],
    "B2": [(1, 0), (1, 1), (2, 1), (3, 2)],
    "D3": [(1, 0, 0), (1, 1, -1), (2, 1, 1), (2, 2, -2), (3, 1, 0)],
}

CHAR_DIGESTS = {
    ("B2", "human"): "bacafed6195ba3c9bf58b48d16df270b16ed6c99bc8b250784aff326e94e57a5",
    ("B2", "records"): "3118847579a2462f7120521236fdb0d39e8d69629c467b38ee6e8ce292c6b13f",
    ("B4", "human"): "c4ad3c0a55997223eb4ea193d4fb49021d63c810a6765518d8cdf588063023b4",
    ("B4", "records"): "a83bee64b055baaf24d23b9cc76c1cf3005fa681c48e88740f534c3f0af9a4f8",
    ("D3", "human"): "608b6c1e6dd34689748d7d0ee150379e256ade7a3a563d59cd4c4b376d0a375b",
    ("D3", "records"): "af2e357c80fc1d47699468ceb03a84439ab589586fe83b2f0d454dadd38a1c6c",
    ("D4", "human"): "8627687cca4270982223ada66bc610f8430741ff7639712f0be3195dc7d9edac",
    ("D4", "records"): "32ee42e1c3c4fe01487ff8adb77bdf840527efdaec9e180c9fda947f47eb78e3",
}


@pytest.mark.parametrize("key", sorted(CHAR_DIGESTS), ids="-".join)
def test_char_digest(capsys, key):
    group, fmt = key
    out = []
    for hw in CHAR_WEIGHTS[group]:
        argv = ["char", "--type", group[0], "--n", group[1:], "--hw", ",".join(map(str, hw))]
        assert cli.main(argv + ["--format", fmt]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode("utf-8")).hexdigest() == CHAR_DIGESTS[key]

"""np.einsum on the package's points-last arrays.

Every subscripts string the package passes to np.einsum with point axes
(`...` trailing) is found in the sources, so a new contraction is tested as
soon as it is written; contractions the package no longer forms stay as
cases: two outer products, the only ones that permute an operand's axes
without summing any, the second contraction of each antisymmetric pair,
which the package takes as a swapped view of the first (checked bit for
bit below), and the contractions of constant vectors with the matrix of
nabla xi and with the Nijenhuis torsion. The test names keep the word
`contract` from the function these contractions once went through.

Each contraction is checked against np.einsum on contiguous points-first
operands (`...` leading), and on strided views of its operands, bit for
bit on dyadic operands: signed m * 2^e with m in 1..15 and e in -6..6,
with 0.0 and -0.0 mixed in. Every product of three such entries and every
sum of up to nine products is exact in float64, so each output is the
exact contraction whatever order einsum adds in, and a wrong axis, a wrong
sign of zero or a changed operand shows as a changed bit. On operands that
round, the order follows the operands' strides and the bits may differ
(Goldberg, "What every computer scientist should know about floating-point
arithmetic", 1991); the swapped pairs are compared bit for bit on such
operands, spanning e^-12 .. e^12 with exact zeros and -0.0, because each
pair adds the same terms in the same order. Each contraction's peak memory
is bounded, so no broadcast product over the summed axes comes back. A
batch's columns are compared with the batches of one in exact arithmetic,
in tests/test_exact.py.
"""

import re
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import walkergeo

SOURCES = sorted(Path(walkergeo.__file__).parent.glob("*.py"))
# (first, second, axes): second is first with the output axes swapped
SWAPPED_PAIRS = (
    ("...,j...,ik...->ijk...", "...,k...,ij...->ijk...", (1, 2)),
    ("i...,j...,k...->ijk...", "i...,k...,j...->ijk...", (1, 2)),
    ("j...,ik...->ijk...", "k...,ij...->ijk...", (1, 2)),
    ("mi...,mkj...->ijk...", "mj...,mki...->ijk...", (0, 1)),
    ("km...,jmi...->ijk...", "km...,imj...->ijk...", (0, 1)),
)
# the first four keep their test ids; the rest are where einsum's inner
# kernels unroll or collapse axes
LEADS = [(), (1,), (7,), (512,), (2,), (3,), (4,), (5,), (8,), (9,), (16,),
         (17,), (64,), (1024,)]
RETIRED = ({"i...,jk...->ijk...", "j...,ki...->ijk...", "i...,ik...->k...",
            "i...,j...,ijk...->k..."}
           | {second for _, second, _ in SWAPPED_PAIRS})
SUBSCRIPTS = sorted(RETIRED | {
    match for path in SOURCES
    for match in re.findall(r'np\.einsum\(\s*"([^"]+)"', path.read_text())
    if "..." in match
})


def operand(rng, shape):
    a = np.array(np.exp(rng.uniform(-12.0, 12.0, shape))
                 * rng.choice([-1.0, 1.0], shape))
    mask = rng.random(shape)
    a[mask < 0.1] = 0.0
    a[(mask >= 0.1) & (mask < 0.2)] = -0.0
    return a


def dyadic(rng, shape):
    """Signed m * 2^e, m in 1..15 and e in -6..6, about a tenth each 0.0
    and -0.0 (see the module notes)."""
    a = np.array(rng.integers(1, 16, shape)
                 * np.exp2(rng.integers(-6, 7, shape))
                 * rng.choice([-1.0, 1.0], shape))
    mask = rng.random(shape)
    a[mask < 0.1] = 0.0
    a[(mask >= 0.1) & (mask < 0.2)] = -0.0
    return a


def exact_in_float(subscripts: str) -> bool:
    """Whether dyadic operands make every output of subscripts exact: at
    most three operands and at most nine summed terms."""
    inputs, out = subscripts.replace("...", "").split("->")
    summed = set(inputs.replace(",", "")) - set(out)
    return len(inputs.split(",")) <= 3 and 3 ** len(summed) <= 9


def identical(a, b) -> bool:
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def points_first(subscripts: str) -> str:
    """The same contraction with the point axes leading."""
    inputs, out = subscripts.replace("...", "").split("->")
    return ",".join("..." + term for term in inputs.split(",")) + "->..." + out


def points_last_subscripts(reference: str) -> str:
    """The same contraction with the point axes trailing."""
    inputs, out = reference.replace("...", "").split("->")
    return ",".join(term + "..." for term in inputs.split(",")) + "->" + out + "..."


def points_last(a: np.ndarray, lead: tuple) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(a, 0, -1)) if lead else a


# each case is named by the points-first reference it is checked against
CASES = {points_first(s): s for s in SUBSCRIPTS}


def test_the_package_uses_einsum():
    assert len(SUBSCRIPTS) >= 20
    terms = [term for s in SUBSCRIPTS
             for term in s.replace("->", ",").split(",")]
    assert all(term.endswith("...") and term.count("...") == 1
               for term in terms)


@pytest.mark.parametrize("reference", sorted(CASES))
@pytest.mark.parametrize("lead", LEADS)
def test_contract_is_einsum_bit_for_bit(reference, lead):
    subscripts = CASES[reference]
    assert exact_in_float(subscripts), subscripts
    rng = np.random.default_rng(zlib.crc32(f"{reference}{lead}".encode()))
    labels = subscripts.split("->")[0].replace("...", "").split(",")
    for _ in range(3):
        firsts = [dyadic(rng, lead + (3,) * len(s)) for s in labels]
        want = np.einsum(reference, *firsts)
        ops = [points_last(a, lead) for a in firsts]
        copies = [a.copy() for a in ops]
        got = np.einsum(subscripts, *ops)
        assert identical(got, points_last(want, lead)), subscripts
        if lead and lead[0] > 1:
            # the point axis is innermost in memory; the other axes follow
            # the operands' strides, so a permuting output is not C order
            assert got.strides[-1] == got.itemsize, (subscripts, got.strides)
        assert all(identical(a, b) for a, b in zip(ops, copies))


def strided_views(a: np.ndarray):
    """Views of a's values in other layouts: Fortran order, a step-2 slice
    of the point axis, and a swapaxes view of a contiguous transpose."""
    yield np.asfortranarray(a)
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    yield wide[..., ::2]
    yield np.ascontiguousarray(a.swapaxes(0, -1)).swapaxes(0, -1)


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
@pytest.mark.parametrize("lead", [(2,), (7,), (512,)])
def test_contract_does_not_depend_on_operand_strides(subscripts, lead):
    assert exact_in_float(subscripts), subscripts
    rng = np.random.default_rng(zlib.crc32(f"{subscripts}{lead}".encode()))
    labels = subscripts.split("->")[0].replace("...", "").split(",")
    ops = [points_last(dyadic(rng, lead + (3,) * len(s)), lead) for s in labels]
    want = np.einsum(subscripts, *ops)
    for views in zip(*map(strided_views, ops)):
        assert not all(v.flags.c_contiguous for v in views)
        assert identical(np.einsum(subscripts, *views), want), subscripts


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_contract_never_holds_more_than_a_few_outputs(subscripts):
    # the broadcast product this replaced held up to 13 outputs' bytes
    rng = np.random.default_rng(zlib.crc32(subscripts.encode()))
    labels = subscripts.split("->")[0].replace("...", "").split(",")
    ops = [operand(rng, (3,) * len(s) + (4096,)) for s in labels]
    np.einsum(subscripts, *ops)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = np.einsum(subscripts, *ops)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.nbytes, (subscripts, peak / out.nbytes)


def test_a_lone_negative_zero_product_sums_to_positive_zero():
    u, v = np.array([[-0.0], [1.0], [2.0]]), np.ones((3, 1))
    got = np.einsum("i...,j...->ij...", u, v)
    assert not np.signbit(got[0, :, 0]).any()
    want = np.einsum("...i,...j->...ij", u.T, v.T)
    assert identical(got, np.moveaxis(want, 0, -1))


def test_output_axes_may_be_shorter_than_three():
    # curvature_equivalences passes the blocks i < j of R as one row
    rng = np.random.default_rng(11)
    phi, upper = dyadic(rng, (64, 3, 3)), dyadic(rng, (64, 1, 3, 3, 3))
    for reference, ops in (("...mk,...ijml->...ijkl", (phi, upper)),
                           ("...ijkm,...lm->...ijkl", (upper, phi))):
        got = np.einsum(points_last_subscripts(reference),
                        *(points_last(a, (64,)) for a in ops))
        want = np.einsum(reference, *ops)
        assert identical(got, points_last(want, (64,)))


@pytest.mark.parametrize("first, second, axes", SWAPPED_PAIRS)
@pytest.mark.parametrize("lead", LEADS)
def test_each_swapped_pair_is_its_second_contraction(first, second, axes, lead):
    rng = np.random.default_rng(zlib.crc32(f"{first}{lead}".encode()))
    labels = first.split("->")[0].replace("...", "").split(",")
    for _ in range(3):
        ops = [points_last(operand(rng, lead + (3,) * len(s)), lead)
               for s in labels]
        swapped = np.einsum(first, *ops).swapaxes(*axes)
        assert identical(swapped, np.einsum(second, *ops)), first

"""`structure.contract` against np.einsum, bit for bit.

Every subscripts string the package passes to `contract` is found in the
sources, so a new call is tested as soon as it is written; contractions the
package no longer forms stay as cases: two outer products, the only ones
that permute an operand's axes without summing any, and the second
contraction of each antisymmetric pair, which the package now takes as a
swapped view of the first (checked bit for bit below). `contract` takes
its operands components first, points last (`...` trailing); the reference
is np.einsum on contiguous points-first operands (`...` leading), the
arithmetic the reports were built with before the layout changed. Operands
span e^-12 .. e^12 in magnitude with exact zeros and -0.0 mixed in, because
the summation order and the sign of a zero sum are what a reordered kernel
would get wrong. `contract` calls einsum itself, whose summation order
follows the operands' strides, so its bits are checked on strided views
too, and its peak memory is bounded, so no broadcast product over the
summed axes comes back.
"""

import re
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import walkergeo
from walkergeo.structure import contract

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
RETIRED = ({"i...,jk...->ijk...", "j...,ki...->ijk..."}
           | {second for _, second, _ in SWAPPED_PAIRS})
SUBSCRIPTS = sorted(RETIRED | {
    match for path in SOURCES
    for match in re.findall(r'contract\(\s*"([^"]+)"', path.read_text())
})


def operand(rng, shape):
    a = np.array(np.exp(rng.uniform(-12.0, 12.0, shape))
                 * rng.choice([-1.0, 1.0], shape))
    mask = rng.random(shape)
    a[mask < 0.1] = 0.0
    a[(mask >= 0.1) & (mask < 0.2)] = -0.0
    return a


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


# each case is named by the einsum reference it is checked against
CASES = {points_first(s): s for s in SUBSCRIPTS}


def test_the_package_uses_contract():
    assert len(SUBSCRIPTS) >= 20
    terms = [term for s in SUBSCRIPTS
             for term in s.replace("->", ",").split(",")]
    assert all(term.endswith("...") and term.count("...") == 1
               for term in terms)


@pytest.mark.parametrize("reference", sorted(CASES))
@pytest.mark.parametrize("lead", LEADS)
def test_contract_is_einsum_bit_for_bit(reference, lead):
    subscripts = CASES[reference]
    rng = np.random.default_rng(zlib.crc32(f"{reference}{lead}".encode()))
    labels = subscripts.split("->")[0].replace("...", "").split(",")
    for _ in range(3):
        firsts = [operand(rng, lead + (3,) * len(s)) for s in labels]
        want = np.einsum(reference, *firsts)
        ops = [points_last(a, lead) for a in firsts]
        copies = [a.copy() for a in ops]
        got = contract(subscripts, *ops)
        assert identical(got, points_last(want, lead)), subscripts
        assert np.asarray(got).flags.c_contiguous
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
    rng = np.random.default_rng(zlib.crc32(f"{subscripts}{lead}".encode()))
    labels = subscripts.split("->")[0].replace("...", "").split(",")
    ops = [points_last(operand(rng, lead + (3,) * len(s)), lead) for s in labels]
    want = contract(subscripts, *ops)
    for views in zip(*map(strided_views, ops)):
        assert not all(v.flags.c_contiguous for v in views)
        assert identical(contract(subscripts, *views), want), subscripts


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_contract_never_holds_more_than_a_few_outputs(subscripts):
    # the broadcast product this replaced held up to 13 outputs' bytes
    rng = np.random.default_rng(zlib.crc32(subscripts.encode()))
    labels = subscripts.split("->")[0].replace("...", "").split(",")
    ops = [operand(rng, (3,) * len(s) + (4096,)) for s in labels]
    contract(subscripts, *ops)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = contract(subscripts, *ops)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.nbytes, (subscripts, peak / out.nbytes)


def test_a_lone_negative_zero_product_sums_to_positive_zero():
    u, v = np.array([[-0.0], [1.0], [2.0]]), np.ones((3, 1))
    got = contract("i...,j...->ij...", u, v)
    assert not np.signbit(got[0, :, 0]).any()
    want = np.einsum("...i,...j->...ij", u.T, v.T)
    assert identical(got, np.moveaxis(want, 0, -1))


def test_output_axes_may_be_shorter_than_three():
    # curvature_equivalences passes the blocks i < j of R as one row
    rng = np.random.default_rng(11)
    phi, upper = operand(rng, (64, 3, 3)), operand(rng, (64, 1, 3, 3, 3))
    for reference, ops in (("...mk,...ijml->...ijkl", (phi, upper)),
                           ("...ijkm,...lm->...ijkl", (upper, phi))):
        got = contract(points_last_subscripts(reference),
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
        swapped = contract(first, *ops).swapaxes(*axes)
        assert identical(swapped, contract(second, *ops)), first

"""`structure.contract` against np.einsum, bit for bit.

Every subscripts string the package passes to `contract` is found in the
sources, so a new call is tested as soon as it is written. Operands span
e^-12 .. e^12 in magnitude with exact zeros and -0.0 mixed in, because the
summation order and the sign of a zero sum are what a reordered kernel
would get wrong.
"""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import walkergeo
from walkergeo.structure import contract

SOURCES = sorted(Path(walkergeo.__file__).parent.glob("*.py"))
SUBSCRIPTS = sorted({
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


def test_the_package_uses_contract():
    assert len(SUBSCRIPTS) >= 20
    assert all(s.startswith("...") for s in SUBSCRIPTS)


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
@pytest.mark.parametrize("lead", [(), (1,), (7,), (512,)])
def test_contract_is_einsum_bit_for_bit(subscripts, lead):
    rng = np.random.default_rng(zlib.crc32(f"{subscripts}{lead}".encode()))
    labels = subscripts.split("->")[0].replace("...", "").split(",")
    for _ in range(3):
        ops = [operand(rng, lead + (3,) * len(s)) for s in labels]
        got = contract(subscripts, *ops)
        assert identical(got, np.einsum(subscripts, *ops)), subscripts
        assert got.flags.c_contiguous


def test_a_lone_negative_zero_product_sums_to_positive_zero():
    u, v = np.array([[-0.0, 1.0, 2.0]]), np.ones((1, 3))
    got = contract("...i,...j->...ij", u, v)
    assert not np.signbit(got[0, 0]).any()
    assert identical(got, np.einsum("...i,...j->...ij", u, v))

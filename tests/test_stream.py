"""The in-package PCG64 stream against numpy.random, its reference.

The sampler draws from `PCG64Stream`, which must give the doubles
`np.random.default_rng(seed).uniform` gives, bit for bit, so the sample,
and every report, does not depend on numpy's random module; and no
analysis may load that module. A few doubles are pinned
as literals as well, so the stream is fixed here whatever numpy draws.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkergeo
from walkergeo.expressions import parse
from walkergeo.sampling import (
    _MAX_BATCHES, Domain, Interval, PCG64Stream, SamplingConfig,
)
from write_reports import MANIFESTS

SRC = str(Path(walkergeo.__file__).resolve().parents[1])

# Seeds of 1 to 7 32-bit words: SeedSequence mixes words past its pool of
# 4 in a separate loop.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 2**100 + 9] + [
    random.Random(bits).getrandbits(bits)
    for bits in (8, 31, 33, 63, 64, 65, 96, 127, 128, 129, 160, 200)]

BOUNDS = (np.array([0.5, -1.0, 1e-3]), np.array([2.0, 3.0, 1e3]))

# A domain keeping about 13% of the box: the sampler needs several batches.
RESTRICTED = Domain((Interval(0.5, 2.0),) * 3, positive=(parse("x - 1.8"),))


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_stream_draws_numpys_doubles(seed):
    ours, numpy_rng = PCG64Stream(seed), np.random.default_rng(seed)
    # one stream, one draw after another, as the sampler's batches
    for shape in ((128, 3), (1024, 3)):
        assert np.array_equal(bits(ours.uniform(*BOUNDS, shape)),
                              bits(numpy_rng.uniform(*BOUNDS, size=shape)))
    # scalar bounds, as the eta-Einstein directions
    for _ in range(4):
        assert np.array_equal(bits(ours.uniform(-1.0, 1.0, (3,))),
                              bits(numpy_rng.uniform(-1.0, 1.0, size=3)))
    assert np.array_equal(bits(ours.uniform(-1.0, 1.0, (5, 50, 3))),
                          bits(numpy_rng.uniform(-1.0, 1.0, size=(5, 50, 3))))


# Bit patterns of the first three doubles on [0, 1) per seed, and, for seed
# 42, of the three after a (128, 3) draw, as numpy 2.4 drew them: the
# stream is pinned here too, should a later numpy draw other doubles.
PINNED = {
    0: (0x3FE461FD79FB3850, 0x3FD1442F7E20B674, 0x3FA4FA7B529D9BD0),
    42: (0x3FE8C43F79A2DB24, 0x3FDC16959869E47E, 0x3FEB79A2584DDB42),
    2**64 + 3: (0x3FE72E3130A8E59E, 0x3FDA43614024D64E, 0x3FE035A1D03EFEE3),
}
PINNED_AFTER_A_BATCH = (0x3FD816460B88F494, 0x3FEF927C5154DC83,
                        0x3FE6F7E450802810)


@pytest.mark.parametrize("seed", PINNED)
def test_the_stream_draws_the_pinned_doubles(seed):
    assert bits(PCG64Stream(seed).uniform(0.0, 1.0, (3,))).tolist() == \
        list(PINNED[seed])


def test_the_stream_continues_to_the_pinned_doubles():
    stream = PCG64Stream(42)
    stream.uniform(0.0, 1.0, (128, 3))
    assert bits(stream.uniform(0.0, 1.0, (3,))).tolist() == \
        list(PINNED_AFTER_A_BATCH)


def numpy_sample(domain: Domain):
    """The sampler's rejection loop drawing from numpy.random, and the
    number of candidate batches it drew."""
    n = domain.sampling.samples
    rng = np.random.default_rng(domain.sampling.seed)
    los = np.array([iv.lo for iv in domain.intervals])
    his = np.array([iv.hi for iv in domain.intervals])
    collected, count, batch = [], 0, max(n * 2, 64)
    for batches in range(1, _MAX_BATCHES + 1):
        candidates = rng.uniform(los, his, size=(batch, 3))
        good = candidates[domain._admissible(candidates)]
        collected.append(good)
        count += good.shape[0]
        if count >= n:
            return np.concatenate(collected)[:n], batches
    raise AssertionError("the reference loop did not fill the sample")


@pytest.mark.parametrize("samples, seed", [(1, 42), (64, 42), (512, 7), (100, 2**70)])
def test_the_rejection_loop_samples_numpys_points(samples, seed):
    domain = RESTRICTED._replace(
        sampling=SamplingConfig(samples=samples, seed=seed))
    expected, batches = numpy_sample(domain)
    if samples > 1:
        assert batches > 1
    pts = domain.sample()
    assert pts.shape == (samples, 3) and np.all(pts[:, 0] > 1.8)
    assert np.array_equal(bits(pts), bits(expected))


UNLOADED = ("numpy.random", "secrets", "_hashlib")


def test_importing_the_cli_does_not_load_numpy_random():
    # importing numpy.random costs each CLI process 10 to 25 ms of start-up
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, walkergeo.cli; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("command", ["examples", "analyze"])
def test_an_analysis_does_not_load_numpy_random(command):
    argv = (["examples", "run", "eta-einstein-parabolic"]
            if command == "examples"
            else ["analyze", str(MANIFESTS / "restricted.manifest")])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    script = ("import sys\n"
              "from walkergeo.cli import main\n"
              "status = main(sys.argv[1:])\n"
              f"print(status, [m for m in {UNLOADED!r} if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"

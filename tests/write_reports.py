"""Write every report-identity output of the walkergeo tree at SRC into OUT.

    python3 tests/write_reports.py SRC OUT

Each output is one fresh Python process that runs the walkergeo CLI with
PYTHONPATH=SRC, from the root of this checkout: its stdout and stderr go into
one file, followed by an `exit status N` line. The plan and its inputs are
read from this checkout, not from SRC, so a base and a head tree run the same
plan, and the two output directories can be compared with `diff -r`:

    python3 tests/write_reports.py base/src reports/base
    python3 tests/write_reports.py src reports/head
    diff -r reports/base reports/head

Beside each machine output it writes `<name>.skeleton`, the output's
verdict skeleton (see `skeleton`): its exit status and every leaf of its JSON
report that is not a float, with its path. Floats, expression strings,
witnesses and details are left out, so a change that moves only digits keeps
every skeleton, and `diff -r` on the skeletons alone shows whether any
verdict moved:

    diff -r -x '*.machine' -x '*.text' reports/base reports/head

OUT must not exist yet. The script exits non-zero when an input directory or
bench/generator.py is missing, when its plan is shorter than EXPECTED, or when
a run wrote nothing.

The inputs, and why each is there:

- Every corpus fixture, machine and text, at the (samples, seed) pairs of
  FIXTURE_RUNS. The evaluator keeps each field's values per sample array, so
  a 1-point sample and a second seed are written. np.einsum's kernels unroll
  or collapse axes by batch size, so a 3-point sample and 1024 points at
  seed 3 are written as well.
- Every manifest under tests/manifests and bench/findings, and the parabolic
  chains of CHAINS, machine and text, at 64 and 512 samples:
  - bench/findings: fields near 1e5, which reach the large-coefficient paths
    of the jet products and of lower-order jets cut from kept ones. They
    exit 3 today, so their output and exit status are compared, not
    required to be 0.
  - restricted: the g0-parallel fields on a box whose require_positive =
    "x - 1.8" keeps about 13% of the candidates, so the sampler draws
    several batches and the multi-batch rejection path is exercised
    (tests/test_stream.py compares the sample stream with numpy.random).
  - dense-curvature: its sectional curvature at pts[0] changes bits with
    the kernel's summation order.
  - constant-rational: its constant f and xi make eta_3 = xi1 + f xi3 a
    rational the expression constructors fold exactly, so its residuals
    show which statement of eta and phi the frame reads.
  - overflow-contraction: f near 1e100, whose structure tensor is finite
    but whose component split overflows to inf - inf. A nan residual must
    not pass a zero test: it exits 2, naming a non-finite value.
  - sqrt-constraint: the g5g6-normal fields with require_positive =
    "sqrt(x - 1)". Every candidate batch holds some x <= 1, where the
    constraint cannot be evaluated, so the sampler drops the rows the
    evaluation refuses and evaluates the rest again.
  - two-guard-constraint: the same fields with require_positive =
    "sqrt(x - 1) * sqrt(y - 1)". Its two sqrt nodes fail on different rows
    of each batch, so the sampler drops rows twice before an evaluation
    succeeds.
  - scaled-square: the parabolic manifest with f = (16*x)^2/16^2, which is
    x^2. The sampled zero test of its f_xx, judged against the 16^8 its
    subexpressions reach, calls it flat; the jet's curvature does not, so
    it exits 3 on flatness_routes.
  - scaled-scal: f = (4*x)^2/y^2/16, which is x^2/y^2, with xi1 = x/y. The
    sampled zero tests of its scalar curvature's gradient, judged against
    the scale its subexpressions reach, call it constant; the jet of f_xx
    does not, so it exits 3 on scalar_curvature_routes.
  - scaled-strict: g0-parallel under the Walker isometry with factor 2^6,
    f = (64*x)/4096, which is x/64, on the box scaled to match. The sampled
    zero test of its f_x, judged against the 16777216 its subexpressions
    reach, calls it strict Walker; the f_x of f's jet does not, so it exits
    3 on strict_walker_routes.
  - overflow-sectional: the parabolic manifest with f = exp(150*x), with
    no seed line. The curvature products of its report's sectional plane at
    pts[0] overflow, so it exits 2, naming K_phi and that point, at both
    sample counts: the error path of the check that refuses a non-finite K
    among the candidate directions up to the report's pick. (With
    f = exp(200*x) that error is reached only at 16 samples and seed 5; at
    seed 42 a sampled residual fails first.)
  - superscript-exponent: f = "x^²". A superscript digit is not a decimal
    one, so the tokenizer refuses it: exit 2 with its position, not an
    internal error.
  - parabolic: the manifest the chains are derived from.
  - parabolic-98x: f = x^2 + x/x/.../x with 98 x's. Its derived fields
    share the most nodes, so the evaluator keeps the most of them.
  - parabolic-100x: the chain x/x/.../x with 100 x's alone. Its f_xx fails
    its nonvanishing test at a sampled point, so it exits 2 with a message
    built from that test's witness.
- The bench/generator.py manifests of GENERATOR_SEEDS at 64 samples, machine
  only. Their derived fields are DAG-heavy, the traffic of the expression
  walkers (diff, the printer, the evaluator and the jets); the second seed
  draws other manifest shapes through the route table.
- paracontact-exponential at 64 samples, machine and text, with
  walkergeo.classify.lie_g_batch patched to zeros (a Killing Reeb field).
  No input above disagrees on a named class; here the two routes of
  K-paracontact disagree, so the report's disagreements block is compared.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MANIFESTS = ROOT / "tests" / "manifests"
FINDINGS = ROOT / "bench" / "findings"

FIXTURE_RUNS = ((1, 42), (3, 42), (64, 42), (512, 42), (64, 7), (1024, 3))
MANIFEST_SAMPLES = (64, 512)
GENERATOR_SEEDS = (42, 7)
REPORTS = ("machine", "text")

# f of parabolic.manifest, replaced by a quotient chain, per output stem
CHAINS = {"parabolic-98x": "x^2 + " + "/".join(["x"] * 98),
          "parabolic-100x": "/".join(["x"] * 100)}

FAULTED = """\
import sys
import numpy as np
from walkergeo import classify
from walkergeo.cli import main
classify.lie_g_batch = lambda S, batch: np.zeros((3, 3, len(batch.scale)))
sys.exit(main(["examples", "run", "paracontact-exponential",
               "--samples", "64", "--report", sys.argv[1]]))
"""

# outputs of the plan when it was written; a shorter plan is refused
EXPECTED = 218

# report keys a skeleton leaves out: what the analysis read, and the texts
# and points that describe a verdict rather than make it
NOT_VERDICTS = frozenset({"input", "expression", "witness", "detail"})


class Run(NamedTuple):
    name: str                # output file name under OUT
    args: tuple[str, ...]    # arguments of the python child


def read_manifest(stem: str) -> str:
    """The text of tests/manifests/<stem>.manifest."""
    return (MANIFESTS / f"{stem}.manifest").read_text(encoding="utf-8")


def chain_manifests() -> dict[str, str]:
    """Output stem -> parabolic.manifest with f replaced by its chain."""
    text = read_manifest("parabolic")
    return {stem: text.replace('"x^2"', f'"{chain}"')
            for stem, chain in CHAINS.items()}


def _cli(*args) -> tuple[str, ...]:
    return ("-m", "walkergeo.cli", *map(str, args))


def plan(work: Path) -> list[Run]:
    """Every run, in order. Manifests that exist only as text (the chains
    and the generator's) are written into the directory `work`."""
    for directory in (MANIFESTS, FINDINGS):
        if not directory.is_dir():
            raise SystemExit(f"input directory missing: {directory}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import generator
        from walkergeo.corpus import FIXTURES
    except ImportError as exc:
        raise SystemExit(f"cannot import an input: {exc}") from exc
    finally:
        del sys.path[:2]

    runs = [Run(f"{fixture.name}-{samples}-{seed}.{report}",
                _cli("examples", "run", fixture.name, "--samples", samples,
                     "--seed", seed, "--report", report))
            for samples, seed in FIXTURE_RUNS
            for fixture in FIXTURES
            for report in REPORTS]

    manifests = sorted(FINDINGS.glob("*.manifest")) + sorted(
        MANIFESTS.glob("*.manifest"))
    for stem, text in chain_manifests().items():
        manifests.append(work / f"{stem}.manifest")
        manifests[-1].write_text(text, encoding="utf-8")
    runs += [Run(f"findings-{path.stem}-{samples}.{report}",
                 _cli("analyze", path, "--samples", samples,
                      "--report", report))
             for samples in MANIFEST_SAMPLES
             for path in manifests
             for report in REPORTS]

    for seed in GENERATOR_SEEDS:
        for name, _, text in generator.manifest_set(seed):
            path = work / f"{name}.manifest"
            path.write_text(text, encoding="utf-8")
            runs.append(Run(f"{name}-64.machine",
                            _cli("analyze", path, "--samples", 64,
                                 "--report", "machine")))

    runs += [Run(f"faulted-paracontact-exponential-64.{report}",
                 ("-c", FAULTED, report))
             for report in REPORTS]
    return runs


def _leaves(value, path: str):
    """`path = value` for each leaf under value that is not a float,
    outside the keys in NOT_VERDICTS, in the report's order."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in NOT_VERDICTS:
                yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    elif not isinstance(value, float):
        yield f"{path} = {json.dumps(value)}"


def skeleton(output: str) -> str:
    """The verdict skeleton of an output (what the child wrote, then its
    `exit status N` line): that line, then one line per leaf of the JSON
    report (see `_leaves`). An output that is not a JSON report, such as
    an error message, gives the exit status alone."""
    body, status, code = output.rpartition("exit status ")
    try:
        report = json.loads(body)
    except ValueError:
        report = None
    leaves = _leaves(report, "") if isinstance(report, dict) else ()
    return "".join(f"{line}\n" for line in (status + code.strip(), *leaves))


def write(run: Run, src: Path, out: Path) -> bool:
    """Run one child with PYTHONPATH=src into out/run.name, and write the
    skeleton of a machine output beside it; False when the child wrote
    nothing, which no planned run does."""
    path = out / run.name
    with open(path, "wb") as handle:
        done = subprocess.run([sys.executable, *run.args], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              stdout=handle, stderr=subprocess.STDOUT)
    wrote = path.stat().st_size > 0
    with open(path, "ab") as handle:
        handle.write(f"exit status {done.returncode}\n".encode())
    if run.name.endswith(".machine"):
        output = path.read_text(encoding="utf-8", errors="replace")
        (out / f"{run.name}.skeleton").write_text(skeleton(output),
                                                  encoding="utf-8")
    return wrote


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/write_reports.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "walkergeo").is_dir():
        print(f"no walkergeo package under {src}", file=sys.stderr)
        return 2
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        runs = plan(Path(work))
        if len(runs) < EXPECTED:
            print(f"the plan has {len(runs)} runs, fewer than {EXPECTED}",
                  file=sys.stderr)
            return 1
        out.mkdir(parents=True)
        silent = [run.name for run in runs if not write(run, src, out)]
    if silent:
        print(f"no output written by {', '.join(silent)}", file=sys.stderr)
        return 1
    print(f"{len(runs)} outputs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

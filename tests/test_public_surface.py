"""One public surface: every function the package exports is one that the
command line reaches.

The report is the package's public surface, so each function of
`walkergeo.__all__`, as `inspect.unwrap` gives it, must be called when
`cli.main` analyzes the corpus fixtures and the manifests under
tests/manifests at 16 samples. `sys.setprofile` sees the calls: it reports
each Python function call with its code object. An exported function that
no run reaches is a second surface that no verdict reads.
"""

import contextlib
import inspect
import io
import sys

import walkergeo
from walkergeo.cli import main
from walkergeo.corpus import FIXTURES
from write_reports import MANIFESTS

RUNS = ([["examples", "run", fixture.name] for fixture in FIXTURES]
        + [["analyze", str(path)]
           for path in sorted(MANIFESTS.glob("*.manifest"))])


def called_codes(runs) -> set:
    """The code object of every Python function called while `cli.main`
    runs each argv of runs at 16 samples, its output discarded."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in runs:
                main([*argv, "--samples", "16"])
        finally:
            sys.setprofile(None)
    return codes


def public_functions() -> dict:
    """The functions of walkergeo.__all__, unwrapped, by name."""
    unwrapped = {name: inspect.unwrap(getattr(walkergeo, name))
                 for name in walkergeo.__all__}
    return {name: value for name, value in unwrapped.items()
            if inspect.isfunction(value)}


def test_every_public_function_is_reached_by_the_command_line():
    codes = called_codes(RUNS)
    assert sorted(name for name, function in public_functions().items()
                  if function.__code__ not in codes) == []


def test_the_scan_sees_a_function_no_run_reaches():
    codes = called_codes(RUNS[:1])
    functions = public_functions()
    assert functions["build_report"].__code__ in codes
    assert functions["load_manifest"].__code__ not in codes

"""Record the correctness references of the benchmark into bench/spec.json.

    python3 bench/record_references.py

For every fixture it stores the documented verdicts (basic class display,
named-class flags, eta-Einstein and flatness) and the SHA-256 digest of the
machine report at the default seed, at the sample count of each workload
that checks digests. Run it only when a change is meant to alter reports,
and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.BENCH)]
    from walkergeo import parse_manifest

    seed = run.DEFAULT_SEED
    reports = {}
    for workload, samples in (("corpus-dense", run.CORPUS_SAMPLES),
                              ("cli-corpus", None)):
        reports[workload] = {}
        for name, text in run.corpus_texts(samples, seed):
            status, report, error = run.analyze_in_process(parse_manifest(text))
            if status != 0:
                raise SystemExit(f"{workload} {name}: exit {status} {error}")
            reports[workload][name] = report
    spec = run.load_spec()
    spec["references"] = {
        "seed": seed,
        "verdicts": {name: run.verdicts(report)
                     for name, report in reports["cli-corpus"].items()},
        "digests": {workload: {name: run.digest(report)
                               for name, report in by_name.items()}
                    for workload, by_name in reports.items()},
    }
    with open(run.SPEC, "w", encoding="utf-8") as handle:
        json.dump(spec, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

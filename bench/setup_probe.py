"""Time `import walkergeo` plus parsing every manifest of a workload.

    python3 bench/setup_probe.py MANIFESTS

MANIFESTS holds the manifest texts separated by NUL characters. Prints the
seconds taken; run it in a fresh interpreter with walkergeo importable.
"""

import sys
import time


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        texts = handle.read().split("\0")
    start = time.perf_counter()
    import walkergeo

    for text in texts:
        walkergeo.parse_manifest(text)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()

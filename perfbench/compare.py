"""Compare two saved outputs of run.py, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file is the stdout of one ``run.py`` invocation.  The comparison is
refused (exit code 2) when the two ran different workloads or trace modes,
or on different mpmath backends: a gmpy or flint backend changes every
timing, so such numbers are not comparable.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> tuple:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def refusal(base: dict, new: dict):
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            return "%s differs: %r vs %r" % (key, base[key], new[key])
    b, n = base["env"]["mpmath_backend"], new["env"]["mpmath_backend"]
    if b != n:
        return "mpmath backend differs: %r vs %r" % (b, n)
    return None


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (base, base_sum), (new, new_sum) = load(argv[0]), load(argv[1])
    reason = refusal(base, new)
    if reason:
        print("refused: " + reason, file=sys.stderr)
        return 2
    print("workload %s, trace %d" % (base["workload"], base["trace"]))
    for name, b in base_sum["metrics"].items():
        n = new_sum["metrics"].get(name)
        if n is None:
            print("%-45s %14.6g %14s" % (name, b["value"], "missing"))
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else float("nan")
        print("%-45s %14.6g %14.6g %+8.1f%% %s" % (name, b["value"], n["value"], 100 * change, b["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

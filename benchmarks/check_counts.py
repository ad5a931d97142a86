"""Exact-count gate over the stack benchmark's last stdout line.

    python3 benchmarks/stack/run.py --seed 0 --seconds 1 | tail -n 1 \\
        | python3 benchmarks/check_counts.py BENCH_stack.json

Every ``<workload>.<count>`` of ``EXACT_COUNTS`` must equal the committed
baseline; each one that does not is printed with both values.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "stack"))
from metrics import EXACT_COUNTS  # noqa: E402


def main(argv):
    want = json.loads(Path(argv[0]).read_text())
    metrics = json.loads(sys.stdin.read())["metrics"]
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    keys = [
        f"{workload['name']}.{count}"
        for workload in benchmark["workloads"]
        for count in EXACT_COUNTS
    ]
    got = {key: metrics.get(key, {}).get("value") for key in keys}
    drifted = [
        key for key in sorted(want.keys() | got) if want.get(key) != got.get(key)
    ]
    for key in drifted:
        print(f"{key}: baseline {want.get(key)}, run {got.get(key)}")
    print(f"{len(drifted)} of {len(got)} exact counts differ from {argv[0]}")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

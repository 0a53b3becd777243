"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-quantized --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``serve-quantized`` and ``control-replay`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics, each time and rate at the reference speed of ``hostspeed``:
no layer is wrapped, except that control-replay timestamps every
controller ``observe`` call and closed-loop run to time its control
intervals.  ``--trace 1`` adds a traced pass with every layer
wrapped and reports the per-layer ledger instead.  Each metric is printed to
standard error as a readable line; the last line of standard output is
one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every served answer passed its checks, 1 when
one did not, and 2 when the package sources are not next to this
directory.  ``repro.obs`` stays disabled throughout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("serve-quantized", "control-replay")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import metrics
    from repro import obs

    if obs.enabled() or obs.tracing_enabled():
        print("perfbench: repro.obs must stay disabled", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload == "control-replay":
        import replay

        outcome = replay.run(args.seed, args.seconds, trace)
    else:
        import serve

        outcome = serve.run(args.workload, args.seed, args.seconds, trace)
    if trace:
        outcome.values["fail_share"] = outcome.fail_share
        table = metrics.per_layer()
    else:
        table = metrics.END_TO_END
    reported = metrics.report(outcome.values, table, fill_zero=trace)
    for name, entry in reported.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}",
              file=sys.stderr)
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

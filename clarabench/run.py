"""Clara's benchmark: one command, every workload, every answer checked.

    python3 clarabench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  ``--workload`` is one of
``serve_mix``, ``serve_nocache``, ``novel_nf``, ``cold_analyze``,
``cold_lint`` or ``all``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run (with ``all``, both, plus the
tracing overhead).  Each metric is printed by name with its unit and
sample count; the last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

``--record`` adds the digests of answers that have no golden answer
yet to ``golden.json`` (how the record was made at the commit that
introduced the benchmark).  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from harness import SRC, CheckoutError, Golden, Session, check_checkout
from workloads import E2E_UNITS, LAYER_UNITS, WORKLOADS, Plan, Result


def report(result: Result, trace: bool) -> None:
    n = len(result.outcomes)
    failed = result.failed
    unchecked = sum(1 for o in result.outcomes if o.verdict == "unchecked")
    kind = "per-layer" if trace else "end-to-end"
    print(f"== {result.workload} ({kind}, {n} requests)")
    for name, (value, unit, count) in result.metrics.items():
        print(f"  {name:30s} {value:14.4f} {unit:10s} n={count}")
    print(f"  {'fail_ratio':30s} {len(failed) / n:14.4f}"
          f" {'failed/att':10s} n={n} ({len(failed)} failed,"
          f" {unchecked} unchecked)")
    reasons = sorted({o.verdict for o in failed})
    for reason in reasons:
        keys = [o.key for o in failed if o.verdict == reason]
        print(f"  failed ({reason}): {', '.join(keys[:8])}"
              + (" ..." if len(keys) > 8 else ""))
    for note in result.notes:
        print(f"  note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="add unrecorded answers to golden.json")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        golden = Golden.load(recording=args.record)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so every program process this
    # run started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # ``all`` with --trace 1 runs each workload untraced and traced.
    modes = [False, True] if args.workload == "all" and args.trace else \
        [bool(args.trace)]
    results = []
    with Session.open() as session:
        for name in names:
            untraced = None
            for trace in modes:
                plan = Plan(seed=args.seed, seconds=args.seconds,
                            trace=trace, golden=golden)
                result = WORKLOADS[name](session, plan)
                report(result, trace)
                if trace and untraced is not None:
                    base = untraced.metrics["latency_p50_ms"][0]
                    traced = result.metrics["traced.latency_p50_ms"][0]
                    print(f"  tracing overhead: latency_p50_ms"
                          f" {base:.2f} -> {traced:.2f} ms"
                          f" ({100 * (traced / base - 1):+.1f}%)")
                untraced = result
                results.append(result)
                if args.record:
                    golden.merge(name, result.outcomes)
    if args.record:
        golden.save()
    outcomes = [o for r in results for o in r.outcomes]
    prefix = len(results) > 1
    metrics = {
        (f"{r.workload}.{name}" if prefix else name):
            {"value": value, "unit": unit}
        for r in results for name, (value, unit, _) in r.metrics.items()
        if name in E2E_UNITS or name in LAYER_UNITS
    }
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

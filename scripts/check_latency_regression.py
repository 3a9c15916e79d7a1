#!/usr/bin/env python3
"""CI latency-regression gate for the serving regimes (E11 small-batch,
E12 open-loop ingest-to-commit).

Compares a fresh `--json` bench run against the committed
`BENCH_baseline.json` entry for the same bench and fails when the gated
metric regressed by more than the allowed factor. The factor absorbs
machine variance between the recording container and CI runners; the
cliffs these gates exist for (a reintroduced per-batch scheduler tax, a
serving front-end that stops keeping up with its offered rate) clear any
reasonable factor easily.

The row is selected with repeatable --where column=value constraints and
the gated column with --metric, so one script gates any table bench:

  check_latency_regression.py NEW.json BENCH_baseline.json \
      --bench e11 --metric p50_us --where k=16 --factor 1.5
  check_latency_regression.py NEW.json BENCH_baseline.json \
      --bench e12 --metric p50_us --where arrival=poisson \
      --where rate=1000000 --factor 3.0

--k N is shorthand for the historical E11 call (--bench e11 --where k=N).

Exit codes: 0 pass, 1 regression past the factor, 3 selection error (no
table row matches the --where constraints / --metric column) -- so CI can
tell "the code got slower" apart from "the gate is pointing at a row that
no longer exists" (e.g. a renamed column or a retired sweep point).
"""
import argparse
import json
import sys

EXIT_NO_ROW = 3


def cell_matches(cell, want: str) -> bool:
    """String-compare, with numeric fallback so 16 == "16" == "16.0"."""
    if str(cell) == want:
        return True
    try:
        return float(cell) == float(want)
    except (TypeError, ValueError):
        return False


def metric_at(doc: dict, metric: str, where: list, source: str) -> float:
    seen_headers = []
    for table in doc["tables"]:
        headers = table["headers"]
        seen_headers.append(headers)
        if metric not in headers:
            continue
        if any(col not in headers for col, _ in where):
            continue
        mi = headers.index(metric)
        for row in table["rows"]:
            if all(cell_matches(row[headers.index(c)], v) for c, v in where):
                return float(row[mi])
    cond = ", ".join(f"{c}={v}" for c, v in where) or "(any row)"
    cols = "; ".join(",".join(h) for h in seen_headers) or "(no tables)"
    print(
        f"error: {source}: no row matching {cond} with column {metric}.\n"
        f"  available columns: {cols}\n"
        f"  (a --where value or --metric name no longer matches the bench's "
        f"table -- fix the gate or re-record the baseline; this is NOT a "
        f"latency regression)",
        file=sys.stderr,
    )
    sys.exit(EXIT_NO_ROW)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("new_json")
    ap.add_argument("baseline_json")
    ap.add_argument("--bench", default="e11",
                    help="entry under 'benches' in the baseline document")
    ap.add_argument("--metric", default="p50_us", help="gated column")
    ap.add_argument("--where", action="append", default=[],
                    metavar="COL=VAL", help="row constraint (repeatable)")
    ap.add_argument("--k", type=int, default=None,
                    help="shorthand for --bench e11 --where k=N")
    ap.add_argument("--factor", type=float, default=1.5)
    args = ap.parse_args()

    where = [tuple(w.split("=", 1)) for w in args.where]
    if args.k is not None:
        where.append(("k", str(args.k)))

    with open(args.new_json) as f:
        new_doc = json.load(f)

    if not where:
        where = [("k", "16")]
    with open(args.baseline_json) as f:
        benches = json.load(f)["benches"]
    if args.bench not in benches:
        print(
            f"error: {args.baseline_json}: no bench entry '{args.bench}' "
            f"(have: {', '.join(sorted(benches))})",
            file=sys.stderr,
        )
        sys.exit(EXIT_NO_ROW)
    baseline = benches[args.bench]

    new_val = metric_at(new_doc, args.metric, where, args.new_json)
    base_val = metric_at(
        baseline, args.metric, where,
        f"{args.baseline_json}[benches.{args.bench}]")
    cond = ", ".join(f"{c}={v}" for c, v in where)
    ratio = new_val / base_val
    print(
        f"{args.bench} [{cond}]: fresh {args.metric} {new_val:.3f} vs "
        f"committed baseline {base_val:.3f} -> x{ratio:.2f} "
        f"(limit x{args.factor})"
    )
    if ratio > args.factor:
        sys.exit(
            f"FAIL: {args.bench} {args.metric} regressed x{ratio:.2f} > "
            f"x{args.factor} against BENCH_baseline.json"
        )
    print("OK")


if __name__ == "__main__":
    main()

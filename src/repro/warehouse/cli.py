"""``python -m repro warehouse`` — the result warehouse's command line.

Subcommands (all take ``--warehouse PATH`` or ``--state-dir DIR``, the
latter using a serve/gateway state dir's ``warehouse.sqlite3``)::

    repro warehouse ingest results.json bench.json --fingerprint abc123
    repro warehouse query --workload SHA-256 --design cassandra --format csv
    repro warehouse fingerprints
    repro warehouse diff --baseline fpA --candidate fpB
    repro warehouse regressions --threshold 0.02        # CI gate: exit 1
    repro warehouse export --fingerprint fpB --format csv
    repro warehouse view figure7
    repro warehouse compact --keep 4

Exit codes: 0 success (for ``regressions``: no regression at or above the
threshold), 1 regressions found, 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.api.results import rows_to_csv
from repro.warehouse.ingest import ingest_file
from repro.warehouse.query import (
    Query,
    WarehouseError,
    compare_fingerprints,
    resolve_fingerprints,
)
from repro.warehouse.store import WAREHOUSE_NAME, WarehouseStore
from repro.warehouse.views import VIEWABLE_EXPERIMENTS, render_view


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro warehouse",
        description="Query, backfill, diff, and gate on the result "
        "warehouse — the SQLite store of every simulation point, keyed on "
        "request sort-key × source-tree fingerprint.",
    )
    parser.add_argument(
        "--warehouse",
        default=None,
        metavar="PATH",
        help=f"warehouse SQLite file (default: ./{WAREHOUSE_NAME}, or "
        "STATE_DIR's when --state-dir is given)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="a repro serve/gateway state dir; uses DIR/" + WAREHOUSE_NAME,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser(
        "ingest", help="backfill JSON exports / BENCH files into the store"
    )
    ingest.add_argument("files", nargs="+", metavar="FILE")
    ingest.add_argument(
        "--fingerprint",
        default=None,
        help="source fingerprint rows land under (default: "
        "$REPRO_WAREHOUSE_FINGERPRINT or the current tree's)",
    )
    ingest.add_argument(
        "--tag", action="append", default=[], metavar="TAG",
        help="tag attached to ingested rows (repeatable)",
    )

    query = sub.add_parser("query", help="filter stored rows / aggregates")
    query.add_argument("--fingerprint", default=None)
    query.add_argument("--workload", default=None)
    query.add_argument("--design", default=None)
    query.add_argument("--config", default=None, metavar="DIGEST")
    query.add_argument("--tenant", default=None)
    query.add_argument(
        "--group-by",
        default=None,
        choices=("workload", "design", "config_digest", "tenant", "source"),
        help="print per-group row counts and geomean cycles instead of rows",
    )
    query.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )

    sub.add_parser("fingerprints", help="list stored fingerprints")

    diff = sub.add_parser(
        "diff", help="per-point cycle deltas between two fingerprints"
    )
    regressions = sub.add_parser(
        "regressions",
        help="CI gate: exit 1 when the candidate fingerprint is >= "
        "threshold slower than the baseline on any common point",
    )
    for cmd in (diff, regressions):
        cmd.add_argument(
            "--baseline", default=None,
            help="baseline fingerprint (default: next-newest in the store)",
        )
        cmd.add_argument(
            "--candidate", default=None,
            help="candidate fingerprint (default: newest in the store)",
        )
        cmd.add_argument(
            "--threshold", type=float, default=0.02, metavar="FRACTION",
            help="slowdown fraction that counts (default: 0.02 = 2%%)",
        )
        cmd.add_argument("--format", choices=("text", "json"), default="text")

    export = sub.add_parser(
        "export", help="dump stored rows (ResultSet export shape)"
    )
    export.add_argument("--fingerprint", default=None)
    export.add_argument("--workload", default=None)
    export.add_argument("--design", default=None)
    export.add_argument(
        "--format", choices=("csv", "json"), default="csv"
    )
    export.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write here instead of stdout",
    )

    view = sub.add_parser(
        "view", help="re-render a paper table from stored results"
    )
    view.add_argument("experiment", choices=VIEWABLE_EXPERIMENTS)
    view.add_argument("--fingerprint", default=None)
    view.add_argument(
        "--workloads", default=None,
        help="'all', 'quick', or comma-separated names (default: the "
        "stored set, in the order a direct run would use)",
    )

    compact = sub.add_parser(
        "compact", help="drop old fingerprints and VACUUM"
    )
    compact.add_argument(
        "--keep", type=int, default=8, metavar="N",
        help="fingerprints to keep, newest first (default: 8)",
    )

    bench = sub.add_parser("bench", help="print the stored BENCH history")
    bench.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _store_path(args: argparse.Namespace) -> str:
    if args.warehouse is not None:
        return args.warehouse
    if args.state_dir is not None:
        return os.path.join(args.state_dir, WAREHOUSE_NAME)
    return WAREHOUSE_NAME


def warehouse_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    path = _store_path(args)
    if args.command != "ingest" and not os.path.exists(path):
        print(f"error: no warehouse at {path}", file=sys.stderr)
        return 2
    try:
        with WarehouseStore(path) as store:
            return _dispatch(args, store)
    except BrokenPipeError:  # head/less closed the pipe; not an error
        return 0
    except (WarehouseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, store: WarehouseStore) -> int:
    if args.command == "ingest":
        return _cmd_ingest(args, store)
    if args.command == "query":
        return _cmd_query(args, store)
    if args.command == "fingerprints":
        return _cmd_fingerprints(store)
    if args.command in ("diff", "regressions"):
        return _cmd_compare(args, store)
    if args.command == "export":
        return _cmd_export(args, store)
    if args.command == "view":
        return _cmd_view(args, store)
    if args.command == "compact":
        deleted = store.compact(keep=args.keep)
        print(f"compacted: {deleted} rows dropped, {store.count()} kept")
        return 0
    if args.command == "bench":
        return _cmd_bench(args, store)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_ingest(args: argparse.Namespace, store: WarehouseStore) -> int:
    total = 0
    for path in args.files:
        kind, count = ingest_file(
            store, path, fingerprint=args.fingerprint, tags=tuple(args.tag)
        )
        total += count
        print(f"{path}: {count} rows ({kind})")
    print(f"ingested {total} rows; store holds {store.count()} result rows")
    return 0


def _axis_filters(args: argparse.Namespace) -> Dict[str, Any]:
    filters: Dict[str, Any] = {}
    if args.workload is not None:
        filters["workload"] = args.workload
    if args.design is not None:
        filters["design"] = args.design
    if getattr(args, "config", None) is not None:
        filters["config_digest"] = args.config
    if getattr(args, "tenant", None) is not None:
        filters["tenant"] = args.tenant
    return filters


def _cmd_query(args: argparse.Namespace, store: WarehouseStore) -> int:
    query = Query(store, fingerprint=args.fingerprint).where(
        **_axis_filters(args)
    )
    if args.group_by is not None:
        rows = [
            {
                args.group_by: key,
                "points": len(group.rows()),
                "geomean_cycles": round(group.geomean_cycles(), 1),
            }
            for key, group in query.group_by(args.group_by).items()
        ]
        print(_tabulate(rows, args.format))
        return 0
    rows = [
        {**row.export_row(), "fingerprint": row.fingerprint}
        for row in query.rows()
    ]
    print(_tabulate(rows, args.format))
    return 0


def _cmd_fingerprints(store: WarehouseStore) -> int:
    rows = [info.as_dict() for info in store.fingerprints()]
    print(_tabulate(rows, "text"))
    return 0


def _cmd_compare(args: argparse.Namespace, store: WarehouseStore) -> int:
    baseline, candidate = resolve_fingerprints(
        store, args.baseline, args.candidate
    )
    report = compare_fingerprints(
        store, baseline, candidate, threshold=args.threshold
    )
    if args.format == "json":
        payload = report.as_dict()
        if args.command == "diff":
            payload["deltas"] = [d.as_dict() for d in report.deltas]
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"baseline {baseline} vs candidate {candidate} "
            f"({len(report.deltas)} common points, threshold "
            f"{report.threshold:+.1%})"
        )
        shown = (
            report.deltas
            if args.command == "diff"
            else tuple(report.regressions + report.improvements)
        )
        rows = [
            {
                "workload": d.workload,
                "design": d.design,
                "baseline": d.baseline_cycles,
                "candidate": d.candidate_cycles,
                "ratio": f"{d.ratio:.4f}",
            }
            for d in shown
        ]
        if rows:
            print(_tabulate(rows, "text"))
        if report.missing or report.new:
            print(
                f"note: {report.missing} baseline-only, "
                f"{report.new} candidate-only points not compared"
            )
        verdict = (
            "no regressions"
            if report.ok
            else f"{len(report.regressions)} regression(s)"
        )
        print(f"verdict: {verdict}")
    if args.command == "regressions" and not report.ok:
        return 1
    return 0


def _cmd_export(args: argparse.Namespace, store: WarehouseStore) -> int:
    query = Query(store, fingerprint=args.fingerprint).where(
        **{
            axis: value
            for axis, value in (
                ("workload", args.workload),
                ("design", args.design),
            )
            if value is not None
        }
    )
    rows = query.export_rows()
    text = (
        rows_to_csv(rows)
        if args.format == "csv"
        else json.dumps(rows, indent=2) + "\n"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_view(args: argparse.Namespace, store: WarehouseStore) -> int:
    print(
        render_view(
            store,
            args.experiment,
            fingerprint=args.fingerprint,
            workloads=args.workloads,
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace, store: WarehouseStore) -> int:
    history = store.bench_history()
    if args.format == "json":
        print(json.dumps(history, indent=2))
        return 0
    rows = [
        {
            "timestamp": entry.get("timestamp"),
            "schema": entry.get("schema_version"),
            "speedup": entry.get("speedup", ""),
            "kernel_speedup": entry.get("kernel_speedup", ""),
            "native_speedup": entry.get("native_speedup", ""),
            # Schema <= 7 only: the deleted columns tier's sweep speedup.
            "columns_speedup": entry.get("columns_speedup", ""),
        }
        for entry in history
    ]
    print(_tabulate(rows, "text"))
    return 0


def _tabulate(rows: List[Dict[str, Any]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        import csv
        import io

        out = io.StringIO()
        columns = list(rows[0]) if rows else []
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                "" if row.get(c) is None else row.get(c) for c in columns
            )
        return out.getvalue().rstrip("\n")
    if not rows:
        return "(no rows)"
    from repro.experiments.runner import format_table

    return format_table(rows, list(rows[0]))

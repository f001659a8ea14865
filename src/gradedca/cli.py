"""Command-line front end.

    gradedca compute <job.json> [--seed N] [--out PATH]
                                 [--format json|csv] [--no-timings]
    gradedca check <corpus-dir> [--seed N] [--out PATH]

The environment variable GRADEDCA_CHAR sets the default field
characteristic for jobs that omit ring.characteristic (use "0" for the
rationals).  Exit codes: 0 success, 1 failed checks, 2 invalid input,
3 computation error.  In check, a computation error in one corpus file
becomes a failed error:<type> row for that file and the rest still run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .checks import CheckRow, check_instance, rows_to_matrix
from .jobio import JobError, build_job, run_job
from .poly import PolyError, PolyParseError


def _default_char():
    raw = os.environ.get("GRADEDCA_CHAR")
    if raw is None:
        return 32003
    try:
        value = int(raw)
    except ValueError:
        raise JobError("GRADEDCA_CHAR must be an integer, got %r" % raw)
    return None if value == 0 else value


def _emit(doc, out_path, fmt):
    if fmt == "csv":
        text = _to_csv(doc)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _to_csv(report):
    """CSV emission for table-valued results only."""
    lines = []
    for entry in report.get("results", []):
        op = entry["op"]["op"]
        res = entry["result"]
        table = None
        if isinstance(res, dict):
            table = res.get("values") or res.get("table")
            if isinstance(table, dict):
                table = table.get("values")
        if not isinstance(table, list) or not all(
                isinstance(v, int) for v in table):
            continue
        lines.append("# op,%s" % op)
        lines.append("n,value")
        for n, v in enumerate(table):
            lines.append("%d,%d" % (n, v))
    if not lines:
        raise JobError("csv format is only available for table-valued ops "
                       "(hilbert-samuel, buchsbaum-rim)")
    return "\n".join(lines) + "\n"


def cmd_compute(args):
    try:
        raw = json.loads(Path(args.job).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print("cannot read job file: %s" % exc, file=sys.stderr)
        return 2
    report = run_job(raw, default_char=_default_char(),
                     seed_override=args.seed,
                     with_timings=not args.no_timings)
    _emit(report, args.out, args.format)
    return 0


def _check_one(path, seed, default_char):
    """Check rows of one corpus file.

    Invalid input propagates (exit 2), also when the battery parses it
    late, as it does the brim columns; a computation error becomes one
    failed row error:<type> under the file's stem, so the batch goes on.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise JobError("cannot read %s: %s" % (path, exc))
    job = build_job(raw, default_char=default_char, seed_override=seed)
    if job.name == "job":
        job.name = Path(path).stem
    try:
        return check_instance(job)
    except (PolyParseError, JobError):
        raise
    except (PolyError, AssertionError) as exc:
        return [CheckRow(instance=Path(path).stem,
                         check="error:%s" % type(exc).__name__,
                         passed=False, detail=str(exc))]


def cmd_check(args):
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        print("corpus directory not found: %s" % corpus, file=sys.stderr)
        return 2
    paths = sorted(corpus.glob("*.json"))
    char = _default_char()
    rows = []
    for p in paths:
        rows.extend(_check_one(p, args.seed, char))
    matrix = rows_to_matrix(rows)
    _emit(matrix, args.out, "json")
    return 0 if matrix["failed"] == 0 else 1


def make_parser():
    parser = argparse.ArgumentParser(
        prog="gradedca",
        description="Hilbert coefficients, Koszul homology, homological "
                    "degrees and Buchsbaum-Rim coefficients of graded modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run a JSON job file")
    p_compute.add_argument("job")
    p_compute.add_argument("--seed", type=int, default=None)
    p_compute.add_argument("--out", default=None)
    p_compute.add_argument("--format", choices=["json", "csv"], default="json")
    p_compute.add_argument("--no-timings", action="store_true",
                           help="omit the timings section (deterministic output)")
    p_compute.set_defaults(func=cmd_compute)

    p_check = sub.add_parser("check", help="run the theorem-check suite on a corpus")
    p_check.add_argument("corpus")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolyParseError as exc:
        print("invalid polynomial: %s" % exc, file=sys.stderr)
        return 2
    except JobError as exc:
        print("invalid job: %s" % exc, file=sys.stderr)
        return 2
    except PolyError as exc:
        print("computation error [%s]: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3
    except AssertionError as exc:
        print("computation error [invariant]: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

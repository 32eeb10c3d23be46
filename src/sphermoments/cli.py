"""Command-line front end.

    sphermoments <moments|anisotropy|sweep|validate|bench> [flags]

All JSON output carries a "schema": "1" field and 17-significant-digit
floats so doubles round-trip; infinities are emitted as the string
"inf".  Exit codes: 0 success, 1 validation-suite failure or violated
anisotropy bound, 2 input error, 3 I/O error.  SPHERMOMENTS_SEED
provides the default --seed.
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import anisotropy, distributions, moments, oracle, validation
from .errors import ConvergenceError
from .reports import moment_report_to_json

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_IO_ERROR = 3

SWEEP_OUTPUTS = ("fa", "ratio", "eigenvalues", "mean_norm")


def _default_seed():
    text = os.environ.get("SPHERMOMENTS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SPHERMOMENTS_SEED must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# JSON/CSV emission with fixed float formatting (byte-identical reruns)

class _Digits12(float):
    """Marker for values emitted with 12 significant digits (bound constants)."""


def _quoted(x):
    """JSON's spelling of a non-finite float: the string "inf", "-inf" or "nan"."""
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def dumps(obj):
    """Serialize to JSON with 17-significant-digit floats.

    The whole report is spelled through one template, filled by a single
    ``%``: each finite float is a %.17g slot, and everything else (keys,
    strings, null, booleans, ints, the quoted non-finite floats, _Digits12
    at 12 digits) is literal text with ``%`` escaped.
    """
    template, values = [], []
    _spell(obj, template, values)
    return "".join(template) % tuple(values)


def _literal(text):
    return text.replace("%", "%%")


@functools.lru_cache(maxsize=256)
def _string(text):
    """The template text of a JSON string: the keys and names of a report recur."""
    return _literal(json.dumps(text))


def _spell(obj, template, values):
    """Append obj's template text to ``template`` and its slots' floats to ``values``."""
    # exact types first, the bulk of a report; subclasses such as _Digits12
    # and np.float64 fall through to the isinstance chain
    if type(obj) is float:
        if math.isfinite(obj):
            template.append("%.17g")
            values.append(obj)
        else:
            template.append(_quoted(obj))
    elif type(obj) is list:
        _spell_items(obj, template, values)
    elif obj is None:
        template.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        template.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        template.append(str(int(obj)))
    elif isinstance(obj, _Digits12):
        x = float(obj)
        template.append(format(x, ".12g") if math.isfinite(x) else _quoted(x))
    elif isinstance(obj, (float, np.floating)):
        _spell(float(obj), template, values)
    elif isinstance(obj, str):
        template.append(_string(obj))
    elif isinstance(obj, dict):
        template.append("{")
        for i, (key, value) in enumerate(obj.items()):
            template.append((", " if i else "") + _string(str(key)) + ": ")
            _spell(value, template, values)
        template.append("}")
    elif isinstance(obj, (list, tuple)):
        _spell_items(obj, template, values)
    elif isinstance(obj, np.ndarray) and obj.ndim:
        _spell_items(obj.tolist(), template, values)
    elif isinstance(obj, _Table):
        _spell_table(obj, template, values)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _spell_items(items, template, values):
    """A JSON array: one cached template for a vector of finite Python
    floats or a rectangular list of such vectors, else item by item."""
    if items:
        first = items[0]
        if type(first) is list and all(type(row) is list and len(row) == len(first) for row in items):
            flat, shape = [x for row in items for x in row], (len(items), len(first))
        else:
            flat, shape = items, (len(items),)
        # a sum that overflows only sends finite floats the slow way
        if flat and set(map(type, flat)) == {float} and math.isfinite(sum(flat)):
            template.append(_slots(shape))
            values.extend(flat)
            return
    template.append("[")
    for i, value in enumerate(items):
        if i:
            template.append(", ")
        _spell(value, template, values)
    template.append("]")


@functools.lru_cache(maxsize=64)
def _slots(shape):
    """The JSON array of %.17g slots for a vector (m,) or a matrix (m, n)."""
    row = "[" + ", ".join(["%.17g"] * shape[-1]) + "]"
    return row if len(shape) == 1 else "[" + ", ".join([row] * shape[0]) + "]"


@dataclass(frozen=True, eq=False)
class _Table:
    """A report as columns of ``rows`` cells each: a 1-D float array, or one
    cell (str, int or None) that every row repeats.  Both formats spell each
    row through one template with a %.17g slot per float column, filled from
    all rows in a single ``%``."""

    columns: dict
    rows: int


def _interleaved(columns):
    """Row-major values of equal-length float columns, as Python floats."""
    return np.column_stack(columns).ravel().tolist() if columns else []


def _csv_text(table):
    """CSV with a header line of the column names.  %.17g spells inf, -inf
    and nan as CSV cells always have; a repeated cell is spelled by str()."""
    cells, columns = [], []
    for column in table.columns.values():
        if isinstance(column, np.ndarray):
            cells.append("%.17g")
            columns.append(column)
        else:
            cells.append(_literal(str(column)))
    row = ",".join(cells) + "\n"
    return ",".join(table.columns) + "\n" + (row * table.rows) % tuple(_interleaved(columns))


def _spell_table(table, template, values):
    """The JSON array of one object per row, as a list of dicts would be
    spelled, appended as one template of rows; a float column holding
    non-finite values takes a %s slot, filled with its cells spelled one by one."""
    fields, columns, spelled = [], [], {}
    for name, column in table.columns.items():
        if isinstance(column, np.ndarray):
            bad = np.flatnonzero(~np.isfinite(column)).tolist()
            if bad:
                cells = ["%.17g" % x for x in column.tolist()]
                for i in bad:
                    cells[i] = _quoted(column[i])
                spelled[len(columns)] = cells
            slot = "%s" if bad else "%.17g"
            columns.append(column)
        else:
            slot = _literal(dumps(column))
        fields.append(_string(str(name)) + ": " + slot)
    cells = _interleaved(columns)
    for j, column_cells in spelled.items():
        cells[j :: len(columns)] = column_cells
    row = "{" + ", ".join(fields) + "}"
    template.append("[" + ", ".join([row] * table.rows) + "]")
    values.extend(cells)


def _write_output(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# shared input parsing

def _add_dist_arguments(parser):
    parser.add_argument("--dist-json", help="distribution parameters as inline JSON")
    parser.add_argument("--dist", help="@path to a JSON file with the same schema")


def _load_distribution(args):
    if args.dist_json and args.dist:
        raise ValueError("pass either --dist-json or --dist, not both")
    if args.dist_json:
        text = args.dist_json
    elif args.dist:
        if not args.dist.startswith("@"):
            raise ValueError("--dist expects @path (use --dist-json for inline JSON)")
        try:
            with open(args.dist[1:]) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read distribution file: {exc}") from exc
    else:
        raise ValueError("a distribution is required (--dist-json or --dist @path)")
    return distributions.distribution_from_json(json.loads(text))


def _closed_form_report(dist):
    return moments.closed_form_moments(dist)


def _anisotropy_report(dist, params):
    distributions._checked(dist)
    if dist.kind == "bimodal_vmf":
        return anisotropy.vmf_closed_form_report(dist.k, dist.u, params)
    if dist.kind == "peanut" and distributions._is_symmetric(dist.A):
        return anisotropy.peanut_closed_form_report(dist.A, params, validated=True)
    # asymmetric peanuts too: the closed-form covariance symmetrizes A
    return anisotropy.anisotropy_report(dist, params)


def _anisotropy_report_json(report):
    bounds = {
        name: (value if math.isinf(value) else _Digits12(value))
        for name, value in report.bounds.items()
    }
    return {
        "schema": "1",
        "eigenvalues": report.eigenvalues,
        "fa": report.fa,
        "ratio": report.ratio,
        "bounds": bounds,
        "bound_flags": dict(report.bound_flags),
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_moments(args):
    dist = _load_distribution(args)
    closed = _closed_form_report(dist)
    out = {
        "schema": "1",
        "closed_form": None if closed is None else moment_report_to_json(closed),
    }
    if args.oracle != "none":
        if args.oracle == "quad":
            report = oracle.quad_moments(dist, resolution=args.resolution)
        else:
            report = oracle.mc_moments(
                dist, oracle.McSpec(dist.n, args.samples, args.seed)
            )
        out["oracle"] = moment_report_to_json(report)
        if closed is not None:
            out["max_abs_dev"] = max(
                float(np.max(np.abs(closed.mean - report.mean))),
                float(np.max(np.abs(closed.covariance - report.covariance))),
            )
        else:
            out["max_abs_dev"] = None
    sys.stdout.write(dumps(out) + "\n")
    return EXIT_OK


def cmd_anisotropy(args):
    dist = _load_distribution(args)
    params = anisotropy.MotilityParams(args.s, args.mu)
    report = _anisotropy_report(dist, params)
    sys.stdout.write(dumps(_anisotropy_report_json(report)) + "\n")
    # a violated bound signals a library bug, not an input problem
    return EXIT_OK if report.bounds_satisfied else EXIT_SUITE_FAILURE


def _parse_grid(args):
    """The sweep grid as a 1-D float array: finite and strictly increasing."""
    if args.grid and args.grid_log:
        raise ValueError("pass either --grid or --grid-log, not both")
    if args.grid:
        values = np.array([float(v) for v in args.grid.split(",") if v.strip()])
        if not np.all(np.isfinite(values)):
            raise ValueError(f"--grid values must be finite, got {args.grid!r}")
    elif args.grid_log:
        lo, hi, count = args.grid_log
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"--grid-log MIN and MAX must be finite, got {lo} and {hi}")
        if not math.isfinite(count) or count != int(count):
            raise ValueError(f"--grid-log COUNT must be an integer, got {count}")
        count = int(count)
        if lo <= 0 or hi <= lo or count < 1:
            raise ValueError("--grid-log expects 0 < MIN < MAX and COUNT >= 1")
        values = np.array([lo]) if count == 1 else np.geomspace(lo, hi, count)
    else:
        raise ValueError("a grid is required (--grid or --grid-log)")
    if not values.size:
        raise ValueError("grid must be nonempty")
    if np.any(values[1:] <= values[:-1]):
        raise ValueError("grid values must be strictly increasing")
    return values


def _sweep_table(args, dist, params, values, outputs):
    """The sweep's columns, one row per grid value, from one batch report
    over the whole grid.  ``fa`` is None outside n in {2, 3}."""
    if args.parameter == "eigen_ratio":
        a = np.tile(np.eye(dist.n), (values.size, 1, 1))
        a[:, 0, 0] = values
        report = anisotropy.peanut_closed_form_report(a, params)
    elif dist.kind == "bimodal_vmf":
        report = anisotropy.vmf_closed_form_report(values, dist.u, params)
    else:
        # anisotropy_report reads the vmf's closed formulas off a batch point
        point = distributions.SphericalDistribution("vmf", dist.n, u=dist.u, k=values)
        report = anisotropy.anisotropy_report(point, params)
    columns = {"parameter": args.parameter, "value": values}
    for output in outputs:
        if output == "fa":
            columns["fa"] = report.fa
        elif output == "ratio":
            columns["ratio"] = report.ratio
        elif output == "eigenvalues":
            for i, lam in enumerate(report.eigenvalues.T, start=1):
                columns[f"eigenvalue_{i}"] = lam
        elif output == "mean_norm":
            if dist.kind == "vmf":
                mean = moments.vmf_mean(values, dist.u)
                columns["mean_norm"] = np.linalg.norm(mean, axis=1)
            else:
                columns["mean_norm"] = np.zeros(values.size)
    return _Table(columns, values.size)


def cmd_sweep(args):
    dist = _load_distribution(args)
    params = anisotropy.MotilityParams(args.s, args.mu)
    values = _parse_grid(args)
    outputs = [o.strip() for o in args.outputs.split(",") if o.strip()]
    for output in outputs:
        if output not in SWEEP_OUTPUTS:
            raise ValueError(f"unknown output {output!r}; choose from {SWEEP_OUTPUTS}")
    if args.parameter == "k":
        if "k" not in distributions.FAMILIES[dist.kind]:
            raise ValueError("k sweeps require a vmf or bimodal_vmf distribution")
        if np.any(values < 0):
            raise ValueError("k grid values must be >= 0")
    else:
        if dist.kind != "peanut":
            raise ValueError("eigen_ratio sweeps require a peanut distribution")
        if np.any(values <= 0):
            raise ValueError("eigen_ratio grid values must be > 0")
    table = _sweep_table(args, dist, params, values, outputs)
    if args.format == "json":
        text = dumps({"schema": "1", "rows": table}) + "\n"
    else:
        text = _csv_text(table)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_validate(args):
    summary = validation.run_validation(args.level, args.seed)
    sys.stdout.write(dumps(summary) + "\n")
    return EXIT_OK if summary["passed"] else EXIT_SUITE_FAILURE


def _time_per_call(fn, repeats, min_time=0.02):
    # imported here: statistics (with fractions and decimal) adds about 3 ms
    # to every CLI start, and only bench uses it
    import statistics

    # calibrate an inner loop so each sample lasts at least min_time
    fn()
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time:
            break
        calls = max(calls * 2, int(calls * min_time / max(elapsed, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def cmd_bench(args):
    values = [float(v) for v in args.k_grid.split(",") if v.strip()]
    if not values:
        raise ValueError("--k-grid must be nonempty")
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    n = args.n
    u = np.zeros(n)
    u[0] = 1.0
    oracle_method = f"quad_{args.resolution}" if n <= 3 else f"mc_{args.samples}"
    closed_s, oracle_s = [], []
    for k in values:
        closed_s.append(_time_per_call(lambda: moments.vmf_covariance(k, u), args.repeats))
        dist = distributions.vmf(u, k)
        if n <= 3:
            def run_oracle():
                oracle.quad_moments(dist, resolution=args.resolution, check=False)

        else:
            mc_spec = oracle.McSpec(n, args.samples, args.seed)

            def run_oracle():
                oracle.mc_moments(dist, mc_spec)

        oracle_s.append(_time_per_call(run_oracle, args.repeats, min_time=0.05))
    closed_s, oracle_s = np.array(closed_s), np.array(oracle_s)
    table = _Table(
        {
            "n": n,
            "k": np.array(values),
            "oracle_method": oracle_method,
            "closed_form_us": closed_s * 1e6,
            "oracle_us": oracle_s * 1e6,
            "speedup": oracle_s / closed_s,
        },
        len(values),
    )
    _write_output(_csv_text(table), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parser

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphermoments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "moments",
        help="closed-form moments, optionally compared against the oracle",
        description=(
            "Emit the closed-form MomentReport as JSON (null for odf/bingham, "
            "which have none); with --oracle also emit the oracle report and "
            "the elementwise max deviation."
        ),
    )
    _add_dist_arguments(p)
    p.add_argument("--oracle", choices=("none", "quad", "mc"), default="none")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="Monte Carlo sample count (default 10^6)")
    p.add_argument("--resolution", type=int, default=256,
                   help="quadrature points per dimension (default 256)")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser(
        "anisotropy",
        help="diffusion-tensor eigenvalues, FA and eigenvalue ratio",
        description=(
            "Emit an AnisotropyReport as JSON: eigenvalues (descending), fa "
            "(null outside n in {2,3}), ratio ('inf' if unbounded), the "
            "applicable upper bounds and their satisfied flags.  Exits 1 if "
            "a bound is violated (a library bug, not an input error)."
        ),
    )
    _add_dist_arguments(p)
    p.add_argument("--s", type=float, default=1.0, help="speed (default 1)")
    p.add_argument("--mu", type=float, default=1.0, help="turning rate (default 1)")
    p.set_defaults(func=cmd_anisotropy)

    p = sub.add_parser(
        "sweep",
        help="anisotropy outputs over a parameter grid (CSV or JSON)",
        description=(
            "Sweep k (vmf/bimodal_vmf) or the leading diagonal entry of "
            "A=diag(t,1,...,1) (peanut, parameter 'eigen_ratio').  CSV "
            "columns: parameter,value,<outputs> with eigenvalues expanded to "
            "eigenvalue_1..eigenvalue_n; rows follow the grid order."
        ),
    )
    _add_dist_arguments(p)
    p.add_argument("--parameter", choices=("k", "eigen_ratio"), required=True)
    p.add_argument("--grid", help="comma-separated strictly increasing values")
    p.add_argument("--grid-log", nargs=3, type=float, metavar=("MIN", "MAX", "COUNT"),
                   help="log-spaced grid")
    p.add_argument("--outputs", default="fa,ratio",
                   help=f"comma list from {','.join(SWEEP_OUTPUTS)}")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "validate",
        help="run the self-check suites; exit 0 iff all pass",
        description=(
            "Suites: normalization, oracle_equivalence, bessel_identities, "
            "anisotropy_bounds.  'smoke' finishes in seconds; 'full' runs "
            "the acceptance-grade grids."
        ),
    )
    p.add_argument("--level", choices=("smoke", "full"), default="smoke")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "bench",
        help="time closed-form covariance vs the oracle (CSV)",
        description=(
            "CSV columns: n,k,oracle_method,closed_form_us,oracle_us,speedup.  "
            "Per-call times are medians over --repeats samples."
        ),
    )
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k-grid", default="0.5,2,10,50")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--samples", type=int, default=100_000,
                   help="oracle sample count when n > 3")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()  # read on every run; it may be malformed
        return args.func(args)
    except OSError as exc:
        sys.stdout.write(dumps({"error": str(exc)}) + "\n")
        return EXIT_IO_ERROR
    except (ValueError, ConvergenceError) as exc:
        # ValueError covers the library's validation/domain errors and
        # malformed JSON input
        sys.stdout.write(dumps({"error": str(exc)}) + "\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

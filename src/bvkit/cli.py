"""Command-line interface.

Subcommands: variation, decompose, lusin, certify, recover, ac,
corpus-report.  Function models are read from JSON spec files (see
:mod:`bvkit.specio`); rationals may be written as "p/q" anywhere a number
is expected.
"""

from __future__ import annotations

import argparse
import math
import sys

from ._num import FLOAT, RATIONAL, as_number, frac, sig15
from .certificate import shift_certificate, variation_certificate
from .corpus import CorpusConfig, run_corpus
from .density import ac_modulus, bv_density, density_grid, integrate, \
    reconstruction_error
from .errors import BVKitError
from .measure import cantor_family, lusin_probe, shrinking_family
from .plots import _float_values, _write_csv
from .specio import dump_json, load_intervals, load_model
from .variation import jordan_decomposition, total_variation


def _tolerance(text) -> float:
    """A ``--tol`` value: a float that is finite and not negative."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative: {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvkit",
        description="Variation, measure and density tooling for exact "
                    "piecewise function models.")
    parser.add_argument("--arithmetic", choices=(RATIONAL, FLOAT), default=None,
                        help="override the spec file's arithmetic mode")
    parser.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="refinement tolerance for variation estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    def allow_tol(sp):
        # accepted after the subcommand as well; SUPPRESS keeps a
        # pre-subcommand --tol intact when the local one is absent
        sp.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS)

    p = sub.add_parser("variation", help="total variation up to a point")
    p.add_argument("spec")
    p.add_argument("--at", default=None, help="evaluation point (default b)")
    allow_tol(p)

    p = sub.add_parser("decompose", help="emit the monotone parts p and n as CSV")
    p.add_argument("spec")
    p.add_argument("--emit", nargs=2, metavar=("P_CSV", "N_CSV"), required=True)
    p.add_argument("--grid", type=int, default=1024)

    p = sub.add_parser("lusin", help="null-family image probe")
    p.add_argument("spec")
    p.add_argument("--family", choices=("cantor", "shrinking"), default="cantor")
    p.add_argument("--count", type=int, default=1,
                   help="interval count for the shrinking family")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--threshold", default="1/2")
    p.add_argument("--report", default=None)

    p = sub.add_parser("certify", help="run a budgeted certificate")
    p.add_argument("spec")
    p.add_argument("--nullset", required=True, help="interval-set JSON file")
    p.add_argument("--eps", required=True)
    p.add_argument("--trace", default=None, help="write the full ledger JSON here")
    p.add_argument("--shift", action="store_true",
                   help="certify the F+x shift instead of the variation cover")

    p = sub.add_parser("recover", help="recover the density and re-integrate")
    p.add_argument("spec")
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--h", default="auto")
    p.add_argument("--emit", default=None, help="density CSV path")
    p.add_argument("--report", default=None, help="reconstruction JSON path")

    p = sub.add_parser("ac", help="absolute-continuity modulus over a schedule")
    p.add_argument("spec")
    p.add_argument("--deltas", required=True,
                   help="comma-separated lengths, e.g. 1e-1,1e-2,1e-3")

    p = sub.add_parser("corpus-report", help="run the corpus equivalence table")
    p.add_argument("--outdir", required=True)
    p.add_argument("--grid", type=int, default=1024)
    return parser


def _number(text, model):
    return as_number(text, model.arithmetic)


def cmd_variation(args) -> int:
    model = load_model(args.spec, args.arithmetic)
    at = model.b if args.at is None else _number(args.at, model)
    estimate = total_variation(model, at, tol=args.tol)
    print(f"variation from {model.a} to {at}: {estimate.lower}"
          f" (converged={estimate.converged},"
          f" partition size {len(estimate.achieving_partition)})")
    return 0


def cmd_decompose(args) -> int:
    model = load_model(args.spec, args.arithmetic)
    decomposition = jordan_decomposition(model)
    grid = model.verification_grid(args.grid)
    for path, part in zip(args.emit, (decomposition.p, decomposition.n)):
        _write_csv(path, ["x", "value"], zip(grid, _float_values(part, grid)))
        print(f"wrote {path}")
    return 0


def cmd_lusin(args) -> int:
    model = load_model(args.spec, args.arithmetic)
    domain = (model.a, model.b)
    if args.family == "cantor":
        family = cantor_family(domain)
    else:
        family = shrinking_family(domain, count=args.count)
    threshold = frac(args.threshold)
    report = lusin_probe(model, family, args.levels, threshold)
    for j, mu, img in report.levels:
        print(f"level {j}: set measure {sig15(mu)}, image measure {sig15(img)}")
    print(f"verdict: {report.verdict}")
    if args.report:
        dump_json(report, args.report)
        print(f"wrote {args.report}")
    return 0


def cmd_certify(args) -> int:
    model = load_model(args.spec, args.arithmetic)
    nullset = load_intervals(args.nullset, model.arithmetic)
    eps = as_number(args.eps, model.arithmetic)
    if args.shift:
        trace = shift_certificate(model, nullset, eps)
        print(f"shift certificate: plateau part {sig15(trace.g_n1_measure)}, "
              f"remainder bound {sig15(trace.shift_bound)} "
              f"< 2*eps = {sig15(2 * eps)}")
    else:
        trace = variation_certificate(model, nullset, eps)
        print(f"variation certificate: {len(trace.cells)} cells, "
              f"max p-cover {sig15(trace.max_p_sum)} < 5*eps = {sig15(5 * eps)}, "
              f"max n-cover {sig15(trace.max_n_sum)} < 9*eps = {sig15(9 * eps)}")
    if args.trace:
        dump_json(trace, args.trace)
        print(f"wrote {args.trace}")
    return 0


def cmd_recover(args) -> int:
    model = load_model(args.spec, args.arithmetic)
    h = None if args.h == "auto" else as_number(args.h, model.arithmetic)
    grid, h = density_grid(model, args.grid, h)
    density = bv_density(model, grid, h)
    report = reconstruction_error(model, density)
    print(f"grid {len(grid)} points, window {sig15(h)}, "
          f"sup reconstruction error {sig15(report.sup_error)} "
          f"at x = {sig15(report.argmax)}")
    if args.emit:
        _write_csv(args.emit, ["x", "f"], zip(density.grid, density.values))
        print(f"wrote {args.emit}")
    if args.report:
        dump_json({"sup_error": float(report.sup_error),
                   "argmax": float(report.argmax),
                   "grid_points": report.grid_points,
                   "window": float(report.window),
                   "total_integral": float(integrate(density, model.b))},
                  args.report)
        print(f"wrote {args.report}")
    return 0


def cmd_ac(args) -> int:
    model = load_model(args.spec, args.arithmetic)
    deltas = [as_number(tok, model.arithmetic)
              for tok in args.deltas.split(",") if tok.strip()]
    report = ac_modulus(model, deltas)
    for delta, omega, _ in report.samples:
        print(f"delta {sig15(delta)}: omega {sig15(omega)}")
    print(f"verdict: {report.verdict}")
    return 0


def cmd_corpus_report(args) -> int:
    table = run_corpus(config=CorpusConfig(grid_points=args.grid),
                       outdir=args.outdir)
    for row in table.rows:
        flags = " ".join(f"{k}={'Y' if row.measured.get(k) else 'n'}"
                         for k in ("continuous", "bv", "lusin", "ac"))
        status = "ok" if row.agree else "MISMATCH"
        print(f"{row.name:12s} {flags}  {status}")
    print(f"all_agree: {table.all_agree}")
    return 0 if table.all_agree else 1


_HANDLERS = {
    "variation": cmd_variation,
    "decompose": cmd_decompose,
    "lusin": cmd_lusin,
    "certify": cmd_certify,
    "recover": cmd_recover,
    "ac": cmd_ac,
    "corpus-report": cmd_corpus_report,
}


_ONE_VALUE = ("--at", "--tol", "--eps", "--threshold", "--h", "--deltas")


def _bind_values(argv) -> list:
    """The arguments with each option of ``_ONE_VALUE`` joined to a
    following token that starts with one dash, as ``--at=-1/2``: argparse
    takes a value such as ``-1/2`` for an option, and the option's own
    parsing then judges it, as ``_tolerance`` refuses ``-1e-3``."""
    out = []
    for token in argv:
        if out and out[-1] in _ONE_VALUE and token[:1] == "-" and token[1:2] != "-":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_bind_values(sys.argv[1:] if argv is None else argv))
    try:
        return _HANDLERS[args.command](args)
    except BVKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

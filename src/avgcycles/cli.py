"""Command-line front end: averaged | zeros | verify | reproduce.

Exit status is 0 only when every requested certification passes; infeasible
reproduction rows (targets provably outside the reachable coefficient span)
are reported but do not fail the run, since the report carries the
diagnostic.  Failed rows (a generator that gave up) fail the run, and so does
a cycle sweep that fails (the flow leaves r > 0 or loses angular speed, or
the return-map Newton fails): its zero counts as 0 eps values verified.
Malformed input (a spec file that is missing or not a valid spec, a bad
--box, --phi or --eps-sweep) is a usage error: a message and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .avgcore import build_averaged_system
from .flowsim import DEFAULT_EPS_SWEEP, CycleError, check_eps_values, eps_sweep, write_cycle_csv
from .generators import default_box
from .polyalg import PolyVec
from .repro import RunConfig, build_report
from .rootfind import SearchBox, find_simple_zeros, write_zero_csv
from .sysspec import SystemSpec
from .trigkernel import TWO_PI


def _parse_phi(text: str) -> float:
    """Accept plain floats plus 'pi', '2pi', and 'pi/3'-style fractions."""
    t = text.strip().lower().replace(" ", "")
    try:
        if t in ("pi", "1pi"):
            val = math.pi
        elif t == "2pi":
            val = TWO_PI
        elif t.endswith("pi") and t[:-2].replace(".", "").replace("-", "").isdigit():
            val = float(t[:-2]) * math.pi
        elif t.startswith("pi/"):
            val = math.pi / float(t[3:])
        else:
            val = float(t)
    except (ValueError, ZeroDivisionError):
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(
            f"bad angle {text!r}: expected a finite number, 'pi', '2pi', 'kpi' or 'pi/k'")
    return val


def _parse_eps_sweep(text: str) -> tuple:
    """'1e-2,5e-3' -> (0.01, 0.005); every eps must be a finite number > 0."""
    try:
        return check_eps_values(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad eps sweep {text!r}: {exc}")


def _search_box(args, dim: int) -> SearchBox:
    """--box 'lo1,..:hi1,..' as a SearchBox of dimension dim, else the default box."""
    if not args.box:
        return default_box(dim - 1)
    try:
        lo_txt, hi_txt = args.box.split(":")
        lo = [float(v) for v in lo_txt.split(",")]
        hi = [float(v) for v in hi_txt.split(",")]
        if len(lo) != dim or len(hi) != dim:
            raise ValueError(f"lo has {len(lo)} values and hi has {len(hi)}, the system needs {dim}")
        return SearchBox(lo, hi)
    except ValueError as exc:  # EmptyBoxError included
        args.usage_error(f"bad --box {args.box!r}: expected 'lo1,..:hi1,..' ({exc})")


def _load_spec(args) -> SystemSpec:
    try:
        return SystemSpec.load(args.spec)
    # SpecError is a ValueError; JSON values of the wrong type (a number for
    # the spec, a string for a table) fail with TypeError or AttributeError
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        args.usage_error(f"bad --spec {args.spec!r}: {exc}")


def _poly_text(pv: PolyVec, names):
    return "\n".join(f"{name} = {p}" for name, p in zip(names, pv))


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_averaged(args) -> int:
    spec = _load_spec(args)
    avg = build_averaged_system(spec)
    names_f1 = [f"f1_{k}" for k in range(spec.m + 1)]
    names_f2 = [f"r*f2_{k}" for k in range(spec.m + 1)]
    text = _poly_text(avg.f1, names_f1)
    if avg.rf2 is not None:
        text += "\n" + _poly_text(avg.rf2, names_f2)
    print(text)
    with open(_out_path(args, "averaged.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    payload = {
        "f1": [{",".join(map(str, mo)): c for mo, c in sorted(p.terms.items())} for p in avg.f1],
        "rf2": None if avg.rf2 is None else
               [{",".join(map(str, mo)): c for mo, c in sorted(p.terms.items())} for p in avg.rf2],
        "first_order_zero": avg.rf2 is not None,
    }
    with open(_out_path(args, "averaged.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return 0


def _system_for_zeros(spec: SystemSpec):
    avg = build_averaged_system(spec)
    if avg.rf2 is not None:
        return avg.rf2, 2
    return avg.f1, 1


def cmd_zeros(args) -> int:
    spec = _load_spec(args)
    dim = spec.m + 1
    box = _search_box(args, dim)
    system, order = _system_for_zeros(spec)
    records = find_simple_zeros(system, box)
    write_zero_csv(_out_path(args, "zeros.csv"), records, dim)
    simple = sum(1 for r in records if r.simple)
    print(f"order-{order} averaged system: {simple} simple zeros, "
          f"{len(records) - simple} unresolved regions -> {_out_path(args, 'zeros.csv')}")
    for rec in records:
        print("  ", rec.as_row())
    return 0 if all(r.simple for r in records) else 1


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    dim = spec.m + 1
    box = _search_box(args, dim)
    system, order = _system_for_zeros(spec)
    eps_values = args.eps_sweep or DEFAULT_EPS_SWEEP
    zero_records = [r for r in find_simple_zeros(system, box) if r.simple]
    if not zero_records:
        print("no simple zeros to verify")
        return 1
    ok = True
    for k, zr in enumerate(zero_records):
        try:
            records = eps_sweep(spec, zr.nu, eps_values)
        except CycleError as exc:
            ok = False
            print(f"zero {k} at {zr.nu}: 0/{len(eps_values)} eps values verified "
                  f"({type(exc).__name__}: {exc})")
            continue
        path = _out_path(args, f"cycles_{k}.csv")
        write_cycle_csv(path, records, spec.d)
        accepted = sum(1 for rec in records if rec.accepted)
        ok &= accepted == len(records)
        print(f"zero {k} at {zr.nu}: {accepted}/{len(records)} eps values verified -> {path}")
    return 0 if ok else 1


def cmd_reproduce(args) -> int:
    try:
        config = RunConfig(
            suite=args.suite,
            max_n=args.max_n,
            m_values=tuple(int(v) for v in args.m.split(",")),
            phi=args.phi,
            seed=args.seed,
            verify_cycles=args.verify_cycles,
            eps_values=args.eps_sweep or (),
        )
    except ValueError as exc:
        args.usage_error(str(exc))  # exits with status 2
    report = build_report(config)
    report.write_csv(_out_path(args, "report.csv"))
    table = report.text_table()
    print(table)
    with open(_out_path(args, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgcycles",
        description="Averaged functions and limit-cycle counts for piecewise "
                    "polynomial perturbations of linear systems.",
    )
    parser.add_argument("--version", action="version", version=f"avgcycles {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False):
        p.set_defaults(usage_error=p.error)
        p.add_argument("--out-dir", default=".", help="directory for output files")
        if spec:
            p.add_argument("--spec", required=True, help="system spec JSON file")

    p = sub.add_parser("averaged", help="write the averaged functions of a spec")
    common(p, spec=True)
    p.set_defaults(func=cmd_averaged)

    p = sub.add_parser("zeros", help="locate simple zeros of the averaged system")
    common(p, spec=True)
    p.add_argument("--box", help="search box 'lo1,..:hi1,..' in (r, z_1..z_m)")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="verify predicted cycles by direct integration")
    common(p, spec=True)
    p.add_argument("--box", help="search box 'lo1,..:hi1,..' in (r, z_1..z_m)")
    p.add_argument("--eps-sweep", type=_parse_eps_sweep, help="comma-separated eps values")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="run the generator matrix and emit the count report")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="second-order tuning seed, recorded in the report")
    p.add_argument("--suite", default="all", help="th3 | th6 | th7 | all")
    p.add_argument("--max-n", type=int, default=2, help="largest polynomial degree n")
    p.add_argument("--m", default="0,1", help="comma-separated tail dimensions")
    p.add_argument("--phi", type=_parse_phi, default="pi/3",
                   help="switching angle for the generic suite (th3)")
    p.add_argument("--eps-sweep", type=_parse_eps_sweep,
                   help="comma-separated eps values for cycle verification")
    p.add_argument("--verify-cycles", action="store_true",
                   help="also integrate one cycle per first-order row")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

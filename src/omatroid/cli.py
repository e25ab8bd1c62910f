"""Command line interface: one verb per run, one JSON report on stdout.

Reports are emitted with sorted keys and no whitespace, so identical inputs
give byte-identical output (census reports carry a wall-clock runtime field
and are exempt). Progress chatter goes to stderr only. Exit codes: 0 when
the verdict is true (or the computation succeeded), 1 when a check ran fine
and the verdict is false, 2 for malformed input, 3 when a request exceeds a
documented size cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import __version__
from .census import CENSUS_FIELDS, representability_census, verify_nelson_chain
from .errors import CapabilityError, InputError, OmatroidError
from .exactalg import SkewMatrix, pfaffian
from .groundset import GroundSet, SubsetMask, parse_subset_key
from .jsonio import (
    load_json,
    matrix_to_json,
    parse_basis_family,
    parse_matrix_file,
    parse_plucker_vector,
    parse_wick_vector,
    plucker_vector_to_json,
    representation_to_json,
    require_partial_field,
    ring_decl_to_json,
    wick_vector_to_json,
)
from .matroid import is_matroid, is_matroid_strong, is_orthogonal, is_orthogonal_strong
from .matroid import twist as twist_family
from .plucker import (
    check_gp_3term,
    check_gp_full,
    plucker_from_matrix,
    plucker_support,
    reconstruct_plucker,
)
from .wick import (
    WickRepresentation,
    check_wick_4term,
    check_wick_full,
    reconstruct_wick,
    twist_wick,
    wick_from_representation,
    wick_support,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAPABILITY = 3


def _stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report(command: str, verdict, witness, data) -> dict:
    return {
        "version": __version__,
        "command": command,
        "verdict": verdict,
        "witness": witness,
        "data": data,
    }


def _error_report(command: str, exc: Exception) -> dict:
    return {
        "version": __version__,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def _axiom_witness(v, xkey: str):
    if v.ok:
        return None
    w = {"reason": v.reason}
    if v.b1 is not None:
        w["B1"] = v.b1.to_json()
    if v.b2 is not None:
        w["B2"] = v.b2.to_json()
    if v.x is not None:
        w[xkey] = v.x
    return w


def _pair_witness(v, ring, pair: tuple[str, str]):
    """The failing relation pair, keyed by the verdict's field names in capitals."""
    if v.ok:
        return None
    w = {name.upper(): getattr(v, name).to_json() for name in pair}
    w["value"] = ring.fmt(v.value)
    return w


def _verdict_exit(ok: bool) -> int:
    return EXIT_TRUE if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# verbs


def _cmd_check_family(weak, strong, xkey, args):
    """Run the weak or, with --strong, the strong checker of a basis-family verb."""
    f = parse_basis_family(load_json(args.input))
    v = strong(f) if args.strong else weak(f)
    data = {"n": f.ground.n, "members": len(f), "strong": args.strong}
    return _report(args.command, v.ok, _axiom_witness(v, xkey), data), _verdict_exit(v.ok)


def _cmd_check_plucker(args):
    p = parse_plucker_vector(load_json(args.input))
    sweeps = (check_gp_full, check_gp_3term, lambda q: is_matroid(plucker_support(q)))
    return _check_vector(args, p, {"n": p.ground.n, "r": p.r}, sweeps, ("s", "t"), "x")


def _cmd_check_wick(args):
    p = parse_wick_vector(load_json(args.input))
    sweeps = (check_wick_full, check_wick_4term, lambda q: is_orthogonal(wick_support(q)))
    return _check_vector(args, p, {"n": p.ground.n}, sweeps, ("j1", "j2"), "x1")


def _check_vector(args, p, data, sweeps, pair, xkey):
    """Run the full route, or the short route plus the support axiom, on either vector kind.

    ``sweeps`` holds the full sweep, the short sweep and the support check;
    ``pair`` names the verdict fields of a failing relation pair and ``xkey``
    the witness key of the exchange element.
    """
    full_sweep, short_sweep, support_check = sweeps
    ring = p.ring
    if args.mode == "full":
        v = full_sweep(p)
        data["mode"] = "full"
        witness = _pair_witness(v, ring, pair)
        ok = v.ok
    else:
        support = support_check(p)  # first, so a support over the budget is refused at once
        short = short_sweep(p)
        ok = short.ok and support.ok
        data.update({"mode": "short", "equations_ok": short.ok, "support_ok": support.ok})
        if not short.ok:
            witness = _pair_witness(short, ring, pair)
        elif not support.ok:
            witness = _axiom_witness(support, xkey)
        else:
            witness = None
    return _report(args.command, ok, witness, data), _verdict_exit(ok)


def _cmd_reconstruct_plucker(args):
    p = parse_plucker_vector(load_json(args.input))
    a = reconstruct_plucker(p)
    data = {"n": p.ground.n, "r": p.r, **matrix_to_json(a)}
    return _report("reconstruct-plucker", True, None, data), EXIT_TRUE


def _cmd_reconstruct_wick(args):
    p = parse_wick_vector(load_json(args.input))
    rep = reconstruct_wick(p)
    data = representation_to_json(rep)
    return _report("reconstruct-wick", True, None, data), EXIT_TRUE


def _cmd_pfaffian(args):
    obj = load_json(args.input)
    m, _twist = parse_matrix_file(obj)
    if m.rows != m.cols:
        raise InputError(f"pfaffian needs a square matrix, got {m.rows}x{m.cols}")
    sk = SkewMatrix.from_rows(m.ring, m.row_lists())
    val = pfaffian(sk)
    # a bare "z" is echoed as given, since no vector is built from it
    decl = {"kind": "z"} if obj["ring"]["kind"] == "z" else ring_decl_to_json(m.ring)
    data = {"n": sk.size, "ring": decl, "pfaffian": m.ring.fmt(val)}
    return _report("pfaffian", True, None, data), EXIT_TRUE


def _cmd_from_matrix(args):
    obj = load_json(args.input)
    m, twist_bits = parse_matrix_file(obj)
    require_partial_field(obj["ring"])
    # auto reads a square skew matrix as a representation; a twist demands one
    sk = None
    if args.kind != "plucker" and m.rows == m.cols:
        try:
            sk = SkewMatrix.from_rows(m.ring, m.row_lists())
        except InputError:
            if args.kind == "wick" or twist_bits is not None:
                raise
    if args.kind == "wick" and sk is None:
        raise InputError(f"a skew representation must be square, got {m.rows}x{m.cols}")
    if sk is not None:
        t = SubsetMask(GroundSet(sk.size), twist_bits or 0)
        v = wick_from_representation(WickRepresentation(sk, t))
        data = {"kind": "wick", "vector": wick_vector_to_json(v)}
    else:
        if twist_bits is not None:
            raise InputError("'twist' does not apply to a rank representation")
        v = plucker_from_matrix(m)
        data = {"kind": "plucker", "vector": plucker_vector_to_json(v)}
    return _report("from-matrix", True, None, data), EXIT_TRUE


def _cmd_twist(args):
    obj = load_json(args.input)
    if isinstance(obj, dict) and "bases" in obj:
        f = parse_basis_family(obj)
        t = parse_subset_key(args.by, f.ground)
        g = twist_family(f, t)
        data = {"kind": "family", "twist": t.to_json(), "result": g.to_json()}
    elif isinstance(obj, dict) and "coords" in obj:
        p = parse_wick_vector(obj)
        t = parse_subset_key(args.by, p.ground)
        q = twist_wick(p, t)
        data = {"kind": "vector", "twist": t.to_json(), "result": wick_vector_to_json(q)}
    else:
        raise InputError("twisting applies to basis families and full coordinate vectors")
    return _report("twist", True, None, data), EXIT_TRUE


def _cmd_census(args):
    def progress(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    report = representability_census(
        args.n,
        field=args.field,
        out_path=args.out,
        progress=progress,
    )
    return _report("census", True, None, report.to_json()), EXIT_TRUE


def _cmd_verify_bounds(args):
    bc = verify_nelson_chain(args.n)
    witness = None
    if not bc.verdict:
        witness = {"failed_steps": [name for name, ok in bc.steps if not ok]}
    return _report("verify-bounds", bc.verdict, witness, bc.to_json()), _verdict_exit(bc.verdict)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omatroid",
        description="exact checks and constructions for matroid and orthogonal "
        "matroid coordinate vectors",
    )
    parser.add_argument("--version", action="version", version=f"omatroid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="verb")

    def add(name, help_, func, with_input=True):
        sp = sub.add_parser(name, help=help_, description=help_)
        if with_input:
            sp.add_argument("input", help="path to a JSON file, or - for stdin")
        sp.set_defaults(func=func)
        return sp

    # bound when main builds the parser, not at import, so a wrapper patched over
    # the module-level checker names (as bench/traced.py does) is the one called
    sp = add(
        "check-matroid",
        "test a basis family against the exchange axiom",
        partial(_cmd_check_family, is_matroid, is_matroid_strong, "x"),
    )
    sp.add_argument("--strong", action="store_true", help="require the strong exchange form")

    sp = add(
        "check-orthogonal",
        "test a basis family against the symmetric exchange axiom",
        partial(_cmd_check_family, is_orthogonal, is_orthogonal_strong, "x1"),
    )
    sp.add_argument("--strong", action="store_true", help="require the strong symmetric form")

    sp = add(
        "check-plucker",
        "sweep the quadratic exchange equations of a rank-r coordinate vector",
        _cmd_check_plucker,
    )
    sp.add_argument(
        "--mode",
        choices=["full", "short", "3term"],
        default="full",
        help="full sweep, or the three-term subset plus a support check",
    )

    sp = add(
        "check-wick",
        "sweep the quadratic exchange equations of a full coordinate vector",
        _cmd_check_wick,
    )
    sp.add_argument(
        "--mode",
        choices=["full", "short", "4term"],
        default="full",
        help="full sweep, or the four-term subset plus a support check",
    )

    add(
        "reconstruct-plucker",
        "rebuild a rank-r matrix from a vector that passes the short sweep",
        _cmd_reconstruct_plucker,
    )
    add(
        "reconstruct-wick",
        "rebuild a twisted skew matrix from a vector that passes the short sweep",
        _cmd_reconstruct_wick,
    )
    add("pfaffian", "evaluate the pfaffian of a skew matrix", _cmd_pfaffian)

    sp = add(
        "from-matrix",
        "turn a matrix (or twisted skew matrix) into its coordinate vector",
        _cmd_from_matrix,
    )
    sp.add_argument(
        "--kind",
        choices=["auto", "plucker", "wick"],
        default="auto",
        help="force the reading of the matrix; auto picks wick for skew input",
    )

    sp = add("twist", "symmetric-difference a set into a family or vector", _cmd_twist)
    sp.add_argument(
        "--by",
        required=True,
        metavar="SUBSET",
        help="comma-separated elements, e.g. '1,3' (empty string for the empty set)",
    )

    sp = add("census", "sweep all candidate families on n elements", _cmd_census, with_input=False)
    sp.add_argument("--n", type=int, required=True, help="ground set size")
    sp.add_argument("--field", choices=CENSUS_FIELDS, default="gf2")
    sp.add_argument("--out", default=None, help="JSONL output path (appends; resumes)")

    sp = add(
        "verify-bounds",
        "certify the zero-pattern counting chain at one n",
        _cmd_verify_bounds,
        with_input=False,
    )
    sp.add_argument("--n", type=int, required=True, help="chain parameter, at least 12")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_INPUT
    command = args.command
    try:
        report, code = args.func(args)
    except CapabilityError as exc:
        report, code = _error_report(command, exc), EXIT_CAPABILITY
    except OmatroidError as exc:
        report, code = _error_report(command, exc), EXIT_INPUT
    sys.stdout.write(_stable(report) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())

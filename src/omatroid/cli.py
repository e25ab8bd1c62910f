"""Command line interface: one verb per run, one JSON report on stdout.

Reports are emitted with sorted keys and no whitespace, so identical inputs
give byte-identical output (census reports carry a wall-clock runtime field
and are exempt). Progress chatter goes to stderr only. Exit codes: 0 when
the verdict is true (or the computation succeeded), 1 when a check ran fine
and the verdict is false, 2 for malformed input, 3 when a request exceeds a
documented size cap.
"""

import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import CapabilityError, InputError, OmatroidError
from .exactalg import SkewMatrix, pfaffian
from .groundset import GroundSet, SubsetMask, parse_int, parse_subset_key
from .matroid import is_matroid, is_matroid_strong, is_orthogonal, is_orthogonal_strong
from .matroid import twist as twist_family

# jsonio, plucker and wick are imported by the handlers that use them: a census, an
# exchange check or a Pfaffian loads no sweep module.

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
    from .jsonio import load_json, parse_basis_family

    f = parse_basis_family(load_json(args.input))
    v = strong(f) if args.strong else weak(f)
    data = {"n": f.ground.n, "members": len(f), "strong": args.strong}
    return _report(args.command, v.ok, _axiom_witness(v, xkey), data), _verdict_exit(v.ok)


def _cmd_check_plucker(args):
    from .jsonio import load_json, parse_plucker_vector
    from .plucker import check_gp_3term, check_gp_full, plucker_support

    p = parse_plucker_vector(load_json(args.input))
    sweeps = (check_gp_full, check_gp_3term, lambda q: is_matroid(plucker_support(q)))
    return _check_vector(args, p, {"n": p.ground.n, "r": p.r}, sweeps, ("s", "t"), "x")


def _cmd_check_wick(args):
    from .jsonio import load_json, parse_wick_vector
    from .wick import check_wick_4term, check_wick_full, wick_support

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
    from .jsonio import load_json, matrix_to_json, parse_plucker_vector
    from .plucker import reconstruct_plucker

    p = parse_plucker_vector(load_json(args.input))
    a = reconstruct_plucker(p)
    data = {"n": p.ground.n, "r": p.r, **matrix_to_json(a)}
    return _report("reconstruct-plucker", True, None, data), EXIT_TRUE


def _cmd_reconstruct_wick(args):
    from .jsonio import load_json, parse_wick_vector, representation_to_json
    from .wick import reconstruct_wick

    p = parse_wick_vector(load_json(args.input))
    rep = reconstruct_wick(p)
    data = representation_to_json(rep)
    return _report("reconstruct-wick", True, None, data), EXIT_TRUE


def _cmd_pfaffian(args):
    from .jsonio import load_json, parse_matrix_file, ring_decl_to_json

    obj = load_json(args.input)
    m, _twist = parse_matrix_file(obj)
    if m.rows != m.cols:
        raise InputError(f"pfaffian needs a square matrix, got {m.rows}x{m.cols}")
    sk = SkewMatrix(m.ring, m.rows, m.cols, m.entries)
    val = pfaffian(sk)
    # a bare "z" is echoed as given, since no vector is built from it
    decl = {"kind": "z"} if obj["ring"]["kind"] == "z" else ring_decl_to_json(m.ring)
    data = {"n": sk.size, "ring": decl, "pfaffian": m.ring.fmt(val)}
    return _report("pfaffian", True, None, data), EXIT_TRUE


def _cmd_from_matrix(args):
    from .jsonio import (load_json, parse_matrix_file, plucker_vector_to_json, require_partial_field,
                         wick_vector_to_json)
    from .plucker import plucker_from_matrix
    from .wick import WickRepresentation, wick_from_representation

    obj = load_json(args.input)
    m, twist_bits = parse_matrix_file(obj)
    require_partial_field(obj["ring"])
    # auto reads a square skew matrix as a representation; a twist demands one
    sk = None
    if args.kind != "plucker" and m.rows == m.cols:
        try:
            sk = SkewMatrix(m.ring, m.rows, m.cols, m.entries)
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
    from .jsonio import load_json, parse_basis_family, parse_wick_vector, wick_vector_to_json

    obj = load_json(args.input)
    if isinstance(obj, dict) and "bases" in obj:
        f = parse_basis_family(obj)
        t = parse_subset_key(args.by, f.ground)
        g = twist_family(f, t)
        data = {"kind": "family", "twist": t.to_json(), "result": g.to_json()}
    elif isinstance(obj, dict) and "coords" in obj:
        from .wick import twist_wick

        p = parse_wick_vector(obj)
        t = parse_subset_key(args.by, p.ground)
        q = twist_wick(p, t)
        data = {"kind": "vector", "twist": t.to_json(), "result": wick_vector_to_json(q)}
    else:
        raise InputError("twisting applies to basis families and full coordinate vectors")
    return _report("twist", True, None, data), EXIT_TRUE


def _cmd_census(args):
    from .census import representability_census  # imported here: no other verb loads it

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
    from .census import verify_nelson_chain

    bc = verify_nelson_chain(args.n)
    witness = None
    if not bc.verdict:
        witness = {"failed_steps": [name for name, ok in bc.steps if not ok]}
    return _report("verify-bounds", bc.verdict, witness, bc.to_json()), _verdict_exit(bc.verdict)


# ---------------------------------------------------------------------------
# verb table and parser

# verb: (handler, help line, takes an input path, {option: (kind, default)}). A kind is
# None for a flag, a tuple of choices, int or str; a default of ... makes the option
# required. Handlers read the checker names, and import the others, when they run, so a
# wrapper patched over the module-level names (as bench/traced.py does) is the one called.
_VERBS = {
    "check-matroid": (lambda args: _cmd_check_family(is_matroid, is_matroid_strong, "x", args),
                      "test a basis family against the (strong) exchange axiom",
                      True, {"strong": (None, False)}),
    "check-orthogonal": (
        lambda args: _cmd_check_family(is_orthogonal, is_orthogonal_strong, "x1", args),
        "test a basis family against the (strong) symmetric exchange axiom",
        True, {"strong": (None, False)}),
    "check-plucker": (_cmd_check_plucker, "sweep the quadratic exchange equations of a rank-r "
                      "coordinate vector, or their three-term subset plus a support check",
                      True, {"mode": (("full", "short", "3term"), "full")}),
    "check-wick": (_cmd_check_wick, "sweep the quadratic exchange equations of a full "
                   "coordinate vector, or their four-term subset plus a support check",
                   True, {"mode": (("full", "short", "4term"), "full")}),
    "reconstruct-plucker": (_cmd_reconstruct_plucker, "rebuild a rank-r matrix from a vector "
                            "that passes the short sweep", True, {}),
    "reconstruct-wick": (_cmd_reconstruct_wick, "rebuild a twisted skew matrix from a vector "
                         "that passes the short sweep", True, {}),
    "pfaffian": (_cmd_pfaffian, "evaluate the pfaffian of a skew matrix", True, {}),
    "from-matrix": (_cmd_from_matrix, "turn a matrix (or twisted skew matrix) into its "
                    "coordinate vector; auto reads a skew matrix as wick",
                    True, {"kind": (("auto", "plucker", "wick"), "auto")}),
    "twist": (_cmd_twist, "symmetric-difference a set such as 1,3 ('' is the empty set) "
              "into a family or vector", True, {"by": (str, ...)}),
    "census": (_cmd_census, "sweep all candidate families on n elements; --out appends "
               "records to a JSONL file and resumes it",
               False, {"n": (int, ...), "field": (("gf2", "gf3"), "gf2"), "out": (str, None)}),
    "verify-bounds": (_cmd_verify_bounds, "certify the zero-pattern counting chain at one "
                      "n, at least 12", False, {"n": (int, ...)}),
}
_HELP = {"help": (None, False)}  # every verb takes -h/--help


class _Usage(Exception):
    """A command line the verb table does not accept: a message, and the verb if known."""


def _usage(verb) -> str:
    if verb is None:
        return "usage: omatroid [-h] [--version] verb ..."
    words = ["usage: omatroid", verb, "[-h]"]
    for name, (kind, default) in _VERBS[verb][3].items():
        word = f"--{name}"
        if kind is not None:
            word += " {" + ",".join(kind) + "}" if type(kind) is tuple else " " + name.upper()
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words + ["input"] * _VERBS[verb][2])


def _help(verb) -> str:
    if verb is not None:
        return f"{_usage(verb)}\n\n{_VERBS[verb][1]}\n"
    lines = (f"  {name:<20} {entry[1]}" for name, entry in _VERBS.items())
    return "\n".join([_usage(None), "", "verbs, each reading a JSON file (- for stdin) unless "
                      "it is census or verify-bounds:", *lines]) + "\n"


def _names(tok: str, options: dict) -> list:
    """The options ``tok`` names: -h, --name, --name=value, or a prefix of names."""
    key = "help" if tok == "-h" else tok[2:].partition("=")[0] if tok[:2] == "--" else None
    return [] if key is None else [key] if key in options else [o for o in options if o.startswith(key)]


def _is_value(tok: str, options: dict) -> bool:
    """Whether ``tok`` is a value: a word, -, or naming no option, a negative integer or a phrase."""
    if tok[:1] != "-" or tok == "-":
        return True
    try:
        return not _names(tok, options) and (" " in tok or parse_int(tok) < 0)
    except ValueError:  # no integer as parse_int reads one
        return False


def _parse(argv):
    """The namespace that ``argv`` gives its verb's handler, or the text -h or --version prints.

    Options read ``--opt value`` or ``--opt=value``, may be shortened to a unique
    prefix, may repeat (the last value counts) and may come before or after the
    input; all after ``--`` is positional. Raises _Usage for anything else.
    """
    verb, takes_input, options = None, False, {**_HELP, "version": (None, False)}
    values, extra, tokens, positional = {}, [], iter(argv), False
    for tok in tokens:
        if tok == "--" and not positional:
            positional = True
        elif positional or _is_value(tok, options):
            if verb is None and tok not in _VERBS:
                raise _Usage(f"invalid verb {tok!r} (choose from {', '.join(_VERBS)})", None)
            if verb is None:
                verb, takes_input, options = tok, _VERBS[tok][2], {**_HELP, **_VERBS[tok][3]}
            elif takes_input and "input" not in values:
                values["input"] = tok
            else:
                extra.append(tok)
        elif len(names := _names(tok, options)) != 1:
            if names:
                raise _Usage(f"ambiguous option {tok}: could match --{', --'.join(names)}", verb)
            extra.append(tok)
        else:
            name, (kind, _), (_, eq, value) = names[0], options[names[0]], tok.partition("=")
            if kind is None and eq:
                raise _Usage(f"--{name} takes no value", verb)
            if name in ("help", "version"):
                return _help(verb) if name == "help" else f"omatroid {__version__}\n"
            if kind is not None and not eq:
                value = next(tokens, None)
                if value is None or not _is_value(value, options):
                    raise _Usage(f"--{name} expects a value", verb)
            if type(kind) is tuple and value not in kind:
                raise _Usage(f"--{name} must be one of {', '.join(kind)}, got {value!r}", verb)
            try:
                values[name] = True if kind is None else parse_int(value) if kind is int else value
            except ValueError:
                raise _Usage(f"--{name} takes an integer, got {value!r}", verb) from None
    missing = ["verb"] * (verb is None) + ["input"] * (takes_input and "input" not in values)
    missing += [f"--{o}" for o, (_, default) in options.items() if default is ... and o not in values]
    if missing or extra:
        words = f"missing {' '.join(missing)}" if missing else f"unrecognized {' '.join(extra)}"
        raise _Usage(words, verb)
    defaults = {o: default for o, (_, default) in options.items()}
    return SimpleNamespace(**{"command": verb, "input": None, **defaults, **values})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as exc:
        sys.stderr.write(f"{_usage(exc.args[1])}\nomatroid: error: {exc.args[0]}\n")
        return EXIT_INPUT
    if isinstance(args, str):  # the text of -h or --version
        sys.stdout.write(args)
        return EXIT_TRUE
    command = args.command
    try:
        report, code = _VERBS[command][0](args)
    except CapabilityError as exc:
        report, code = _error_report(command, exc), EXIT_CAPABILITY
    except OmatroidError as exc:
        report, code = _error_report(command, exc), EXIT_INPUT
    sys.stdout.write(_stable(report) + "\n")
    sys.stdout.flush()
    return code


def _run() -> None:
    """The process entry: main's report is flushed and the process ends there.

    os._exit skips interpreter teardown (the GC and the freeing of every module
    and object), which costs as much as some verbs' work. An exception from main
    or from a flush propagates first, and takes the normal exit path.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    _run()

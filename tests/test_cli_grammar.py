"""The command line's grammar, pinned to what the argparse parser it replaced did.

Each PINNED argv keeps the exit code and stdout bytes it had under argparse:
both option forms, unique-prefix abbreviations, repeated options, options on
either side of the input, ``-`` for stdin, ``--`` before the input, an empty
value and a negative one. Each USAGE_ERRORS argv exits 2 with nothing on
stdout and a usage line on stderr; only that stderr wording may differ from
argparse's.
"""

import contextlib
import hashlib
import io
import json
import re
import sys

import pytest

from omatroid.cli import main

FILES = {
    "fam": {"n": 4, "bases": [[], [1, 2], [1, 4], [2, 4]]},
    "bad": {"n": 4, "bases": [[1, 2], [3, 4]]},
    "wvec": {"n": 4, "ring": {"kind": "q"},
             "coords": {"3": "1", "1,2,3": "-3", "1,3,4": "1", "2,3,4": "6"}},
    "pvec": {"n": 4, "r": 2, "ring": {"kind": "q"},
             "coords": {"1,2": "1", "1,3": "1", "2,3": "-1", "1,4": "2", "2,4": "-1", "3,4": "1"}},
    "skew": {"n": 4, "ring": {"kind": "q"}, "twist": [3],
             "matrix": [["0", "-3", "0", "1"], ["3", "0", "0", "6"], ["0", "0", "0", "0"],
                        ["-1", "-6", "0", "0"]]},
    "wide": {"ring": {"kind": "q"}, "matrix": [["1", "0", "1", "1"], ["0", "1", "1", "2"]]},
}
RUNTIME = re.compile(rb'"runtime_seconds":[-+0-9.eE]+')

# argv ({name} is the path of FILES[name], {out} a fresh path), exit code, and the
# first 16 hex digits of the sha256 of stdout with the census runtime blanked
PINNED = [
    (("check-matroid", "{bad}"), 1, "8429c4f2b25c4583"),
    (("check-matroid", "--strong", "{bad}"), 1, "04fbb155c4385b04"),
    (("check-matroid", "{bad}", "--strong", "--strong"), 1, "04fbb155c4385b04"),
    (("check-matroid", "--str", "{fam}"), 1, "78771f26f1ad7db5"),
    (("check-matroid", "--", "{bad}"), 1, "8429c4f2b25c4583"),
    (("check-orthogonal", "{fam}"), 0, "276a4a1a88c20152"),
    (("check-orthogonal", "{fam}", "--strong"), 0, "9800505422b40c19"),
    (("check-orthogonal", "-"), 0, "276a4a1a88c20152"),
    (("check-orthogonal", "--st", "-"), 0, "9800505422b40c19"),
    (("check-plucker", "{pvec}"), 0, "7a1cc44d500fc825"),
    (("check-plucker", "--mode", "short", "{pvec}"), 0, "f9dbb04a0e2391f1"),
    (("check-plucker", "--mode=3term", "{pvec}"), 0, "f9dbb04a0e2391f1"),
    (("check-plucker", "{pvec}", "--mo", "full"), 0, "7a1cc44d500fc825"),
    (("check-plucker", "{wvec}"), 2, "ae9ce3373f417735"),
    (("check-wick", "{wvec}", "--mode", "full"), 0, "9f55f76358caf6c2"),
    (("check-wick", "--mode=short", "{wvec}"), 0, "3b7da58378b83d56"),
    (("check-wick", "{wvec}", "--mo=4term"), 0, "3b7da58378b83d56"),
    (("check-wick", "--mode", "full", "--mode", "short", "{wvec}"), 0, "3b7da58378b83d56"),
    (("check-wick", "--mode", "short", "--mode=full", "{wvec}"), 0, "9f55f76358caf6c2"),
    (("reconstruct-plucker", "{pvec}"), 0, "79fe86fcc9e7f455"),
    (("reconstruct-wick", "{wvec}"), 0, "7903f944a1cdf405"),
    (("pfaffian", "{skew}"), 0, "fe9e57f19297576c"),
    (("from-matrix", "{skew}"), 0, "89472b5c481f461b"),
    (("from-matrix", "--kind", "plucker", "{wide}"), 0, "317bbcbd0f69cd13"),
    (("from-matrix", "--kind=wick", "{skew}"), 0, "89472b5c481f461b"),
    (("from-matrix", "{wide}", "--ki", "auto"), 0, "317bbcbd0f69cd13"),
    (("from-matrix", "--kind", "plucker", "{skew}"), 2, "a4b86b66773420a4"),
    (("twist", "{fam}", "--by", "1,3"), 0, "c7d163f37537b373"),
    (("twist", "--by=1", "{wvec}"), 0, "c756d9c00ee832b4"),
    (("twist", "{fam}", "--by", ""), 0, "50461cc25fdcf518"),
    (("twist", "--by=", "{fam}"), 0, "50461cc25fdcf518"),
    (("twist", "--b", "-1", "{fam}"), 2, "cd155e8b931c6de0"),
    (("census", "--n", "3"), 0, "695a57d999149c1f"),
    (("census", "--field", "gf3", "--n=3"), 0, "1322c19b1e05c8e5"),
    (("census", "--fi=gf2", "--n", "2", "--o", "{out}"), 0, "272407be5f49120f"),
    (("census", "--n", "-1"), 2, "af9ab740a4af5b4f"),
    (("census", "--n=-1"), 2, "af9ab740a4af5b4f"),
    (("verify-bounds", "--n", "12"), 0, "c4f98e4efa7dde46"),
    (("verify-bounds", "--n=11"), 2, "0b3a0d6c34c186a5"),
]

USAGE_ERRORS = [
    (),  # no verb
    ("no-such-verb", "{fam}"),
    ("--strong", "check-matroid", "{fam}"),  # a verb's option before the verb
    ("check-matroid",),  # no input
    ("census", "--n", "3", "{fam}"),  # an input to a verb that takes none
    ("check-matroid", "{fam}", "{bad}"),  # a second input
    ("check-wick", "--mode", "bogus", "{wvec}"),
    ("check-plucker", "--mode=4term", "{pvec}"),
    ("from-matrix", "--kind", "skew", "{skew}"),
    ("census", "--n", "3", "--field", "gf5"),
    ("census", "--n", "three"),
    ("verify-bounds", "--n=12.0"),
    ("twist", "{fam}"),  # no --by
    ("twist", "{fam}", "--by"),  # --by without its value
    ("twist", "--by", "--strong", "{fam}"),
    ("census",),  # no --n
    ("verify-bounds", "--field", "gf2"),
    ("check-matroid", "--bogus", "{fam}"),
    ("check-matroid", "-s", "{fam}"),
    ("check-matroid", "--strong=yes", "{fam}"),
    ("check-matroid", "--=1", "{fam}"),  # ambiguous: every option's prefix
    ("check-matroid", "{fam}", "--version"),
]


def outcome(tmp_path, argv):
    """Run main on ``argv`` with FILES on disk and FILES["fam"] on stdin: code, stdout, stderr."""
    paths = {"out": str(tmp_path / "records.jsonl")}
    for name, obj in FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(FILES["fam"]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(RUNTIME.sub(b"", stdout.encode())).hexdigest()[:16]


@pytest.mark.parametrize("argv, code, sha", PINNED,
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_argv_keeps_its_exit_code_and_stdout(tmp_path, argv, code, sha):
    got, out, _ = outcome(tmp_path, argv)
    assert (got, digest(out)) == (code, sha)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_exits_2_with_a_usage_line(tmp_path, argv):
    code, out, err = outcome(tmp_path, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: omatroid")


def test_version_and_help(tmp_path):
    assert outcome(tmp_path, ["--version"])[:2] == (0, "omatroid 0.1.0\n")
    assert outcome(tmp_path, ["--vers", "check-matroid"])[:2] == (0, "omatroid 0.1.0\n")
    verbs = ("check-matroid", "check-orthogonal", "check-plucker", "check-wick",
             "reconstruct-plucker", "reconstruct-wick", "pfaffian", "from-matrix", "twist",
             "census", "verify-bounds")
    for argv in (["-h"], ["--help"], ["--he", "census"]):
        code, out, _ = outcome(tmp_path, argv)
        assert code == 0 and all(verb in out for verb in verbs)
    options = {"check-matroid": ["--strong"], "check-orthogonal": ["--strong"],
               "check-plucker": ["--mode", "3term"], "check-wick": ["--mode", "4term"],
               "from-matrix": ["--kind", "plucker"], "twist": ["--by"],
               "census": ["--n", "--field", "gf3", "--out"], "verify-bounds": ["--n"]}
    for verb in verbs:
        # help comes before the checks of a command line, so no input is needed
        for flag in ("-h", "--help", "--h"):
            code, out, _ = outcome(tmp_path, [verb, flag])
            assert code == 0 and out.startswith(f"usage: omatroid {verb}")
            assert all(word in out for word in options.get(verb, [])), out

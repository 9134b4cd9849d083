"""Both routes of `hkcone.cli.main` on one argv corpus, compared.

`main` parses an argv that starts with a subcommand's exact name with
that subcommand's parser alone, and any other argv with the full parser.
The oracle route sends every argv through ``build_parser().parse_args``
and then the same handler: it runs `main` with an empty subcommand map.
Both routes must give the same exit code, stdout, stderr and --out bytes.

`tests/test_cli.py` runs this comparison; it also runs without pytest:

    PYTHONPATH=src python tests/cli_dispatch.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from hkcone import cli, fixtures

LAT = fixtures.fixture_path("k3_3_quartic.json")
TAB = fixtures.fixture_path("mbm.json")
CH1 = fixtures.fixture_path("chamber1.json")
CH4 = fixtures.fixture_path("chamber4.json")
OUT = "{out}"  # replaced by a file in a scratch directory
BOTH = ["--lattice", LAT, "--table", TAB]
CLASSIFY = ["classify", *BOTH, "--class", "4,0,-1"]
FLOP = ["mukai-flop", "--k", "1", "--u", "1,0", "--phi", "0,1"]

CORPUS = [
    # help and usage
    [], ["-h"], ["--help"], ["classify", "-h"], ["factor-path", "--help"],
    ["classify", "-h", "--bogus"], ["classify"], ["classify", "--lattice", LAT],
    # unknown and abbreviated commands, an option before the command
    ["nope"], ["class", *BOTH, "--class", "4,0,-1"], ["factor"], ["Classify"],
    ["--out", OUT, *CLASSIFY], ["-x", "classify"], ["-h", "classify"],
    # extra arguments
    [*CLASSIFY, "extra"], [*CLASSIFY, "--bogus", "1"], [*CLASSIFY, "one", "--two", "-3"],
    # --opt=value, abbreviated options, --, option-like values, repeats
    ["classify", f"--lattice={LAT}", f"--table={TAB}", "--class=4,0,-1"],
    ["classify", "--lat", LAT, "--tab", TAB, "--cl", "4,0,-1"],
    ["classify", "--", *BOTH[1:]], [*CLASSIFY, "--", "x"], [*FLOP, "--"],
    ["classify", *BOTH, "--class", "-4,0,1"], ["classify", *BOTH, "--class=-4,0,1"],
    [*CLASSIFY, "--class", "0,1,0"], ["mukai-flop", "--k", "x", "--u", "1,0", "--phi", "0,1"],
    ["mukai-flop", "--u=1,0", "--phi=0,1", "--k=1"], ["sigma-orbit", "--depth", "x"],
    # successful calls, precondition and I/O errors, --out files
    CLASSIFY, FLOP, [*FLOP, "--out", OUT],
    ["dual-solve", "--lattice", LAT, "--classes", fixtures.fixture_path("named_classes.json"),
     "--pair", "C=1", "--pair", "F=3", "--pair", "eps=1"],
    ["enumerate-walls", *BOTH, "--base", "4,4,-1", "--bound", "2", "--out", OUT],
    ["factor-path", *BOTH, "--from", CH1, "--to", CH4, "--bound", "8"],
    ["factor-path", *BOTH, "--from", CH1, "--to", CH1, "--bound", "8"],
    ["render-cone", *BOTH, "--base", "4,4,-1", "--bound", "4", "--out", OUT],
    ["symp-rank", "--omega", "/nonexistent.json", "--basis", "/nonexistent.json"],
    ["sigma-orbit", "--e0", "0,0", "--e1", "1/3,0", "--e2", "0,1/2", "--x", "0,0"],
    ["classify", *BOTH, "--class", "0,1,0"],
]


def outcome(argv, out):
    """(exit code, stdout, stderr, --out bytes or None) of one main(argv)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([out if a == OUT else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    try:
        with open(out, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = None
    return code, stdout.getvalue(), stderr.getvalue(), data


def full_route(argv, out):
    """outcome() with every argv parsed by build_parser().parse_args."""
    parser = cli.build_parser()
    commands, parser.commands = parser.commands, {}
    try:
        return outcome(argv, out)
    finally:
        parser.commands = commands


def mismatches(corpus=CORPUS) -> list:
    """The argvs whose outcome differs between the two routes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        return [argv for argv in corpus if outcome(argv, out) != full_route(argv, out)]


if __name__ == "__main__":
    bad = mismatches()
    print(json.dumps({"python": sys.version.split()[0], "argvs": len(CORPUS),
                      "mismatches": bad}))
    sys.exit(1 if bad else 0)

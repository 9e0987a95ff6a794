import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from kohmoto import analysis, cli

import certified_outputs
from certified_outputs import CERTIFIED_OUTPUTS

DATA = Path(__file__).parent / "data"

def run(*args, expect=0):
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "kohmoto.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc.stdout


def test_farey_dist():
    out = run("farey", "dist", "0+", "1/7")
    assert out.splitlines()[-1] == "1/7"
    assert out.startswith("# kohmoto farey dist")


def test_farey_subcommands():
    assert run("farey", "mediant", "1/3", "1/2").splitlines()[-1] == "2/5"
    assert run("farey", "neighbors", "2/3", "3").splitlines()[-1] == "1/2 1/1"
    assert run("farey", "between", "3/8", "2/5").splitlines()[-1] == "2/5"
    assert "short [0, 0, 1, 3, 2]" in run("farey", "cf", "7/9")


def test_spectrum_bands_json_closed_forms():
    out = run("spectrum", "bands", "--r", "1/2", "--V", "5", "--tol", "1e-12", "--format", "json")
    obj = json.loads(out)
    bands = obj["result"]["bands"]
    assert len(bands) == 2
    from fractions import Fraction
    import math

    targets = [(5 - math.sqrt(41)) / 2, 0.0, 5.0, (5 + math.sqrt(41)) / 2]
    values = [float(Fraction(bands[0][0])), float(Fraction(bands[0][3])),
              float(Fraction(bands[1][0])), float(Fraction(bands[1][3]))]
    for got, want in zip(values, targets):
        assert abs(got - want) < 1e-9


def test_word_defect_text():
    out = run("word", "defect", "--r", "2/3", "--side", "plus")
    assert out.splitlines()[-1] == "(110)^inf [1] . (110)^inf"


def test_word_dict_and_complexity():
    out = run("word", "dict", "2/3", "--n", "2", "--format", "json")
    assert json.loads(out)["result"] == ["01", "10", "11"]
    out = run("word", "complexity", "0+", "--n", "4")
    assert out.splitlines()[-1] == "4 5"


def test_farey_walks_at_large_denominators(capsys):
    # the neighbor cascade and the simplest-rational walk take time
    # logarithmic in each continued-fraction digit
    cases = {
        "farey neighbors 1/2 1000000000000": "499999999999/999999999999 500000000000/999999999999",
        "farey dist 1/1000000000000 1/999999999999": "1/999999999999",
        "farey between 1/1000000000000 1/999999999999": "1/999999999999",
        "farey between 999999999998/999999999999+ 999999999999/1000000000000-": "1999999999997/1999999999999",
        "farey dist 1/1000000000000- 1/999999999999+": "1/999999999999",
    }
    for command, want in cases.items():
        t0 = time.perf_counter()
        assert cli.main(command.split()) == 0
        assert time.perf_counter() - t0 < 1.0, command
        assert capsys.readouterr().out.splitlines()[-1] == want, command


def test_tree_commands():
    out = run("tree", "dist", "1/3+", "1/2-")
    assert out.splitlines()[-1] == "1/5"
    obj = json.loads(run("tree", "show", "--depth", "1", "--format", "json"))
    assert [row["label"] for row in obj["result"]] == ["[0,1]", "{0/1}", "(0/1,1/1)", "{1/1}"]


def test_exit_codes():
    run("farey", "dist", "bogus", "1/7", expect=2)
    run("analyze", "optimality", "--r", "1/2", "--side", "plus", "--V", "2", expect=4)
    out = run("spectrum", "defects", "--r", "7/9", "--side", "plus", "--V", "5",
              "--tol", "1e-40", "--format", "json")
    assert len(json.loads(out)["result"]["points"]) == 9
    run("spectrum", "bands", "--r", "1/2", "--V", "0", expect=2)
    # a coupling with no finite float
    run("spectrum", "bands", "--r", "1/3", "--V", "1e400", expect=2)
    run("spectrum", "defects", "--r", "1/3", "--side", "plus", "--V", "1e400", expect=2)
    run("butterfly", "--Q", "2", "--V", "1e400", "--fast", expect=2)
    # a coupling whose float square would overflow the defect estimates, and
    # one whose float ulp is at least the unit hopping of the fast backend
    run("spectrum", "defects", "--r", "1/3", "--side", "plus", "--V", "1e300", expect=2)
    run("butterfly", "--Q", "3", "--V", "1e300", "--fast", expect=2)
    # exact run time grows with |V| (below 2^16) and with the bits of the
    # coupling's denominator (at most 64), not with its numerator's bits
    run("spectrum", "bands", "--r", "1/3", "--V", str(2**16 - 1))
    run("spectrum", "bands", "--r", "1/3", "--V", "65537/65536")
    run("spectrum", "bands", "--r", "1/3", "--V", str(2**16), expect=2)
    run("spectrum", "defects", "--r", "1/3", "--side", "plus", "--V", str(-(2**16)), expect=2)
    run("spectrum", "bands", "--r", "1/3", "--V", f"3/{2**64 - 1}")
    run("spectrum", "bands", "--r", "1/3", "--V", f"3/{2**64}", expect=2)
    run("butterfly", "--Q", "2", "--V", str(2**16), expect=2)
    run("butterfly", "--Q", "2", "--V", str(2**16), "--fast")
    run("butterfly", "--Q", "2", "--V", "5", "--fast", "--threads", "2", expect=2)
    # so does it with the rotation's denominator, capped at 89, also for the
    # membership test, which takes the coupling caps too
    run("spectrum", "member", "--E", "0", "--r", "55/89", "--V", "5")
    run("spectrum", "member", "--E", "0", "--r", "1/90", "--V", "5", expect=2)
    run("spectrum", "member", "--E", "0", "--r", "1/3", "--V", str(2**16), expect=2)
    run("spectrum", "member", "--E", "0", "--r", "55/89", "--V", f"1/{2**470}", expect=2)
    run("spectrum", "bands", "--r", "1/90", "--V", "5", expect=2)
    run("spectrum", "defects", "--r", "55/144", "--side", "plus", "--V", "5", expect=2)
    run("analyze", "optimality", "--r", "1/90", "--side", "plus", "--V", "5", expect=2)
    run("analyze", "measures", "--r", "1/90", "--V", "5", expect=2)
    run("analyze", "lipschitz", "--pair", "1/90:1/3", "--V", "5", expect=2)
    # butterfly writes csv, json or svg; it has no text artifact
    run("butterfly", "--Q", "2", "--V", "5", "--fast", "--format", "text", expect=2)
    # inputs that can blow up time or memory are capped; every word command
    # builds the whole period, capped at 10^4
    run("word", "complexity", "1/10000+", "--n", "2")
    run("word", "complexity", "1/10001+", "--n", "2", expect=2)
    run("word", "dict", "1/10001-", "--n", "2", expect=2)
    run("word", "show", "1/10001", expect=2)
    run("word", "defect", "--r", "1/10000000", "--side", "plus", expect=2)
    run("tree", "show", "--depth", "17", expect=2)
    run("tree", "dist", "1/3", "1/2", "--depth", "10001", expect=2)
    # refinement costs grow with the digits of tol, which has a floor
    run("spectrum", "bands", "--r", "2/5", "--V", "5", "--tol", "1e-41", expect=2)
    run("spectrum", "bands", "--r", "2/5", "--V", "5", "--tol", "1e-10000", expect=2)
    run("butterfly", "--Q", "3", "--V", "5", "--tol", "1e-41", expect=2)
    # spectrum defects has no --kmax any more
    run("spectrum", "defects", "--r", "2/3", "--side", "plus", "--V", "5", "--kmax", "65", expect=2)
    run("analyze", "optimality", "--r", "2/3", "--side", "minus", "--V", "5", "--kmax", "65", expect=2)
    run("analyze", "measures", "--r", "0", "--V", "5", "--kmax", "65", expect=2)
    run("butterfly", "--Q", "65", "--V", "5", "--fast", expect=2)
    run("butterfly", "--Q", "39", "--V", "5", expect=2)
    run("word", "show", "2/3+", "--lo", "0", "--hi", "100000", expect=2)
    run("word", "dict", "2/3", "--n", "257", expect=2)
    run("word", "complexity", "0+", "--n", "257", expect=2)
    # unknown flags are rejected by the parser
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "kohmoto.cli", "farey", "dist", "0+", "1/7", "--bogus"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    # a bracket count of t^2 = V^2 + 4 that loses a sign change must surface
    # as a certification failure: without the upper Cauchy bound, the factor
    # A = gcd(D, G+) of degree 4 at 2/3+ loses the root above the bands
    code = (
        "import sys\n"
        "from kohmoto import cli, spectra\n"
        "gaps = spectra._sign_change_gaps\n"
        "spectra._sign_change_gaps = lambda f, xs, exp: gaps(f, xs[:-1], exp)\n"
        "sys.exit(cli.main(['spectrum', 'defects', '--r', '2/3', '--side', 'plus', '--V', '5']))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(env, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 3, (proc.returncode, proc.stderr)
    assert "changes sign 3 times, wanted 4" in proc.stderr


def test_formats_only_where_produced():
    # only butterfly writes CSV or SVG; the other commands offer text and json
    run("farey", "dist", "1/2", "1/3", "--format", "svg", expect=2)
    run("farey", "cf", "2/5", "--format", "csv", expect=2)
    assert run("farey", "cf", "2/5", "--format", "text").endswith("\n")


def test_empty_windows_and_listings_rejected():
    run("word", "show", "1/2", "--lo", "5", "--hi", "3", expect=2)
    run("tree", "show", "--depth", "-1", expect=2)
    assert run("word", "show", "1/2", "--lo", "3", "--hi", "3").splitlines()[-1] == "1"
    obj = json.loads(run("tree", "show", "--depth", "0", "--format", "json"))
    assert [row["label"] for row in obj["result"]] == ["[0,1]"]


def test_idempotent_bytes():
    a = run("spectrum", "defects", "--r", "2/3", "--side", "plus", "--V", "5",
            "--tol", "1e-6", "--format", "json")
    b = run("spectrum", "defects", "--r", "2/3", "--side", "plus", "--V", "5",
            "--tol", "1e-6", "--format", "json")
    assert a == b


def test_help_golden():
    out = run("--help")
    assert out == (DATA / "help_main.txt").read_text()
    out = run("butterfly", "--help")
    assert out == (DATA / "help_butterfly.txt").read_text()


def test_help_surface_golden():
    # the whole flag surface, every subcommand, pinned byte for byte
    cmds = [
        [], ["farey"], ["farey", "dist"], ["farey", "neighbors"], ["farey", "mediant"],
        ["farey", "cf"], ["farey", "between"],
        ["tree"], ["tree", "show"], ["tree", "dist"],
        ["word"], ["word", "show"], ["word", "dict"], ["word", "complexity"], ["word", "defect"],
        ["spectrum"], ["spectrum", "bands"], ["spectrum", "defects"], ["spectrum", "member"],
        ["analyze"], ["analyze", "lipschitz"], ["analyze", "optimality"], ["analyze", "measures"],
        ["butterfly"],
    ]
    chunks = []
    for cmd in cmds:
        out = run(*cmd, "--help")
        chunks.append("$ kohmoto " + " ".join(cmd + ["--help"]) + "\n" + out)
    assert "\n".join(chunks) == (DATA / "help_surface.txt").read_text()


def test_butterfly_svg_golden(tmp_path):
    target = tmp_path / "fig1.svg"
    run("butterfly", "--Q", "25", "--V", "5", "--fast", "--format", "svg",
        "-o", str(target))
    assert target.read_bytes() == (DATA / "butterfly_q25_v5.svg").read_bytes()


def test_butterfly_svgs_are_well_formed_xml(tmp_path):
    # the invocation header and the failed-row comments (the Q = 25 golden
    # has 22) are escaped, so an XML parser reads the whole figure
    target = tmp_path / "certified.svg"
    run("butterfly", "--Q", "4", "--V", "-3", "--format", "svg", "-o", str(target))
    for path in (target, DATA / "butterfly_q25_v5.svg"):
        assert ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"
    comment = analysis.xml_comment("a--b-->c<&-")
    assert comment == "<!-- a- -b- -&gt;c&lt;&amp;- -->"
    ET.fromstring(f"<a>{comment}</a>")


def test_analyze_measures_json():
    out = run("analyze", "measures", "--r", "0", "--V", "5", "--kmax", "3", "--format", "json")
    obj = json.loads(out)["result"]
    assert obj["mu"] == ["4/1", "4/1"]
    assert len(obj["rows"]) == 3


def test_certified_output_runner_names_a_moved_byte():
    # the runner that checks the pins under python -O reports an output
    # whose SHA-256 moved, and one that failed, and nothing else
    good = "farey dist 0+ 1/7"
    digest = hashlib.sha256(run(*good.split()).encode()).hexdigest()
    moved, failed = "farey mediant 1/3 1/2", "farey dist bogus 1/7"
    got = certified_outputs.mismatches({good: digest, moved: digest, failed: digest})
    assert [line.split(":")[0] for line in got] == [moved, failed]
    assert got[1].startswith(f"{failed}: exit 2,")


@pytest.mark.parametrize("command", list(CERTIFIED_OUTPUTS))
def test_certified_output_bytes_are_pinned(command, capsys):
    assert cli.main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CERTIFIED_OUTPUTS[command]

"""SHA-256 of the stdout of certified commands: a change inside the exact
layers (enclosure representation, refinement, set metrics) must not move
an output byte.  `tests/test_cli.py` checks them in the Tier-1 suite.

Run as a script, it checks every pinned command with explicit exits, so
that the check also holds with asserts stripped:

    PYTHONPATH=src python -O tests/certified_outputs.py
"""

import contextlib
import hashlib
import io
import sys

from kohmoto import cli

CERTIFIED_OUTPUTS = {
    "spectrum bands --r 55/89 --V 5 --format json": "9549753b7b26841a57b11f98b17f26ded446ae9a6a8281d9f50ed1122e5b0319",
    "spectrum defects --r 8/13 --side plus --V 1/2 --tol 1e-9 --format json": "0254344bdb4c48c3786a95bca8e907ecebe1e934cc0833e6d543e9a648b8adda",
    "analyze optimality --r 2/3 --side minus --V 5 --kmax 20 --format json": "4aa6750f2b1f3f4111826c018b633cede8c35ba55d48f7ececd73db46fffa9d1",
    "butterfly --Q 8 --V 5 --format json": "d047d3ffddd6edb6876d44496fb832bc79f54149d3585bc02f2acdf12249f940",
    "butterfly --Q 8 --V -3 --format json": "0b136404e532d7a0cb2d19a276a6921b5c2a7ed6769f6582895980c58b58fb80",
    # the CSV formats the exact ends by its own path, not the JSON's; and a
    # butterfly at a coupling that is not dyadic
    "butterfly --Q 8 --V 5 --format csv": "efde872ce77c44a88f1b3af7d6cdd8949b8db204ad9b660c328d6aecfc6c34bd",
    "butterfly --Q 8 --V 7/3 --format json": "bdeb3f95d9fd84aa13de3911813582b67a84bd6fc44372698349902f9de35bb1",
    # set metrics on spots at both sides of a pair, then intersection and
    # measure
    "analyze lipschitz --pair 1/3+:2/5- --pair 0+:1/7 --pair 1/2-:3/5+ --V 5 --tol 1e-9 --format json": "5cf643486015ddb0caae0cabdc70e2bc933ffcff10abcfc2b56d6d0e373f5cd9",
    "analyze measures --r 3/5 --V 5 --kmax 8 --format json": "3ebdc375953f9c94683100efc519d4792edd2d13e08ac8aedc28bed7729bea20",
    # a coupling that is not dyadic: reflection factors scaled by powers of 3
    "spectrum bands --r 21/34 --V 7/3 --tol 1e-9 --format json": "dfbcaa0a17076a380f92afaa00b16dc067cf7941eca25ca16420dfeb402c0b39",
    # the Sturm fallback's windows refined to the tol grid, and gap brackets
    # refined below the guides' grid
    "spectrum bands --r 3/25 --V 100 --format json": "f8f2f5de7d615c0ade9d846498cc877219732a30a678701f031c284d084cb9b5",
    "spectrum defects --r 34/89 --side plus --V 5 --tol 1e-20 --format json": "8c3622b93cc81bec32ee94abc8623ad80c0195c3ef9bed818019399e6df51a43",
}


def mismatches(outputs: dict) -> list[str]:
    """The commands of outputs whose exit code is not 0 or whose stdout
    does not hash to the pinned SHA-256, each with what it gave."""
    from kohmoto import cli

    bad = []
    for command, want in outputs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(command.split())
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or got != want:
            bad.append(f"{command}: exit {code}, sha256 {got}")
    return bad


if __name__ == "__main__":
    failed = mismatches(CERTIFIED_OUTPUTS)
    print("\n".join(failed) or f"{len(CERTIFIED_OUTPUTS)} pinned outputs hold")
    sys.exit(1 if failed else 0)

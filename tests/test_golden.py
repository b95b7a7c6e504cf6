"""Golden report corpus: pinned hashes of script reports and CLI JSON.

Canonical reports are the behaviour contract of the package.  Every case
below replays a bundled script, or a CLI command with `--format json`, and
compares the content hash of its report with the value pinned when the
corpus was recorded.  A refactor of the engine, the interpreter or the monad
bookkeeping must leave every hash unchanged; a hash that moves means the
report bytes changed, and the change has to be justified and re-pinned.

The acceptance-suite hash is pinned in tests/test_acceptance.py, which
already computes the full suite once per session.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from p3bundles.cli import main
from p3bundles.engine import AssertionNotEntailed, run_script
from p3bundles.jsonio import content_hash

# (script, params, seed) -> report_hash; a run that stops at an assert that
# is not entailed pins the hash of its partial report instead
SCRIPT_HASHES = {
    ("prop1", (("m", 1), ("eps", 0), ("a", 5)), 0):
        "c67f6f1c362f4c56a6e7fa2da5b78eb78300401dc04fe85f23926606ab0f8fce",
    ("prop1", (("m", 1), ("eps", 0), ("a", 5)), 1):
        "043e88bfee3ab53b0001e7cf791ef2b6c1631ad764d1a57bb4bae72b070ea48b",
    ("prop1", (("m", 2), ("eps", 1), ("a", 7)), 0):
        "766cab7429d1259ea9d0ff8b88f717c886598d21144d81fc672ada01cd0d2dde",
    ("prop1", (("m", 2), ("eps", 1), ("a", 7)), 1):
        "3c0f1300d30bc981e2be93f2d8a68c7dafcf77e6c4be9d92a28c8ab590e29442",
    ("prop1-modified", (("m", 8), ("a", 12), ("d", 1)), 0):
        "deb764817c3a02129be6f444de0393ecef9878ec9f0c7d7446dab6ca333dd348",
    ("prop1-modified", (("m", 8), ("a", 12), ("d", 1)), 1):
        "cfaac04b530d5dd2270cb35c1886e1f052eb880def299f9ddebdac2d1565ad77",
    ("prop1-modified", (("m", 8), ("a", 12), ("d", 3)), 0):
        "6a0dd871ffc4da609d2e79a59b49f0ba4c8a354b2d8c60e90f508249ca57b08d",
    ("prop1-modified", (("m", 8), ("a", 12), ("d", 3)), 1):
        "9bb42d90ad77d24ebf098f9d9fbe988b28473421562144885731f642e8bbc56e",
    ("prop2", (("m", 1), ("eps", 0), ("a", 6)), 0):
        "373bd3bd4a5b712dc7a302c3b0301d0851ec31118f20b433deafc591afbfca0e",
    ("prop2", (("m", 1), ("eps", 0), ("a", 6)), 1):
        "f3f32077328a4e24b3f922034cbe005fe0d97c45dfc55d60b44d11dbb9661635",
    ("prop2", (("m", 2), ("eps", 1), ("a", 10)), 0):
        "3eaf2a68e9bdfe66e8270f09cb9c5f9a35cdcd20e7e88f2fc3d758b927e77bee",
    ("prop2", (("m", 2), ("eps", 1), ("a", 10)), 1):
        "8487697a8310f2448208895cbe6e165ed56cc202c65652551021e27357e392be",
    ("thmA-chain", (("m", 1), ("eps", 0), ("a", 5)), 0):
        "1d77c98daffef80c1e08d66ad47e159fdc62f709d569ce7417c0dd078d27b4b3",
    ("thmA-chain", (("m", 1), ("eps", 0), ("a", 5)), 1):
        "aae19043011a359575e27866979dda60bc7152384b8a7a5ef486826f9ea1469d",
    ("thmA-chain", (("m", 2), ("eps", 1), ("a", 7)), 0):
        "46dcf107cdf1a262ac8c9e887acec006f76abf620693ba1bb3590e621e35ed54",
    ("thmA-chain", (("m", 2), ("eps", 1), ("a", 7)), 1):
        "777c284f6ca37e82b99c00bc712bd332622df245cb44034fc82a2eff944758ca",
    ("thmB-chain", (("m", 1), ("eps", 0), ("a", 5)), 0):
        "f2b270bd53d16c454c802aa0215e0d1d27817ee8b7298f54615b4d30ee5304df",
    ("thmB-chain", (("m", 1), ("eps", 0), ("a", 5)), 1):
        "2c6fb4ab6f9fdc1571a16bd8b10d27f6548761796563fafe71b8a0981070e4af",
    ("thmB-chain", (("m", 1), ("eps", 1), ("a", 7)), 0):
        "123374decf2bba134af73989f852bd72e717f845bcdf4baaaa07a5359ef3e54e",
    ("thmB-chain", (("m", 1), ("eps", 1), ("a", 7)), 1):
        "92a42037b634691eac2fff7826969acfe1e53ca2abfd3490e330ceba55484fed",
    ("prop1", (("m", 9), ("eps", 0), ("a", 5)), 0):
        "115f8d28df4c880f8dcb4a995e2cfcba443b73f969690a0b60cc38bcaa2b2c6e",
    ("prop1", (("m", 9), ("eps", 0), ("a", 5)), 1):
        "ec3d391507909d1e4b739b960fb52d0e49723d8f79a7a8a51c1807becfacb18e",
}

# CLI command line (without --format json) -> content_hash of its JSON output
CLI_HASHES = {
    "monad profile --series sigma0 --m 1 --eps 0 --a 2":
        "7908e2c662b5a7f902bf713996194bd28e4463f03ab2cccd45b1260fe2b7bad8",
    "monad profile --series sigma0 --m 1 --eps 0 --a 2 --lo -2 --hi 1":
        "aeb862d64bba6ea57d62df417ee9911221db661d5a5c682607226fe127758f0d",
    "monad checks --series sigma0 --m 1 --eps 0 --a 2":
        "b1a9824c1b9f9b2606cd34db93f3775690aff2822116f020bb87a0e8c5e97bad",
    "spectrum --series sigma0 --m 1 --eps 0 --a 2":
        "617953d015ba74d025602f7999ee3d34dd1378b93e81ebe239591b18b5b4449f",
    "monad profile --series sigma0 --m 1 --eps 0 --a 5":
        "8b07ddc3471ad204c467d158c66c4e4efd20086c41f4b0e4940534c1b96ab8f2",
    "monad profile --series sigma0 --m 1 --eps 0 --a 5 --lo -2 --hi 1":
        "61a028ed86e89eca6f6066bc3109623fb0648c2e9ab1b3c7e4ad1f26720e2505",
    "monad checks --series sigma0 --m 1 --eps 0 --a 5":
        "3feb83c5c048658cdf8b295f34abe697684375eb4b39bd31a2ed9addb95d5c7b",
    "spectrum --series sigma0 --m 1 --eps 0 --a 5":
        "f1a8505370913d86324112226aeb2014c108e4acaac5eb774a8a9392dcc39049",
    "monad profile --series sigma0 --m 1 --eps 0 --a 5 --lo -8 --hi 7":
        "e6fedae4797614c905eda41c17f13a177612424020da1e9f919dbd977dc7c2d6",
    "monad profile --series sigma1 --m 1 --eps 0 --a 4":
        "1887e115ffbe4866d7f04c33f47d6ab77940b62053f0f2ceb7dd7456742308c3",
    "monad profile --series sigma1 --m 1 --eps 0 --a 4 --lo -2 --hi 1":
        "07ea4ef357f525c7b8332ca981d96f50f164c465f55e482ea8868af53bdd7f89",
    "monad checks --series sigma1 --m 1 --eps 0 --a 4":
        "0ada1f4d8e860a9f2afe70791a18dc28a48adbad718db45e850e248eba55138f",
    "spectrum --series sigma1 --m 1 --eps 0 --a 4":
        "3b9d3496e58d2058df557e719dd8a9161ff789d4a44c729c7431f19cda0ed993",
    "monad profile --series sigma1 --m 1 --eps 0 --a 5":
        "8aca0e4e5696b307048c9d66eeb8257623a692132dff757a856016bba545e50b",
    "monad profile --series sigma1 --m 1 --eps 0 --a 5 --lo -2 --hi 1":
        "f20733cf1a36cfa570698cce8a12c7d70157cc6385c159cc6f94ff9e796cdb82",
    "monad checks --series sigma1 --m 1 --eps 0 --a 5":
        "604dce3d93912f4bb6a782f98849d8af88c6479428a3fc31671e5e5746859cec",
    "spectrum --series sigma1 --m 1 --eps 0 --a 5":
        "bdbaaf8f57f7325fb469ea8c880f933478ea9c01afcdbf76edbe1bb24770c200",
    "monad profile --series sigma1 --m 1 --eps 0 --a 5 --lo -8 --hi 7":
        "18cafdad5a8f053c31c885be9d11ac19c8bf52950c2ec1babc2fddaeff26d7c6",
}


def script_hash(name: str, params: tuple, seed: int) -> str:
    try:
        return run_script(name, dict(params), seed=seed).report_hash
    except AssertionNotEntailed as exc:
        return content_hash(exc.report.to_dict())


def cli_hash(command: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*command.split(), "--format", "json"])
    assert code == 0, command
    return content_hash(json.loads(out.getvalue()))


@pytest.mark.parametrize("case", sorted(SCRIPT_HASHES),
                         ids=lambda c: f"{c[0]}-{'-'.join(str(v) for _, v in c[1])}-s{c[2]}")
def test_script_report_hash(case):
    assert script_hash(*case) == SCRIPT_HASHES[case]


@pytest.mark.parametrize("command", sorted(CLI_HASHES))
def test_cli_report_hash(command):
    assert cli_hash(command) == CLI_HASHES[command]

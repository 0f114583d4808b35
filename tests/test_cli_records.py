"""Golden CLI records: every subcommand and input branch, pinned by digest.

Each case runs ``cli.run`` in-process and pins its exit code (or the name
of the exception that escaped) and one sha256 over stdout, stderr and
every file the run wrote.  The timestamp line is dropped and the
temporary directory is written as ``{tmp}`` first, so the digest is
the record's byte-for-byte content.  ``--help`` is left out: argparse
words it differently across Python versions.

A deliberate output change updates exactly the rows it touches; print
the current table with

    PYTHONPATH=src python tests/test_cli_records.py
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from ffdist.cli import run

FIXTURES = {
    "a.set": "p=7 d=1\n0\n1\n3\n",
    "pts.set": "p=7 d=2\n0,0\n1,2\n3,5\n4,4\n6,1\n",
    "inst.txt": "p=5\nPOINTS\n0,0,0,2\n1,2,3,1\n4,4,1,1\nPLANES\n1,0,0,0,1\n0,1,1,3,2\n1,1,1,0,1\n",
    "huge.txt": "p=5\nPOINTS\n0,0,0,1\nPLANES\n1,0,0,0,1000000000000\n",
}

# (id, argv with {tmp} for the case directory, exit code, sha256)
CASES = [
    ("spectrum-set-csv", "spectrum --p 7 --set 0,1,3", 0, "58e6cb587bffb623a7c9165557074ee4c342b52ce30647ae66ce46917ef45f8a"),
    ("spectrum-set-json-n2-exclude", "spectrum --p 7 --set 0,1,3 --n 2 --format json --exclude-diagonal", 0, "85259022672c7c79a4134de3a1cdec167c1eb00c2ef66827a5b77302665c7b15"),
    ("spectrum-dot-exclude", "spectrum --p 5 --set 1,2 --kind dot --n 2 --format json --exclude-diagonal", 0, "f3c628bbd97916ae51afc1fedf5f8a261164689dfb4f4512f2211f8746e9491d"),
    ("spectrum-set-file-json", "spectrum --set-file {tmp}/a.set --format json", 0, "04e725e726a6a373ea55182646cb0b871924149616293aee3d8a345adb92a66a"),
    ("spectrum-random-csv-out", "spectrum --p 11 --random 4 --seed 3 --out {tmp}/s.csv", 0, "45050c179747cca66fc312a1073388d2a5fa3407615b45acc7118c5189782c30"),
    ("spectrum-random-json-out", "spectrum --p 11 --random 4 --seed 3 --kind dot --n 2 --format json --out {tmp}/s.json", 0, "b3d72fd35ccc1ac8d3442bdb8400433b37b1817e75d8c66b7751f4c662cc7758"),
    ("spectrum-isotropic-json", "spectrum --p 13 --isotropic --format json", 0, "29b9250f82212b2597eeb4288dd5f86b886f567263dbf7450ee1ebd45c278778"),
    ("spectrum-isotropic-csv-exclude", "spectrum --p 13 --isotropic --exclude-diagonal", 0, "d1b379310e9d04ee86cdaeb53be6cb58c60b2011766c47605846a116ee6ff5de"),
    ("spectrum-isotropic-kind-dot", "spectrum --p 13 --isotropic --kind dot --n 3 --format json", 1, "2345dddaabac73314b5aa4c03126beb491f5b316021f0713bacb1588f9a78ce6"),
    ("spectrum-points-file-json", "spectrum --points-file {tmp}/pts.set --format json", 0, "1a3280062b98506faf79324003c7d74327e5808c15551b377def6a07f41bef00"),
    ("spectrum-points-file-n2", "spectrum --points-file {tmp}/pts.set --n 2 --format json", 1, "7ad60dd7aef5dbc87446a38e5f5afebac8056db819c3b1689b19e3dc4cb383f9"),
    ("spectrum-points-file-dot", "spectrum --points-file {tmp}/pts.set --kind dot", 1, "2345dddaabac73314b5aa4c03126beb491f5b316021f0713bacb1588f9a78ce6"),
    ("spectrum-points-file-subset", "spectrum --points-file {tmp}/a.set", 1, "899850d0413ea6bc3c6107819f5cd53b700142ba977a161b94aac15d98241edc"),
    ("spectrum-points-file-missing", "spectrum --points-file {tmp}/nope.set", 1, "26833d38410aa0be080a383d06c85de4f4898f6bcaae5edd759c1a2904f85333"),
    ("spectrum-set-file-points", "spectrum --set-file {tmp}/pts.set", 1, "8bf10c11240707dbbf3e240e572052c7a09a63d1333978b2ca09bf5caf822bd7"),
    ("spectrum-set-file-conflict", "spectrum --p 5 --set-file {tmp}/a.set", 1, "e268cc742a0346c66dbe023bac99237409308a2068992a0ea3fb2a780b0a2450"),
    ("spectrum-isotropic-no-p", "spectrum --isotropic", 1, "dca1383572e08ad2a3beb24c4039443f98946c348da018f35b8613a759676ad9"),
    ("spectrum-isotropic-3mod4", "spectrum --p 7 --isotropic", 1, "b418e2e5210d29cbcd120e1b5be590c727b104e1a9b388423793b372588026d8"),
    ("spectrum-no-set", "spectrum --p 7", 1, "0e68851d9d3017f5a637feadebd2cf415bd2be90d2e9706b9c2bdd4da2e69d55"),
    ("spectrum-no-p", "spectrum --set 0,1", 1, "1a8890bb3cac0978156520a7fac2d9c1f99b012010eba9d89feeb688347812f7"),
    ("spectrum-composite-p", "spectrum --p 6 --set 0", 1, "c2967010a0197d7cbb2feca9afb4542740afc43726f9b3bf025539638953a4ae"),
    ("spectrum-parse-error", "spectrum --p 7 --set 0,x", 1, "892e1501cf1085e7b6359c17508cf266853721a5d2120b2bd2c78a9af8108e09"),
    ("spectrum-unknown-flag", "spectrum --wat", 1, "2517c98174f579bc30db6311dd3cfe998088ad6e1185bd29d59d0420e464bf12"),
    ("spectrum-selftest", "spectrum --selftest", 0, "09fdb2296ebd6fd7d00139de149f34b600f806424f9cfde318e8bec6352634b9"),
    ("energy-distance-oracle", "energy --p 7 --set 0,1 --d 2 --oracle", 0, "76e78fae9eb910d912b0325473577f57e84e675fe590255318ce96007df80254"),
    ("energy-dot-recursion", "energy --p 11 --random 5 --seed 2 --kind dot --d 2 --recursion", 0, "c201d1ae283c6c011192fc0c314021179debebd24a806fb5249cf499f543894a"),
    ("energy-distance-recursion-csv", "energy --p 11 --random 5 --seed 2 --d 3 --recursion --format csv", 0, "a61b601e89ae2fb6f060a2c00b46b99b2d9685532d5384afc6314bbf98644833"),
    ("energy-additive-set-file", "energy --set-file {tmp}/a.set --kind additive --oracle", 0, "df3645d9f01fcf4a9bc5c78b4ff944fd3dedf741407458b2f57fb784e007a9aa"),
    ("energy-multiplicative-out", "energy --p 13 --set 1..6 --kind multiplicative --out {tmp}/e.json", 0, "21ea96e17c65ce1bf6e9e0a9aebf0f59196a26711b88df6b9caebdef06731b18"),
    ("energy-additive-depth", "energy --p 7 --set 0,1 --kind additive --d 2", 1, "736866d17e6cb2f7c80a50e5842349a51a9f88c053c5f89558ca4c9bccad2f54"),
    ("energy-guard", "energy --p 499 --set 0..199 --kind additive --oracle", 1, "c3fa169b16cb522bd1b73bf609f29eb3369fe59aad1fe9bc0232b9422f1504d1"),
    ("energy-guard-force", "energy --p 101 --set 0..49 --kind additive --oracle --force", 0, "be4d172ffe9e586266cfe4783e1210ab724461d8f416445155e368e8f82456b1"),
    ("energy-recursion-d1", "energy --p 7 --set 0,1 --recursion", 1, "3031b4ff1c443bcaf186169b717686ce03db45b2eefb10be387b068bcd8617f8"),
    ("energy-recursion-overflow", "energy --p 101 --random 50 --d 100 --recursion", 0, "33cd5fbdb1fa25051009207d22d3b1075e9257702cd4cafc1c7ec43fa2fe8f16"),
    ("energy-selftest", "energy --selftest", 0, "68586040279ceef8ec186b9605b1e74e44629cb6bbb46e136b92cabc4b4944e1"),
    ("coverage-set", "coverage --p 7 --set 0,1,3", 0, "aac6dd0559f17e070fe253fdf1a4e804e53ddbc6ac0f4b49f7fc44a51f072e39"),
    ("coverage-set-n3", "coverage --p 7 --set 0..6 --n 3", 0, "24ba6669498c0abd05db9912ea303b7f969562b33bd37a281757ffc3a8e81830"),
    ("coverage-dot-csv", "coverage --p 11 --random 5 --seed 1 --kind dot --n 2 --format csv", 0, "c09955640d79f92f2271c9d20d9e863a72e190fa33543160de008d9d63ce8f5b"),
    ("coverage-set-file-out", "coverage --set-file {tmp}/a.set --out {tmp}/c.json", 0, "6fb7385cfb645a9c6d792b40129cc5471aabdd2c63ab528fa854d1f93ff948ea"),
    ("coverage-isotropic", "coverage --p 5 --isotropic", 0, "96d0176079dd8abea343b1fbc0279e910a7e0c5cf366692aff648f7db77cb2c1"),
    ("coverage-isotropic-kind-dot", "coverage --p 5 --isotropic --kind dot --n 3", 1, "2345dddaabac73314b5aa4c03126beb491f5b316021f0713bacb1588f9a78ce6"),
    ("coverage-points-file", "coverage --points-file {tmp}/pts.set", 0, "3b03b2b22d11dc32a466a6c9d4ed33ba74e2a2932c9ae621cbd4d3ba989e82ca"),
    ("coverage-random-points-met", "coverage --p 5 --random-points 100 --dim 3 --seed 1", 0, "c6b8ec555f644b09d527e379a8edb22c5e768cccedb722ea7cd50adfdb84b164"),
    ("coverage-random-points-below", "coverage --p 7 --random-points 10 --dim 2 --seed 2 --format csv", 0, "a04776e7bcf869e65220d76a9f958993040c31ef355b6ba77f6b9eab7f4c34e5"),
    ("coverage-random-points-n2", "coverage --p 5 --random-points 10 --n 2", 1, "7ad60dd7aef5dbc87446a38e5f5afebac8056db819c3b1689b19e3dc4cb383f9"),
    ("coverage-random-points-zero", "coverage --p 7 --random-points 0", 1, "5785918be1c4d67c5893cea9c572f8d34dc5dfa69afb8bb6d632cc6fae66429a"),
    ("coverage-random-points-no-p", "coverage --random-points 10", 1, "4dc705bb3c8cc1ff86a78f1e232e17142cd355f2106a6151046f3b7853d4369f"),
    ("coverage-isotropic-no-p", "coverage --isotropic", 1, "dca1383572e08ad2a3beb24c4039443f98946c348da018f35b8613a759676ad9"),
    ("coverage-points-file-subset", "coverage --points-file {tmp}/a.set", 1, "899850d0413ea6bc3c6107819f5cd53b700142ba977a161b94aac15d98241edc"),
    ("coverage-selftest", "coverage --selftest", 0, "a0138146cc11eb9912a186dd7aed8abfa346a5e534212b90d9c0cbe51b640877"),
    ("encode-check-all", "encode-check --p 7 --set 1,2,4 --d 2", 0, "3b8d4d9f69f1e72af6d59397d41bd391493dc56045dc51e329e4236f3732d865"),
    ("encode-check-dump-one", "encode-check --p 5 --set 0,1 --d 1 --encoding distance-odd --dump {tmp}/enc", 0, "882170df5d113f5209a8e0d297179b2853c857b510b543475247f7d3cabd5745"),
    ("encode-check-dump-all", "encode-check --p 7 --set 1,2 --d 2 --dump {tmp}/enc --format csv", 0, "1fd61a2ab9a11213bced28cb5dc14147b0923734c360e40523ae059d8e953c88"),
    ("encode-check-selftest", "encode-check --selftest", 0, "cf7f3044a616948815b68453b4edcd4e7e01f4addd32f13055da9e80a6b9c4c6"),
    ("deviation-check", "deviation-check --p 7 --random-multisets 30 --seed 3", 0, "5b974cb7f68efd18819926b2e4a1e0b2b057e830c1fa62f148428b75abecfcc2"),
    ("deviation-check-dim2-csv", "deviation-check --p 11 --random-multisets 5 --seed 1 --dim 2 --format csv", 0, "c4ee97240629708321e0cdf8546fbf5f50fd4a7a0f063979fa8d7d676b23312f"),
    ("deviation-check-negative", "deviation-check --p 7 --random-multisets -1", 1, "3416881e3ec23b80f051cb175eeb7595de42564219de96c5e4c5ac5523e67647"),
    ("deviation-check-no-p", "deviation-check", 1, "b8b982ec49a95757cd3cb9507e7da466a130e3c4483176d9df75f3158b1d2c38"),
    ("deviation-check-selftest", "deviation-check --selftest", 0, "cf7f3044a616948815b68453b4edcd4e7e01f4addd32f13055da9e80a6b9c4c6"),
    ("incidence-random", "incidence --p 7 --random-points 20 --random-planes 25 --seed 2", 0, "0f3070c5940f0f6b4e54082c7e500489b0f97346c90f54e7448abceb3b71d672"),
    ("incidence-file", "incidence --instance-file {tmp}/inst.txt", 0, "2a72a1899ed1b0e7366b2c94f5a732aaea93939832e4570ce5711dc3cab83f53"),
    ("incidence-file-csv", "incidence --instance-file {tmp}/inst.txt --format csv", 0, "621cf6bd5138b6868bd094f15560aaa0780ad3326fea8ddff7f1f72221b42864"),
    ("incidence-file-plane-limit", "incidence --instance-file {tmp}/huge.txt --force", 1, "e086737ca99b54803dbc660d20022170a7ac29da5562f0e323548e8ebe905ad6"),
    ("incidence-empty", "incidence --p 5 --random-points 0 --random-planes 0", 0, "7a5d8a11bffd9dedcc7dd114c05f97a17b5cf1daf0e283ca73a08826bf07bf5e"),
    ("incidence-negative-points", "incidence --p 7 --random-points -1 --random-planes -3", 1, "44837fedddbdde9e2c4d55ae3b789864a43d7dbf269b60012566f4c5b6620d2c"),
    ("incidence-negative-planes", "incidence --p 7 --random-planes -3", 1, "17448f377b3be610c4293acd4a400f19fc5fa4012ee0114fa15808bcbcb33e6c"),
    ("incidence-no-p", "incidence", 1, "1542df3775efe8f0ec53dbccd02e850461d5db2f7492706ea19ee68aa326973f"),
    ("incidence-selftest", "incidence --selftest", 0, "d5a2c6b42875cad1bb666ef68929240d9ad10cbc9bd43a1bfb5fc5238a8988fc"),
    ("proof-instance-all-pairs", "proof-instance --p 7 --set 0,1,3 --d 2 --all-pairs", 0, "96588ec6902ecfa9e3f3269fb7970c2994b34c2130cb5df4413a11db386e4b90"),
    ("proof-instance-dump", "proof-instance --p 7 --set 0,1,3 --d 2 --i0 1 --j0 1 --dump {tmp}/inst.out", 0, "e48a35805cd5799f89f9685cf1d6cb2b00a88bbd4d53ad588fbd4d2402493e8d"),
    ("proof-instance-csv", "proof-instance --p 11 --random 4 --seed 1 --d 3 --all-pairs --format csv", 0, "f75a9129b80e16c43c08418a5a088b5bba2413d795b33f972bad4218dfec4531"),
    ("proof-instance-dump-all-pairs", "proof-instance --p 7 --set 0,1,3 --d 2 --all-pairs --dump {tmp}/x", 1, "6a079708956139edb9e7d276eeed2945e131708763f754c5f68405d6161096b8"),
    ("proof-instance-no-pair", "proof-instance --p 7 --set 0,1,3 --d 2", 1, "5fd11a174ca480f7ae96e888ac2652151a3031209f8cc8029e4e079368087851"),
    ("proof-instance-off-diagonal", "proof-instance --p 13 --set 0,1,2,5 --d 2 --i0 2 --j0 1", 0, "d684768321850d01d222636f611814d1239a411b3c2a917f9a857ff31554e23e"),
    ("proof-instance-missing-level", "proof-instance --p 7 --set 0,1,3 --d 2 --i0 1 --j0 5", 1, "4880dc5826d6488d3386a9674332ef771585c2793f52326dc08062c6537df01a"),
    ("proof-instance-selftest", "proof-instance --selftest", 0, "d5a2c6b42875cad1bb666ef68929240d9ad10cbc9bd43a1bfb5fc5238a8988fc"),
    ("decompose-random", "decompose --p 31 --random 6 --seed 2", 0, "14510d96e7b13873d02bab2aeb6fc3283c3063d8130835aebece7c1d118184b2"),
    ("decompose-greedy-csv", "decompose --p 31 --set 1,2,3,5,8 --strategy greedy --format csv", 0, "01d4c0f78e936abddcc3797591bfe0e77f934b8de22a3b134c8ee06e9328074b"),
    ("decompose-guard-force", "decompose --p 101 --random 21 --seed 1 --force", 1, "389476ef903b4aad23ef0c973167465a23eef6ee774018e1c44f5b088659691f"),
    ("decompose-selftest", "decompose --selftest", 0, "b8f6edb01007004d784bb28a12ba42e02c394334427466852d29ca3749ee8782"),
    ("scan-csv", "scan --p 7 --n 2 --trials 3 --seed 1", 0, "8b88ffd041415eeb7136b049785859ac2318707c3bd7acb1bd71bd83de1ae640"),
    ("scan-json-dot", "scan --p 7 --n 2 --kind dot --trials 2 --seed 1 --threads 2 --format json", 0, "8828a6bb46c85dde1453fdc59895f67d55ca9fbad5004506ddcb28d5237af8f3"),
    ("scan-csv-out", "scan --p 7 --n 2 --trials 3 --seed 1 --max-m 4 --out {tmp}/scan.csv", 0, "07c31122508ac297bd605b7ca3b1b35e5f50c63bee65c897f52c8ec13e7565a3"),
    ("scan-no-p", "scan", 1, "1831d02b6619bf04094c839a03ce8f39dca5d52635aa7605a4c93828b3d97581"),
    ("scan-selftest", "scan --selftest", 0, "8343c32c97ff058b0573fe22dd9e4e56ce815ed0c88ff4d9625623d9891a6624"),
    ("theorem-report", "theorem-report --p 101 --random 8 --seed 4 --d 2", 0, "aba9e901f0e1fa880b58450a2806d2e78a032054187273946a3b6ed316a9cf4e"),
    ("theorem-report-greedy-csv", "theorem-report --p 31 --set 1,2,3,5 --d 3 --strategy greedy --format csv", 0, "9ae2cb44a41a2cf8bedb0ad8e80503df0f65ddbbaa53b45888c564b62396b5bc"),
    ("theorem-report-d1", "theorem-report --p 31 --set 1,2 --d 1", 1, "c95044527d548480f805d21de1e666364473e597c3b38d90eebb3409d7028e72"),
    ("theorem-report-selftest", "theorem-report --selftest", 0, "b8f6edb01007004d784bb28a12ba42e02c394334427466852d29ca3749ee8782"),
]

_TIMESTAMP = re.compile(r'^\s*"timestamp": ".*",?\n', re.MULTILINE)


def outcome(argv: str, tmp: Path) -> tuple[object, str, str]:
    """(exit code or escaped exception name, digest, normalised stdout)."""
    for name, text in FIXTURES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv.format(tmp=tmp).split())
        except Exception as exc:  # pinned as an outcome, not a test error
            code = type(exc).__name__

    def norm(text: str) -> str:
        return _TIMESTAMP.sub("", text.replace(str(tmp), "{tmp}"))

    written = {
        path.name: norm(path.read_text(encoding="utf-8"))
        for path in sorted(tmp.iterdir())
        if path.name not in FIXTURES
    }
    blob = json.dumps(
        {"stdout": norm(out.getvalue()), "stderr": norm(err.getvalue()), "files": written},
        sort_keys=True,
    )
    return code, hashlib.sha256(blob.encode("utf-8")).hexdigest(), norm(out.getvalue() + err.getvalue())


@pytest.mark.parametrize("argv,code,digest", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_record(argv, code, digest, tmp_path):
    got_code, got_digest, text = outcome(argv, tmp_path)
    assert got_code == code, text
    assert got_digest == digest, text


if __name__ == "__main__":
    for case_id, argv, _, _ in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, digest, _ = outcome(argv, Path(tmp))
        print(f"    ({json.dumps(case_id)}, {json.dumps(argv)}, {json.dumps(code)}, {json.dumps(digest)}),")

"""Golden checksums: small pinned pairs must write the recorded bytes.

Each case runs ``python -m gradamp.cli run-pair`` in a fresh process with
BLAS pinned to one thread (OpenBLAS's larger products give other bytes at
other thread counts) and compares the sha256 of every deterministic file
with the value recorded when the case was added.  ``config.txt`` is left
out because it holds ``output.dir``.  The cases cover the defense and
attack paths the benchmark workloads do not run.

A change that moves a hash must name the change and why; regenerate the
table only then: ``GOLDEN_PRINT=1 pytest -s tests/test_golden.py`` prints
each case's digests.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from gradamp.config import ExperimentConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BASE = {
    "dataset.per_class": 40,
    "dataset.spread": 1.0,
    "dataset.server_fraction": 0.3,
    "federation.clients": 8,
    "federation.rounds": 6,
    "federation.checkpoint_every": 2,
    "attack.start_round": 2,
    "local.batch": 16,
    "model.hidden": 8,
    "validation.size": 15,
    "trust.size": 15,
}

CONV = {"dataset.dim": "1x8x8", "model.kind": "conv", "model.filters": 4}

SKEW = {"partition.scheme": "label-skew", "partition.skew": 0.8}

CASES = {
    "fedavg-none-lflip-gasc": {
        "defense.family": "fedavg",
        "defense.amplifier": "none",
        "attack.kind": "l-flip+g-asc",
    },
    # fedavg scores nothing, so its dump round amplifies on its own
    "fedavg-mp-gasc-dump": {
        "defense.family": "fedavg",
        "defense.amplifier": "mp",
        "attack.kind": "g-asc",
        "output.dump_amplified_round": 4,
    },
    "distmerged-mp-sh": {
        "defense.family": "dist-merged",
        "defense.amplifier": "mp",
        "attack.kind": "sh-optimized",
    },
    "fltrust-mp-lflip": {
        "defense.family": "fltrust",
        "defense.amplifier": "mp",
        "attack.kind": "l-flip",
    },
    "fang-mp-scale-dump": {
        "defense.family": "fang",
        "defense.amplifier": "mp",
        "attack.kind": "scale",
        "output.dump_amplified_round": 4,
    },
    # 100,867 parameters: the rows reach runtime.SPLIT_FLOATS, so the fang
    # probes split across the worker and the first restored panel takes
    # several client stacks of up to nn.SPLIT_STACK clients
    "fang-mp-wide": {
        "dataset.dim": 784,
        "model.hidden": 128,
        "defense.family": "fang",
        "defense.amplifier": "mp",
        "attack.kind": "g-asc",
    },
    "distcos-none-gasc": {
        "defense.family": "dist-cos",
        "defense.amplifier": "none",
        "attack.kind": "g-asc",
    },
    "conv-fltrust-xai-dba": {
        **CONV,
        "defense.family": "fltrust",
        "defense.amplifier": "xai",
        "attack.kind": "dba",
    },
    "conv-distcos-xai-scale-dump": {
        **CONV,
        "defense.family": "dist-cos",
        "defense.amplifier": "xai",
        "attack.kind": "scale",
        "output.dump_amplified_round": 3,
    },
    # 7x7 conv maps: the 2x2 maxpool crops row 6 and column 6
    "conv-fang-xai-crop": {
        **CONV,
        "dataset.dim": "1x9x9",
        "defense.family": "fang",
        "defense.amplifier": "xai",
        "attack.kind": "dba",
    },
    # a 1x1 maxpool: the conv still writes one cell-major slab, which the
    # pool folds and the backward scatters back to the maps
    "conv-fang-xai-pool1": {
        **CONV,
        "model.pool": 1,
        "defense.family": "fang",
        "defense.amplifier": "xai",
        "attack.kind": "dba",
    },
    # unequal shards [7, 5, 10, 4, 8, 10, 2, 8]: train_all stacks clients
    # that do not sit in consecutive rows
    "skew-disteuc-mp-lflip-gasc": {
        **SKEW,
        "defense.family": "dist-euc",
        "defense.amplifier": "mp",
        "attack.kind": "l-flip+g-asc",
    },
    "skew-disteuc-mp-scale": {
        **SKEW,
        "defense.family": "dist-euc",
        "defense.amplifier": "mp",
        "attack.kind": "scale",
    },
}

FILES = (
    "clean/rounds.csv",
    "clean/decisions.csv",
    "attacked/rounds.csv",
    "attacked/decisions.csv",
    "attacked/amplified.csv",
    "metrics.csv",
)

GOLDEN = {
    "conv-distcos-xai-scale-dump": {
        "clean/rounds.csv": "6b63a4314f3253ce32d78daf688604fa84b5588b158a9600a3ce9ba1360ad544",
        "clean/decisions.csv": "2882751ed6747a96749f44e8713f8f3dc0fe36de26a03fb7751bfb88c4372e84",
        "attacked/rounds.csv": "c269eee1676c96993c4126c2c01224d6dd62d8b2ce5b61e1bd275bd10a5d0941",
        "attacked/decisions.csv": "42fce94b5b220cc9ef33fcd1e8f320faa70a72284b5fb9ccdbe79ff805cb3688",
        "attacked/amplified.csv": "4bcd50370e5ac5f1b4bb27c571a6d273927fdb29e095645b36769664880faa0a",
        "metrics.csv": "65bbc89be4559f93bb89acb0776880ea292e77ddb068336c46763a5866e8da1f",
    },
    "conv-fang-xai-crop": {
        "clean/rounds.csv": "3af6b52358c3dbd75c91f837831c13a7030e228f6733d1a5084ead467c601a8d",
        "clean/decisions.csv": "4c1a47908d1cae20eaad2284e48a4c81fc21a066e4aa339fbc063fecfce65472",
        "attacked/rounds.csv": "c21b483b70b3fd1b6247e8c24c62d9e9b6433717889692f8083388ad0a3b454e",
        "attacked/decisions.csv": "03c0e8b71c8765f963b64b9430f52e658b37aa210905a3045a100120512dddef",
        "metrics.csv": "f4d7f33e7f4a2c9ee688bb2671ebfaa5f27002121a9a0fcbc2cf547fa1cabdc4",
    },
    "conv-fang-xai-pool1": {
        "clean/rounds.csv": "fc4f1159ca6d024cd67f517b3b11b03d9e38a0e10410ff28ec0a011716dafeaf",
        "clean/decisions.csv": "c870e48446e63fee103a13c52fdeb08fce0a3797d08da2f44d3f8b224f76c516",
        "attacked/rounds.csv": "a7870e1bd987016610a0d3e794ccceadcf7aa3913ab7ffe3cee7afc18f170279",
        "attacked/decisions.csv": "a8b91256d072cd309cc0dcd4f9beae68df84cf5ad31fa378e4c9996ccdffbd86",
        "metrics.csv": "088b0559089d78e8c0817e54040bceea7c10d0f653192bc476d72ddfbd36d48f",
    },
    "conv-fltrust-xai-dba": {
        "clean/rounds.csv": "aa560d05955e6b5c0e0565d322ae7041840a8901d4b10514d37fa0a0c4448d68",
        "clean/decisions.csv": "ce541027c226cfa3310c26625ae19955d5b1042f500be493c804cf5d4eba2634",
        "attacked/rounds.csv": "aa560d05955e6b5c0e0565d322ae7041840a8901d4b10514d37fa0a0c4448d68",
        "attacked/decisions.csv": "3b71a72794cad8cc85146fcbf198b9181126a5e008d7053d4e2fe8a9d5a5497e",
        "metrics.csv": "f72b3e4b9ba7522bf543ab1dd4c2f8e359c5b6332c668c7cbe337d8d7e7791bc",
    },
    "distcos-none-gasc": {
        "clean/rounds.csv": "81be30ce70812fd327031710c64f82261be315343db67d97d83655c6ca210c68",
        "clean/decisions.csv": "314b76be44eb5a8e57eb616c1457aa5a408b8b1654bb96fb5099a89db578208b",
        "attacked/rounds.csv": "81be30ce70812fd327031710c64f82261be315343db67d97d83655c6ca210c68",
        "attacked/decisions.csv": "4f388a5fb644813eff3475d4d0caac6da31fe9a27106f52499c45e51b4164be7",
        "metrics.csv": "bcbb7bdc141bbf79e2676365b39e7c643fd3be8f11e4039cdff5bc56ff5c6317",
    },
    "distmerged-mp-sh": {
        "clean/rounds.csv": "81be30ce70812fd327031710c64f82261be315343db67d97d83655c6ca210c68",
        "clean/decisions.csv": "974f4b7e304b4c1f5cef7cf8c28ba806568c330116cd9749b34bea4a4bfd7c98",
        "attacked/rounds.csv": "81be30ce70812fd327031710c64f82261be315343db67d97d83655c6ca210c68",
        "attacked/decisions.csv": "c1c98b51b95cb745db0d2495cd12eb89694e49a79d2b85143e40dec3c8eb0ccf",
        "metrics.csv": "446ed36d768d03e17347ec80100c5f86b7501a3183130465525244350b0225bc",
    },
    "fang-mp-scale-dump": {
        "clean/rounds.csv": "13a3b8a38d7aa4cd77a1eebd190d6cc86054cd3e0cc26b811c5df5db5232529c",
        "clean/decisions.csv": "00dc75f22a695d1781f0eede429385673d83ba74faf96c40001e60b9b7f12be0",
        "attacked/rounds.csv": "13a3b8a38d7aa4cd77a1eebd190d6cc86054cd3e0cc26b811c5df5db5232529c",
        "attacked/decisions.csv": "efa5ae0cc5909ae1d9c5b7eed8ed63676093dcb97e23f09a166f3ba09b8bafeb",
        "attacked/amplified.csv": "fe745f85ac91001c781f505ba067300a28797030b4e451968f5799e41eaf22f5",
        "metrics.csv": "9ec5fe29637a085c529e1ba3fba6e7b71a9bd45727d2d13bdf32efbd7b31c571",
    },
    "fang-mp-wide": {
        "clean/rounds.csv": "d111336997fd18db724c3de29a221228ed8f14b867cb220ec61623e131793a8d",
        "clean/decisions.csv": "61514b64a0b70cb5ca942366348f12cf5e701b259c83543275dad523c3f03d29",
        "attacked/rounds.csv": "d111336997fd18db724c3de29a221228ed8f14b867cb220ec61623e131793a8d",
        "attacked/decisions.csv": "4a62988dbf62239e70439b5eaa7adeec54431b26a4a6543d3538862c18f81e16",
        "metrics.csv": "1f78653246e5c117ec0fe693b8057e09f0394aed29da5fdd1c2d146257ad0d36",
    },
    "fedavg-none-lflip-gasc": {
        "clean/rounds.csv": "81be30ce70812fd327031710c64f82261be315343db67d97d83655c6ca210c68",
        "clean/decisions.csv": "18b485e6d8d14222482085559ed44e96374577a8f3c2ddf1fe4fb762ab377506",
        "attacked/rounds.csv": "3d5036f4ccf600f89f8716b9a78a7178023b5c4d0b2440926c39b97b13fae47e",
        "attacked/decisions.csv": "18b485e6d8d14222482085559ed44e96374577a8f3c2ddf1fe4fb762ab377506",
        "metrics.csv": "10d9be86610370e8d4003fc07c655ac83aa9c0b3db3552df369f26d9c703867e",
    },
    "fedavg-mp-gasc-dump": {
        "clean/rounds.csv": "81be30ce70812fd327031710c64f82261be315343db67d97d83655c6ca210c68",
        "clean/decisions.csv": "18b485e6d8d14222482085559ed44e96374577a8f3c2ddf1fe4fb762ab377506",
        "attacked/rounds.csv": "d686275d91c7bffb9e84df8b47cad6c6b467ecbc8aed6415788c87c8da039931",
        "attacked/decisions.csv": "18b485e6d8d14222482085559ed44e96374577a8f3c2ddf1fe4fb762ab377506",
        "attacked/amplified.csv": "a3e5b24a06883369b6d566dfb5fc5ddbd11352dab4b1e26e90224791f8cd04cc",
        "metrics.csv": "0e94fc5f8c4378088ecf0f1e40619c66fe4623415a0b8ede10bcdbde57810997",
    },
    "fltrust-mp-lflip": {
        "clean/rounds.csv": "47f898b1cd6e0cbfd50bdc18045e8a2ee230cc5cb8247b27ad9678c0eb90391d",
        "clean/decisions.csv": "a23c1b14c0d2c5556443708fbdc21b2c7ae04164c22bb949f3a0a8dc576e486c",
        "attacked/rounds.csv": "47f898b1cd6e0cbfd50bdc18045e8a2ee230cc5cb8247b27ad9678c0eb90391d",
        "attacked/decisions.csv": "21057a30152101ad1182cd2814b9aa8e4ef92486a7ffa53c6b47ec9ec965fa41",
        "metrics.csv": "bcb498a8dd4e66b2b9d5561953167c4a33860f47e623af94e43dd89d988e804b",
    },
    "skew-disteuc-mp-lflip-gasc": {
        "clean/rounds.csv": "b4c6229d4f46a1803159394731474af504edc8cb907a21f525e6e849a9317100",
        "clean/decisions.csv": "71a41dc64d4e96882dbef251b3c27819ba31583cc730aed13546ebc570ca542e",
        "attacked/rounds.csv": "d87aebfca06227f7d06fe77ad911e9ae7030a9b7d677228eecdb334a2c2bd324",
        "attacked/decisions.csv": "1de5d286a81a7b2d1f03d319054f4d4c9b8d907870aa53579e09ffb24f7c9575",
        "metrics.csv": "2c9160a790b83b0e7fe1aaaecf5dea3758f4561ffcee7ecd0828e702a02acbe3",
    },
    "skew-disteuc-mp-scale": {
        "clean/rounds.csv": "d6f12c0abc9b0a5b33eec73c089c1cb455a3ef1e8f44aa0af0b52684df356684",
        "clean/decisions.csv": "71a41dc64d4e96882dbef251b3c27819ba31583cc730aed13546ebc570ca542e",
        "attacked/rounds.csv": "d6f12c0abc9b0a5b33eec73c089c1cb455a3ef1e8f44aa0af0b52684df356684",
        "attacked/decisions.csv": "e4d480d51947e26b713a7e5c874021fd7153f15bf125bcfdcfaa8773a992b0ef",
        "metrics.csv": "492c999e85402513da107c872f1897c62fa6ee6b1fda9e1150277e68e3ee4312",
    },
}


def run_case(tmp_path, name):
    """sha256 per deterministic file of one pinned pair."""
    out = tmp_path / "out"
    cfg_path = tmp_path / "case.cfg"
    cfg = ExperimentConfig.from_mapping({**BASE, **CASES[name], "output.dir": str(out)})
    cfg_path.write_text(cfg.canonical_text())
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "gradamp.cli", "run-pair", str(cfg_path)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digests = {}
    for rel in FILES:
        path = out / rel
        if path.exists():
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_pair_bytes(tmp_path, name):
    digests = run_case(tmp_path, name)
    if os.environ.get("GOLDEN_PRINT"):
        print(f"\n    {name!r}: {digests!r},")
    assert ("attacked/amplified.csv" in digests) == ("output.dump_amplified_round" in CASES[name])
    assert digests == GOLDEN[name]

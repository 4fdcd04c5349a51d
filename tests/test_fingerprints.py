"""Reference fingerprints: the manifest sha256 of small runs of every preset.

A refactor that claims to change no behaviour must leave every hash below
unchanged. The hashes depend on numpy's sampler algorithms; they were taken
with numpy 2.4.6.
"""
import hashlib

import pytest

from firmgrowth import cli

# Hashes 0, 7 and 8 (the WorkersOnlyConsume runs) were restated when
# replace_extinct switched to slot sampling: same removal law, new draws.
# Hashes 5 and 9 (the Marsili runs) were restated when the Marsili step moved
# to worker labels with up-front draws: same law, new draws.
# Hashes 0, 6, 7 and 8 were restated again when allocate_market began to pick
# numpy's sampler from the urn and the goods market joined the goods rounding
# stream; each restated hash names its own reason below.
FINGERPRINTS = [
    # Goods urns of about 50 firms take numpy's "count" sampler, from the goods stream.
    ("--preset ScenarioII --n-firms 50 --n-workers 2000 --iterations 120 --seeds 9 "
     "--snapshot-times 60,120",
     "6727d7fb825daf707a379a659590f3455754532db849349c34a6f020f1d9b08b"),
    ("--preset ScenarioI --n-firms 200 --n-workers 20000 --iterations 200 --seeds 1,2",
     "214ae93334de57dbd6c5f7d1efce63886454129558686e063e677e5747406f7a"),
    ("--preset Additive --n-units 200 --n-workers 20000 --iterations 200 --seeds 3 "
     "--snapshot-times 100,200",
     "e96053869d31e503d456803b9e42c9c5006c95a4bf5eb8e83b20ffff62060ed7"),
    ("--preset Multiplicative --n-units 300 --n-workers 15000 --iterations 200 --seeds 3 "
     "--snapshot-times 100,200",
     "1af1cddf3cbb5752cb1f65d8fd0ccdf133b91b2862d50cb113f4c90f207ef372"),
    ("--preset ScaledBeta --n-units 300 --n-workers 30000 --iterations 200 --seeds 3 "
     "--snapshot-times 100,200",
     "1c429d2fffd386cd3612aa07e3b14ebfecf1706c995ef3252d743285f758024d"),
    ("--preset MarsiliSequential --n-units 50 --n-workers 2000 --iterations 40 --seeds 3 "
     "--snapshot-times 20,40",
     "221935e4b87fbec8f7bea7785872a752bb86e798cb4ca28a7c11d24057f566ce"),
    # Its job urn (100 firms, about 5,500 offers for 5,000 workers) takes "count".
    ("--preset Custom --seeds 4",
     "55e2e9f35c113a505bc267296b9aa9600dd001d9a63dc309a6e052361d30a75b"),
    # Binomial goods market: its draws now follow the goods rounding on one stream.
    ("--preset Custom --scenario WorkersOnlyConsume --allocation IndependentBinomial "
     "--seeds 4",
     "d1b1ed21f94b295f8353b678125a156495317a0a726f2976813d98450171d8e8"),
    # Goods urns take "count", from the goods stream.
    ("--preset Custom --scenario WorkersOnlyConsume --rounding PerUnit --seeds 4",
     "a67f06f0aa61dbf0fe3708df279df2ce267f85b993587a85a136327b06ff1262"),
    # 400 moves per iteration across 200 cities of 2 workers: refills and their
    # donor draws run about 30 times per step.
    ("--preset MarsiliSequential --n-units 200 --n-workers 400 --move-fraction 1 "
     "--iterations 30 --seeds 1,2 --snapshot-times 15,30",
     "773b6bb0a964237a9c92e8df94f7b1acde181ec2bcf1b2404c779d5eed51e90d"),
    # Wage above price: job offers s * p / w are fractional and drawn from the
    # offer stream, where p == w gives whole offers without a draw.
    ("--preset Custom --scenario WorkersOnlyConsume --wage 1.3 --price 0.9 --seeds 4",
     "39c32adf9a9b700d25cbfb004e580dd22d9471a954f4531e05b2bcd622f4d419"),
]


@pytest.mark.parametrize("args,expected", FINGERPRINTS,
                         ids=[f"{i}-{args.split()[1]}" for i, (args, _) in enumerate(FINGERPRINTS)])
def test_manifest_fingerprint(args, expected, tmp_path, capsys):
    assert cli.main(["run", *args.split(), "-o", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "manifest.csv").read_bytes()).hexdigest()
    assert digest == expected

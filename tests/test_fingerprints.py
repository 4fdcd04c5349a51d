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
# All eleven were restated when binned_sigma.csv dropped its per-size-bin tent
# slope column: no draw changed, and every other output file kept its sha256.
# Hashes 1, 6, 7, 8 and 10 were restated when the job market began to draw in
# two fixed blocks of firms and per-unit doubling began to draw a Binomial
# total spread as a uniform subset: same laws, new draws. Each names its
# reason below; scripts/diff_manifests.py showed only the snapshot and
# growth files changed, never a config row.
FINGERPRINTS = [
    # Goods urns of about 50 firms take numpy's "count" sampler, from the goods stream.
    ("--preset ScenarioII --n-firms 50 --n-workers 2000 --iterations 120 --seeds 9 "
     "--snapshot-times 60,120",
     "c124a4fcc17299fd50838298263183853c19d030bc93c55e366a9b10a1b60c66"),
    # Per-unit doubling and the job market, drawn per block.
    ("--preset ScenarioI --n-firms 200 --n-workers 20000 --iterations 200 --seeds 1,2",
     "672084cc8bb81bd022ef20a9fc4c0f1e88115b099da731f50d2e3285e98f2257"),
    ("--preset Additive --n-units 200 --n-workers 20000 --iterations 200 --seeds 3 "
     "--snapshot-times 100,200",
     "e258d2cf0c464e98726a8722026f13ed36efb9fe4fc3674aa06735ceeaca87c5"),
    ("--preset Multiplicative --n-units 300 --n-workers 15000 --iterations 200 --seeds 3 "
     "--snapshot-times 100,200",
     "8f586592842d1161395db2ff0fb023acbc3be4f63af6c22f96bbfdf221575b2d"),
    ("--preset ScaledBeta --n-units 300 --n-workers 30000 --iterations 200 --seeds 3 "
     "--snapshot-times 100,200",
     "9ba161907c2bc3f99201e7f962714e04c0c6866f8cab1fdbe5ce642c5a5dd19b"),
    ("--preset MarsiliSequential --n-units 50 --n-workers 2000 --iterations 40 --seeds 3 "
     "--snapshot-times 20,40",
     "57de64acc84c1ed60f38965a0150879bee05529a743c9233555a9bbcf3da87ec"),
    # Its job market (100 firms, about 5,500 offers for 5,000 workers) splits
    # the workers over two blocks of 50 firms, whose urns take "count".
    ("--preset Custom --seeds 4",
     "054dad619727ed570fd4072e39abed9651bceb57450eb09374287829ce740e18"),
    # Binomial goods market: its draws now follow the goods rounding on one stream.
    # Its job market binds in 26 of 500 iterations, and is drawn per block.
    ("--preset Custom --scenario WorkersOnlyConsume --allocation IndependentBinomial "
     "--seeds 4",
     "494f9f457206a953f0e93dd0bb949fcc270fafa23b913911329ea8eb5d29edf1"),
    # Goods urns take "count", from the goods stream. Per-unit plans, and a job
    # market that binds in 9 of 500 iterations, drawn per block.
    ("--preset Custom --scenario WorkersOnlyConsume --rounding PerUnit --seeds 4",
     "ed321a207446fa8ca65e664cad6cf1487c10c63cf5e08ea050d78558607b8de8"),
    # 400 moves per iteration across 200 cities of 2 workers: refills and their
    # donor draws run about 100 times per step. Restated when a refill began
    # to draw its donors from the other cities of at least two workers, in
    # batches of twice the entrant count. No city is left empty (138 of 200
    # were at t = 30, seed 1), and the largest city holds 8-15 workers where
    # it held 23-47, so too few cities reach size 10 for the tail fit or a
    # dispersion bin: neither seed writes fit.csv or binned_sigma.csv any
    # more, and every other file changed.
    ("--preset MarsiliSequential --n-units 200 --n-workers 400 --move-fraction 1 "
     "--iterations 30 --seeds 1,2 --snapshot-times 15,30",
     "5e8c44815fe9b608cf2e11b3cf7e6b3a2afe7d74ef098867df035aa1b88bcda7"),
    # Wage above price: job offers s * p / w are fractional and drawn from the
    # offer stream, where p == w gives whole offers without a draw. Its job
    # market binds in 36 of 500 iterations, and is drawn per block.
    ("--preset Custom --scenario WorkersOnlyConsume --wage 1.3 --price 0.9 --seeds 4",
     "5fb4e9c5fbe71367a345646fac3b4e8d29a310823a751a1b5db6a32b4d379907"),
]


@pytest.mark.parametrize("args,expected", FINGERPRINTS,
                         ids=[f"{i}-{args.split()[1]}" for i, (args, _) in enumerate(FINGERPRINTS)])
def test_manifest_fingerprint(args, expected, tmp_path, capsys):
    assert cli.main(["run", *args.split(), "-o", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "manifest.csv").read_bytes()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("args,expected", FINGERPRINTS,
                         ids=[f"{i}-{args.split()[1]}" for i, (args, _) in enumerate(FINGERPRINTS)])
def test_manifest_fingerprint_with_forked_outputs(args, expected, forked_outputs, tmp_path,
                                                  capsys):
    # every seed's outputs written by a forked child: the same bytes
    test_manifest_fingerprint(args, expected, tmp_path, capsys)
    assert len(forked_outputs) == len(list(tmp_path.glob("seed_*"))) > 0

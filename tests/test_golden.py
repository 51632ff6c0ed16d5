"""Golden bytes: sha256 digests of pipeline artifacts and colorer output,
recorded from a known-good build.

Reruns of one build are compared byte for byte by the acceptance suite;
these digests pin the bytes across code changes.  A change that is meant
to alter artifacts must say why and re-record the digests here.

The three ``sparsity.json`` digests were re-recorded when the sweep's
locality cross-check gave way to the stage-bound check: the summary's
``cross_check`` and ``cells_checked`` fields became one ``stage_bound``
field, and every other byte of every artifact stayed the same.
"""

import hashlib

import pytest

from lllcolor.cli import main
from lllcolor.colorer import color_prefix
from lllcolor.streams import ConstraintStream, gen_sets_stream

PIPELINES = {
    "comp-sum-s7": (
        ["run", "--mode", "comp", "--f", "sum", "--seed", "7",
         "--horizon", "2048", "--members", "12"],
        {
            "config.json": "d8416841d6c73afda8352c3eb6fe093104c87e2e4d840ef008692e81bb7cb9e3",
            "family.txt": "24bc23af55ae94a587fc4201defc8e326678f1fb94fd58fa4ce0694086f51fd2",
            "stream.txt": "8edd093c6e462d07fdd642442e10104441f14136a4700c7d4368797c7fe82453",
            "sparsity.csv": "05518e87ceb9837cf60362cf481fb354c782b1fdcf7340ba3913c45917ea0823",
            "sparsity.json": "39c3cc29850a660068a92fe2b82defaccae6e4300d2764959f88edf1492a5982",
            "coloring.txt": "6e8894026ffd559f479e1b1ed551c842c7490c0bc779f80fa20ad8efdd2ad5b1",
            "audit.json": "5d251b01c20d43b1410bd928690ef0ef3fdb828e00755a9d193e1620ced7c063",
        },
    ),
    "main-absdiff-s9": (
        ["run", "--mode", "main", "--f", "absdiff", "--seed", "9",
         "--horizon", "2048", "--members", "4"],
        {
            "config.json": "866432f0e52200a87f575c2fbdcbddd9d46aed5551bfe48b10371083eff88985",
            "family.txt": "354d7a4e6fbb8dbb171630380839c56f01a8cca67fa9c3b8ef454090fddd2f69",
            "stream.txt": "589fd55e2c3e54f841b105df71699069864465416093a4725e1d67e9aef62f9d",
            "sparsity.csv": "4cf8c9d9374e91dd0ac3900298f3e78a04e4d2d3067ae04956cd2c45ec6c54e4",
            "sparsity.json": "d435e83202607acf54cf5d4fccbc4a466d89cd01ac85cf68b772b376911188b1",
            "coloring.txt": "dcfe5a73f7c3fb31da16d3474979ce89b3b66020ef06a758b35863d7b9fdf332",
            "audit.json": "ae2dbba66672e0e23bb28742c24582a475c3e76b0c68382b3aab4d330db53e07",
        },
    ),
    # a non-default q goes through config.json and the audit
    "comp-sum-s7-q2_5": (
        ["run", "--mode", "comp", "--f", "sum", "--seed", "7",
         "--horizon", "2048", "--members", "12", "--q", "2/5"],
        {
            "config.json": "cbf65a10ff773f5414a41b5bea68e8d2db174ea7da1df7fe3b2dedc7a6dc66ba",
            "family.txt": "7e9d18a2a4ecb69754dec1521ee3df083749eb63a451646f2ac6032a140744d7",
            "stream.txt": "351c5ac104c47f2520ef8163e302271a818396112da0baaa491a8507a48acd5c",
            "sparsity.csv": "44639d4ef3489c44169290bc1f70cc2f1f0d2c6b753e62cb183166c7b030526f",
            "sparsity.json": "d1b22a751ead8be35f01e9153a4d654c954a5957e8ca34d44c13b4ea9ef232ec",
            "coloring.txt": "49491766e90293cdc340d90b46d8bc71daf014c5d63701bd07bb4e8f06ce6294",
            "audit.json": "f3c76d2fa896bfd1229c79542ac966bdfd66afdc48afff7f867c26175f2f4abb",
        },
    ),
}

EXPANDED_SETS_BITS = "fcdce5371e7c9b804fbfd151a53f9efe9259602e96a6eb8a4ac27fe2927f24b4"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_sets() -> ConstraintStream:
    """Short, overlapping 4- to 6-position sets: a random start leaves many
    of them constant, so the bits depend on the restricted events the
    resampler is handed, not only on its first samples."""
    return gen_sets_stream(5, 150, 512, 4, spread=2)


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_artifacts(name, tmp_path):
    argv, digests = PIPELINES[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    got = {f: sha256((tmp_path / f).read_bytes()) for f in digests}
    assert got == digests


def test_expanded_sets_coloring():
    col = color_prefix(golden_sets(), 512, 7)
    assert sha256(col.bits.encode("ascii")) == EXPANDED_SETS_BITS

"""Golden CSV output: fixed command lines must keep producing the same bytes.

The digests were recorded before the per-algorithm pivot loops were merged
into one engine, and the n = 10 ones before the exact optimum moved from
set-partition enumeration to a subset DP; any change to RNG consumption,
pivot order, query order, the exact optimum's tie-break or number formatting
shows up here.
"""

import hashlib

import pytest

from noisycc.cli import main

INSTANCES = {
    "n6": ["--kind", "planted", "--n", "6", "--k", "2", "--q", "0.15",
           "--in-mean", "0.8", "--out-mean", "0.2", "--seed", "3"],
    "n15": ["--kind", "planted", "--n", "15", "--k", "3", "--q", "0.1",
            "--in-mean", "0.8", "--out-mean", "0.2", "--seed", "4"],
    # Four partitions tie for the optimum.  With two pulls per pair the
    # estimates lie in {0, 0.5, 1}, so uniform-fb's exact solve breaks ties too.
    "n10": ["--kind", "planted", "--n", "10", "--k", "3", "--q", "0.1",
            "--in-mean", "0.9", "--out-mean", "0.1", "--seed", "0"],
}

FC = ["--epsilon", "1.0", "--delta", "0.1"]

CASES = {
    "kcfc-n6": ("n6", ["--algo", "kcfc", *FC, "--trials", "3", "--mc-replays", "20",
                       "--seed", "1"]),
    "kcfc-seq-n6": ("n6", ["--algo", "kcfc-seq", *FC, "--trials", "3",
                           "--mc-replays", "20", "--seed", "1"]),
    "kcfb-n6": ("n6", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "300",
                       "--trials", "3", "--mc-replays", "20", "--seed", "2",
                       "--noise", "gaussian", "--sigma", "0.3"]),
    "uniform-fc-n6": ("n6", ["--algo", "uniform-fc", "--epsilon", "3.0", "--delta", "0.3",
                             "--trials", "2", "--seed", "3"]),
    "uniform-fb-n6": ("n6", ["--algo", "uniform-fb", "--epsilon", "1.0", "--budget", "150",
                             "--trials", "3", "--mc-replays", "20", "--seed", "4",
                             "--solver", "kwik_restarts", "--restarts", "5"]),
    "kcfc-seq-n15": ("n15", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                             "--mc-replays", "10", "--seed", "5",
                             "--solver", "kwik_restarts"]),
    "kcfb-n15": ("n15", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "2100",
                         "--trials", "3", "--mc-replays", "20", "--seed", "6",
                         "--solver", "kwik_restarts"]),
    "uniform-fb-exact-n10": ("n10", ["--algo", "uniform-fb", "--epsilon", "1.0",
                                     "--budget", "90", "--trials", "3", "--mc-replays", "20",
                                     "--seed", "7", "--solver", "exact"]),
    "kcfb-n10": ("n10", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "4500",
                         "--trials", "3", "--mc-replays", "20", "--seed", "8"]),
}

EXPECTED_SHA256 = {
    "kcfb-n10": "bd2c68213a1cdc12cb494586364e572ca2791f4e72f645b8947082d006bb739c",
    "kcfb-n15": "00b206419a011ba01323359610c420d0c4e4a66e581fa35750819119400d4e8a",
    "kcfb-n6": "54123592fdb3669f7724243cb3009118c0f8ef268dbf2c5612a696da84b197a2",
    "kcfc-n6": "b4e821c9d90e61ea5fdf194b83bbac1214e261a059e63cfed627ae95616f5554",
    "kcfc-seq-n15": "2e3938e90878f8db89348e81d3bd94992849c9d5def98c93d4a3aea9ba7986af",
    "kcfc-seq-n6": "b6d48e3b69444dac5ed6290dcc95aed1bef251dd3e4b154d451c00eccde1b7f3",
    "uniform-fb-exact-n10": "793bcb5ea2100dfc9beec30105ad44752c3949e3afd399c510f117844574dcf7",
    "uniform-fb-n6": "09ca06130abb47343e08d6968f87973c82252b980a128721568174cc162182fe",
    "uniform-fc-n6": "75cec1d326784ffac32ce6c5b731e18c3296910f67e4e45ab0c045bce211953e",
}


@pytest.fixture(scope="module")
def instance_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in INSTANCES.items():
        paths[name] = root / f"{name}.json"
        assert main(["gen", *argv, "--out", str(paths[name])]) == 0
    return paths


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_bytes_pinned(case, instance_paths, tmp_path):
    instance, argv = CASES[case]
    out = tmp_path / "out.csv"
    assert main(["run", *argv, "--instance", str(instance_paths[instance]),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED_SHA256[case]

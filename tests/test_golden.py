"""Golden CSV output: fixed command lines must keep producing the same bytes.

The digests were recorded before the per-algorithm pivot loops were merged
into one engine, the n = 10 ones before the exact optimum moved from
set-partition enumeration to a subset DP, and the two at 500 replays before
replayed pivot phases were memoised, and the two Gaussian bandit cases
(``*-gauss-n6``, the first that ran the threshold bandit on a float tape;
``kcfc-gauss-n64`` and ``kcfc-seq-gauss-n70`` below do too) before the
bandit read its running means from the tape's table, and
the two Bernoulli ones at n = 70 (m = 2,415, a tape too large for the table, so
every running mean is folded from the tape's individual rewards) before
those rewards were read as float64 arrays in place of lists of floats, and
``kcfc-n64`` (planted n = 64, m = 2,016, the largest tape that keeps the
table) before the table's rewards were drawn a block of pairs at a time and the
bandit's first pulls read from its row 0, and ``kcfc-gauss-n64`` (a Gaussian
table of 16 fill blocks on the same instance) before the table's Gaussian
rewards were drawn pair by pair in place of blocks of pairs, and
``kcfb-pieces-u8`` (similarities within 0.001 of 0.5, so that its votes
depend on the rewards, read from tapes of more than 65,536 rewards, which
grow in pieces and are counted unpacked) before a tape's growth was joined
to it in one concatenate, and ``kcfc-seq-gauss-n70`` (the n = 70 instance on
Gaussian rewards: the one command line on which a float tape keeps no table,
so every running mean is folded from float rewards) before one tape class
with a branch per reward kind was split into a bit tape and a float tape,
and ``uniform-fb-exact-n13`` and ``kcfb-n13`` (the first whose exact
optimum splits the DP's top bits) before the DP's min-plus convolutions
became gathers through cached split indices, and ``kcfc-n30`` and
``kcfc-seq-n30`` (the benchmark's ``bandit-mid`` shape, planted n = 30 at
100 and 10 replays, many of whose bandit runs went on for 128 rounds, the
most one read then held) before a bandit run read on as far as the tape's
table holds its arms' means, and ``kcfc-seq-gauss-n30`` (the same instance
on Gaussian rewards, whose bandit reads a float tape's table) before a run
read its arms' columns of the table and the radius memo as strided views,
and ``kcfc-near-n10`` and ``kcfc-seq-near-n10`` (similarities 0.56 and
0.44, near the threshold, so that many bandit runs read past the table's
512 means, some of them from a column that held fewer than 128) before a
run read only as far as its columns hold and folded the rest off the tape
in a run of its own;
any change to RNG consumption,
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
    "n70": ["--kind", "planted", "--n", "70", "--k", "5", "--q", "0.1",
            "--in-mean", "0.8", "--out-mean", "0.2", "--seed", "13"],
    "n64": ["--kind", "planted", "--n", "64", "--k", "4", "--q", "0.1",
            "--in-mean", "0.8", "--out-mean", "0.2", "--seed", "16"],
    "u8": ["--kind", "uniform_random", "--n", "8", "--lo", "0.499", "--hi", "0.501",
           "--seed", "21"],
    # The largest instance exact OPT solves: its widest min-plus convolutions
    # split their top bits before the gathers.  At two pulls per pair
    # uniform-fb's estimates lie in {0, 0.5, 1}, and its exact solve walks ties.
    "n13": ["--kind", "planted", "--n", "13", "--k", "3", "--q", "0.1",
            "--in-mean", "0.9", "--out-mean", "0.1", "--seed", "5"],
    # The benchmark's bandit-mid shape: similarities 0.3 and 0.7, which the
    # bandit settles in a few hundred pulls, mostly within the table's 512.
    "n30": ["--kind", "planted", "--n", "30", "--k", "4", "--q", "0.1",
            "--in-mean", "0.7", "--out-mean", "0.3", "--seed", "23"],
    # Similarities 0.56 and 0.44: the bandit pulls most arms past the table.
    "near10": ["--kind", "planted", "--n", "10", "--k", "3", "--q", "0.1",
               "--in-mean", "0.56", "--out-mean", "0.44", "--seed", "2"],
}

FC = ["--epsilon", "1.0", "--delta", "0.1"]
GAUSS = ["--noise", "gaussian", "--sigma", "0.3"]

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
    # The default 500 replays, at which replay phases repeat within a trial.
    "kcfb-n10-r500": ("n10", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "4500",
                              "--trials", "3", "--seed", "9"]),
    "kcfc-seq-n10-r500": ("n10", ["--algo", "kcfc-seq", *FC, "--trials", "2", "--seed", "10"]),
    "kcfc-gauss-n6": ("n6", ["--algo", "kcfc", *FC, *GAUSS, "--trials", "3",
                             "--mc-replays", "20", "--seed", "11"]),
    "kcfc-seq-gauss-n6": ("n6", ["--algo", "kcfc-seq", *FC, *GAUSS, "--trials", "3",
                                 "--mc-replays", "20", "--seed", "12"]),
    "kcfc-n70": ("n70", ["--algo", "kcfc", *FC, "--trials", "2", "--mc-replays", "10",
                         "--seed", "14", "--solver", "kwik_restarts"]),
    "kcfc-seq-n70": ("n70", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                             "--mc-replays", "10", "--seed", "15",
                             "--solver", "kwik_restarts"]),
    "kcfc-n64": ("n64", ["--algo", "kcfc", *FC, "--trials", "2", "--mc-replays", "10",
                         "--seed", "17", "--solver", "kwik_restarts"]),
    "kcfc-gauss-n64": ("n64", ["--algo", "kcfc", *FC, *GAUSS, "--trials", "2",
                               "--mc-replays", "10", "--seed", "18",
                               "--solver", "kwik_restarts"]),
    "kcfc-seq-gauss-n70": ("n70", ["--algo", "kcfc-seq", *FC, *GAUSS, "--trials", "2",
                                   "--mc-replays", "10", "--seed", "20",
                                   "--solver", "kwik_restarts"]),
    "kcfb-pieces-u8": ("u8", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "5600000",
                              "--trials", "3", "--mc-replays", "20", "--seed", "19"]),
    "uniform-fb-exact-n13": ("n13", ["--algo", "uniform-fb", "--epsilon", "1.0",
                                     "--budget", "156", "--trials", "3", "--mc-replays", "20",
                                     "--seed", "21", "--solver", "exact"]),
    "kcfb-n13": ("n13", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "7800",
                         "--trials", "3", "--mc-replays", "20", "--seed", "22"]),
    "kcfc-n30": ("n30", ["--algo", "kcfc", *FC, "--trials", "2", "--mc-replays", "100",
                         "--seed", "24", "--solver", "kwik_restarts"]),
    "kcfc-seq-n30": ("n30", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                             "--mc-replays", "10", "--seed", "25",
                             "--solver", "kwik_restarts"]),
    "kcfc-seq-gauss-n30": ("n30", ["--algo", "kcfc-seq", *FC, *GAUSS, "--trials", "2",
                                   "--mc-replays", "10", "--seed", "26",
                                   "--solver", "kwik_restarts"]),
    "kcfc-near-n10": ("near10", ["--algo", "kcfc", *FC, "--trials", "2",
                                 "--mc-replays", "50", "--seed", "5"]),
    "kcfc-seq-near-n10": ("near10", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                                     "--mc-replays", "50", "--seed", "5"]),
}

EXPECTED_SHA256 = {
    "kcfb-n10": "bd2c68213a1cdc12cb494586364e572ca2791f4e72f645b8947082d006bb739c",
    "kcfb-n10-r500": "f4d4e0ca0b38844729d88d9c75e654b00c7227a0ffdfee346f67a6cdfc53058c",
    "kcfb-n15": "00b206419a011ba01323359610c420d0c4e4a66e581fa35750819119400d4e8a",
    "kcfb-pieces-u8": "82f160b32c934d0d24737282dee4c7cf7f3258a4ce1e4646e141bc8e700953d9",
    "kcfb-n6": "54123592fdb3669f7724243cb3009118c0f8ef268dbf2c5612a696da84b197a2",
    "kcfb-n13": "e67d4e55cade7b17b23f4aaf8e9775b171f5ff6b9c673e98f734aa35b7ac8461",
    "kcfc-gauss-n64": "281e38a7e0053cb41b0eec1c541f0fb78debc5c97d628335d77c40b7795e6c77",
    "kcfc-gauss-n6": "0f3cc7ff236f404ebb257ae8cde04ff81ea8394c2f618d3d7105bb9540fc9ac0",
    "kcfc-n70": "1c7ae3d83b767354f3395c5c50d3d947708e9786f19946441c4cf53384970e81",
    "kcfc-n64": "ed0e66ff49a9fa8a640f01ba273da84cb58f29b432e5c8b6d385fde9a1fce8d4",
    "kcfc-n30": "4c1da4ac03cff00cca4f2303fabcd00ad95afb8cdcee734b727a6465862bde2c",
    "kcfc-near-n10": "b81bacbab7f2ed6150699ed2947fdaac1ee0fc282b0cfa36d1bdf8a4e6c1c9c9",
    "kcfc-n6": "b4e821c9d90e61ea5fdf194b83bbac1214e261a059e63cfed627ae95616f5554",
    "kcfc-seq-n15": "2e3938e90878f8db89348e81d3bd94992849c9d5def98c93d4a3aea9ba7986af",
    "kcfc-seq-n10-r500": "26a5a8db61273b3a8a94612138790dab0876ae025e2efc39e999c2b4d490b4b3",
    "kcfc-seq-gauss-n70": "1d6adf033f1de047b0e6de60424a56832c8d7bbdeac0b9d9c95c6b560175b78f",
    "kcfc-seq-gauss-n30": "8d2a13e6bdd1b4383d52d2a39c9146f111a82605466623d36f55c852bbbc10fd",
    "kcfc-seq-gauss-n6": "72ae0fc5c6c3f51d0be18dd486a1c40f8e49f707ba300c14c26985a0e08acfe0",
    "kcfc-seq-n70": "109e497df4edf8b11ae02fd4ef8863200579385db016713584e27965b9a3ce90",
    "kcfc-seq-n30": "fc57f29ce949e5c32917b8ce78714a5a671dbbe2487e5e8c5d78191676a4f4ae",
    "kcfc-seq-near-n10": "02d8e8ff4a16df04fa097e6ff07c73c5917aabd4d7e538407cbadffd4f124226",
    "kcfc-seq-n6": "b6d48e3b69444dac5ed6290dcc95aed1bef251dd3e4b154d451c00eccde1b7f3",
    "uniform-fb-exact-n10": "793bcb5ea2100dfc9beec30105ad44752c3949e3afd399c510f117844574dcf7",
    "uniform-fb-exact-n13": "8a7c011c020be2700fca199b94f6f4167796b9110a15f30eae07419285d88109",
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

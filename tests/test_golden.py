"""Golden CSV output: fixed command lines must keep producing the same bytes.

Each digest was recorded before a change to the code its case runs, and no
digest is edited: any change to RNG consumption, pivot order, query order,
the exact optimum's tie-break or number formatting shows up here.  A
comment above each group of cases says what it covers; CHANGES.md tells
which change each digest was recorded before.
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
    # Each algorithm's pivot loop on a small instance; kcfb on a float tape.
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
    # The kwik_restarts solver, whose restarts are pivot loops too.
    "kcfc-seq-n15": ("n15", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                             "--mc-replays", "10", "--seed", "5",
                             "--solver", "kwik_restarts"]),
    "kcfb-n15": ("n15", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "2100",
                         "--trials", "3", "--mc-replays", "20", "--seed", "6",
                         "--solver", "kwik_restarts"]),
    # Exact OPT's subset DP; four partitions tie, and so do uniform-fb's estimates.
    "uniform-fb-exact-n10": ("n10", ["--algo", "uniform-fb", "--epsilon", "1.0",
                                     "--budget", "90", "--trials", "3", "--mc-replays", "20",
                                     "--seed", "7", "--solver", "exact"]),
    "kcfb-n10": ("n10", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "4500",
                         "--trials", "3", "--mc-replays", "20", "--seed", "8"]),
    # The default 500 replays, at which replay phases repeat within a trial.
    "kcfb-n10-r500": ("n10", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "4500",
                              "--trials", "3", "--seed", "9"]),
    "kcfc-seq-n10-r500": ("n10", ["--algo", "kcfc-seq", *FC, "--trials", "2", "--seed", "10"]),
    # The threshold bandit on a float tape.
    "kcfc-gauss-n6": ("n6", ["--algo", "kcfc", *FC, *GAUSS, "--trials", "3",
                             "--mc-replays", "20", "--seed", "11"]),
    "kcfc-seq-gauss-n6": ("n6", ["--algo", "kcfc-seq", *FC, *GAUSS, "--trials", "3",
                                 "--mc-replays", "20", "--seed", "12"]),
    # m = 2,415, too many pairs for the table: every running mean is folded
    # from the tape's rewards.
    "kcfc-n70": ("n70", ["--algo", "kcfc", *FC, "--trials", "2", "--mc-replays", "10",
                         "--seed", "14", "--solver", "kwik_restarts"]),
    "kcfc-seq-n70": ("n70", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                             "--mc-replays", "10", "--seed", "15",
                             "--solver", "kwik_restarts"]),
    # m = 2,016, the largest tape that keeps the table, of bits and of floats.
    "kcfc-n64": ("n64", ["--algo", "kcfc", *FC, "--trials", "2", "--mc-replays", "10",
                         "--seed", "17", "--solver", "kwik_restarts"]),
    "kcfc-gauss-n64": ("n64", ["--algo", "kcfc", *FC, *GAUSS, "--trials", "2",
                               "--mc-replays", "10", "--seed", "18",
                               "--solver", "kwik_restarts"]),
    # A float tape that keeps no table: every mean is folded from float rewards.
    "kcfc-seq-gauss-n70": ("n70", ["--algo", "kcfc-seq", *FC, *GAUSS, "--trials", "2",
                                   "--mc-replays", "10", "--seed", "20",
                                   "--solver", "kwik_restarts"]),
    # Similarities within 0.001 of 0.5: votes read tapes of more than 65,536
    # rewards, which grow in pieces and are counted unpacked.
    "kcfb-pieces-u8": ("u8", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "5600000",
                              "--trials", "3", "--mc-replays", "20", "--seed", "19"]),
    # The largest instance exact OPT solves, whose DP splits its top bits.
    "uniform-fb-exact-n13": ("n13", ["--algo", "uniform-fb", "--epsilon", "1.0",
                                     "--budget", "156", "--trials", "3", "--mc-replays", "20",
                                     "--seed", "21", "--solver", "exact"]),
    "kcfb-n13": ("n13", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "7800",
                         "--trials", "3", "--mc-replays", "20", "--seed", "22"]),
    # The benchmark's bandit-mid shape, whose bandit runs read the table, on
    # bits and on floats.
    "kcfc-n30": ("n30", ["--algo", "kcfc", *FC, "--trials", "2", "--mc-replays", "100",
                         "--seed", "24", "--solver", "kwik_restarts"]),
    "kcfc-seq-n30": ("n30", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                             "--mc-replays", "10", "--seed", "25",
                             "--solver", "kwik_restarts"]),
    "kcfc-seq-gauss-n30": ("n30", ["--algo", "kcfc-seq", *FC, *GAUSS, "--trials", "2",
                                   "--mc-replays", "10", "--seed", "26",
                                   "--solver", "kwik_restarts"]),
    # Near the threshold: bandit runs read past the table and fold the rest.
    "kcfc-near-n10": ("near10", ["--algo", "kcfc", *FC, "--trials", "2",
                                 "--mc-replays", "50", "--seed", "5"]),
    "kcfc-seq-near-n10": ("near10", ["--algo", "kcfc-seq", *FC, "--trials", "2",
                                     "--mc-replays", "50", "--seed", "5"]),
    # A uniform baseline's float sums, divided by the pull count, solved by
    # kwik_restarts (20 replays: the 500 of the default take seconds).
    "uniform-fb-gauss-n10": ("n10", ["--algo", "uniform-fb", "--epsilon", "1.0",
                                     "--budget", "4500", *GAUSS, "--trials", "3",
                                     "--mc-replays", "20", "--seed", "1",
                                     "--solver", "kwik_restarts"]),
    # The bandit's and kcfb's reads of a float tape at the default 500 replays.
    "kcfc-gauss-n10": ("n10", ["--algo", "kcfc", *FC, *GAUSS, "--trials", "3", "--seed", "1"]),
    "kcfc-seq-gauss-n10": ("n10", ["--algo", "kcfc-seq", *FC, *GAUSS, "--trials", "3",
                                   "--seed", "1"]),
    "kcfb-gauss-n10": ("n10", ["--algo", "kcfb", "--epsilon", "1.0", "--budget", "4500",
                               *GAUSS, "--trials", "3", "--seed", "1"]),
    # The largest sigma accepted, through exact OPT's sums.
    "uniform-fb-exact-max-sigma-n13": ("n13", ["--algo", "uniform-fb", "--epsilon", "1.0",
                                               "--budget", "156", "--noise", "gaussian",
                                               "--sigma", "1e100", "--trials", "3",
                                               "--mc-replays", "20", "--seed", "1",
                                               "--solver", "exact"]),
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
    "uniform-fb-gauss-n10": "7c3fdc0f93bfad01003178e8f33c74bce4465e62926935dab73fa3fe19d6dee7",
    "kcfc-gauss-n10": "a82863e25c5b9c7ad0a9eee50652839374d08f0eafb21ffb6b23046d5840d50f",
    "kcfc-seq-gauss-n10": "0d0a541ba78480ee1e7709046d25aa414bfaf2674a415af3f6511c3a89f4f42c",
    "kcfb-gauss-n10": "cfd5306206f68acfb7c37ac706e60db7e6871669ea6df0b11bc98a5c07d62e2d",
    "uniform-fb-exact-max-sigma-n13":
        "e47afbdd6f6ca6ec252178b1c47e78a12d3dcef619fba45e31dc1a8e7c890230",
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

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycc import (
    GeneratorSpec,
    Instance,
    InvalidPairError,
    InvalidSpecError,
    generate,
    load_instance,
    num_pairs,
    pair_index,
    pair_of,
    save_instance,
)
from noisycc.instance import incident_pairs, pair_endpoints, to_json


class TestPairIndexing:
    def test_forced_examples(self):
        assert pair_index(0, 1, 4) == 0
        assert pair_index(2, 3, 4) == 5

    def test_derived_by_enumeration(self):
        # Independent oracle: enumerate all pairs of n=4 lexicographically.
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert pairs.index((1, 3)) == 4
        assert pair_index(1, 3, 4) == 4
        assert pair_of(4, 4) == (1, 3)

    def test_inverse_examples(self):
        assert pair_of(0, 4) == (0, 1)
        assert pair_of(5, 4) == (2, 3)

    def test_round_trip_exhaustive(self):
        for n in range(1, 65):
            e = 0
            for u in range(n):
                for v in range(u + 1, n):
                    assert pair_index(u, v, n) == e
                    assert pair_of(e, n) == (u, v)
                    e += 1
            assert e == num_pairs(n)

    @given(st.integers(2, 200), st.data())
    def test_round_trip_random(self, n, data):
        u = data.draw(st.integers(0, n - 2))
        v = data.draw(st.integers(u + 1, n - 1))
        assert pair_of(pair_index(u, v, n), n) == (u, v)

    def test_vectorised_helpers_match_pair_index(self):
        for n in range(1, 16):
            us, vs = pair_endpoints(n)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            assert list(zip(us.tolist(), vs.tolist())) == pairs
            for p in range(n):
                others = np.array([u for u in range(n) if u != p], dtype=np.int64)
                expected = [pair_index(min(p, u), max(p, u), n) for u in others.tolist()]
                assert incident_pairs(p, others, n).tolist() == expected

    def test_invalid_pairs(self):
        with pytest.raises(InvalidPairError):
            pair_index(2, 2, 4)
        with pytest.raises(InvalidPairError):
            pair_index(3, 1, 4)
        with pytest.raises(InvalidPairError):
            pair_index(0, 4, 4)
        with pytest.raises(InvalidPairError):
            pair_of(6, 4)
        with pytest.raises(InvalidPairError):
            pair_of(-1, 4)


class TestInstance:
    def test_valid(self):
        inst = Instance(3, [0.1, 0.5, 1.0])
        assert inst.m == 3
        assert inst.similarity(2, 0) == 0.5
        assert inst.similarity(2, 1) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidSpecError):
            Instance(3, [0.1, 0.5])

    def test_out_of_range(self):
        with pytest.raises(InvalidSpecError):
            Instance(2, [1.5])
        with pytest.raises(InvalidSpecError):
            Instance(2, [-0.1])

    def test_n1_legal(self):
        inst = Instance(1, [])
        assert inst.m == 0

    def test_immutable_sims(self):
        inst = Instance(2, [0.3])
        with pytest.raises(ValueError):
            inst.sims[0] = 0.9


class TestGenerate:
    def test_noiseless_planted_two_cliques(self):
        spec = GeneratorSpec("planted", n=4, k=2, in_mean=1.0, out_mean=0.0, flip_noise=0.0)
        inst = generate(spec)
        assert set(np.unique(inst.sims)) <= {0.0, 1.0}
        gt = inst.ground_truth
        for u in range(4):
            for v in range(u + 1, 4):
                expected = 1.0 if gt[u] == gt[v] else 0.0
                assert inst.similarity(u, v) == expected

    def test_degenerate_uniform_range(self):
        inst = generate(GeneratorSpec("uniform_random", n=5, lo=0.5, hi=0.5, seed=3))
        assert np.all(inst.sims == 0.5)

    def test_determinism(self):
        spec = GeneratorSpec("planted", n=8, k=3, flip_noise=0.2, seed=99)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.sims, b.sims)
        assert np.array_equal(a.ground_truth, b.ground_truth)
        assert to_json(a) == to_json(b)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec("uniform_random", n=6, seed=1))
        b = generate(GeneratorSpec("uniform_random", n=6, seed=2))
        assert not np.array_equal(a.sims, b.sims)

    def test_flip_preserves_gap(self):
        spec = GeneratorSpec("planted", n=10, k=2, in_mean=0.8, out_mean=0.3, flip_noise=0.4, seed=5)
        inst = generate(spec)
        gaps = np.abs(inst.sims - 0.5)
        assert set(np.round(gaps, 12)) <= {0.3, 0.2}

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(GeneratorSpec("planted", n=8, k=9))

    def test_bad_specs_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(GeneratorSpec("planted", n=4, k=2, flip_noise=0.5))
        with pytest.raises(InvalidSpecError):
            generate(GeneratorSpec("uniform_random", n=4, lo=0.6, hi=0.4))
        with pytest.raises(InvalidSpecError):
            generate(GeneratorSpec("nope", n=4))

    @settings(max_examples=30)
    @given(st.integers(1, 12), st.integers(0, 2**32), st.floats(0.0, 0.49))
    def test_planted_instances_always_valid(self, n, seed, q):
        k = 1 + seed % n
        inst = generate(GeneratorSpec("planted", n=n, k=k, seed=seed, flip_noise=q))
        assert len(inst.sims) == num_pairs(n)
        if inst.m:
            assert inst.sims.min() >= 0.0 and inst.sims.max() <= 1.0


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        inst = generate(GeneratorSpec("planted", n=6, k=2, flip_noise=0.1, seed=4))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.n == inst.n
        assert np.array_equal(loaded.sims, inst.sims)
        assert np.array_equal(loaded.ground_truth, inst.ground_truth)

    def test_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "sims": [0.5, 0.5]}))
        with pytest.raises(InvalidSpecError):
            load_instance(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "sims": [1.2]}))
        with pytest.raises(InvalidSpecError):
            load_instance(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2}))
        with pytest.raises(InvalidSpecError):
            load_instance(path)

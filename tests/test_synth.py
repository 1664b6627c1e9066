from collections import Counter

import pytest

from nnprune import ConfigurationError, deserialize

from nnprune.synth import (
    FILENAMES,
    SIGNAL,
    write_all,
    write_benchmark,
    write_cancer_like,
    write_diabetes_like,
    write_glass_like,
)


def lines_of(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestCancerLike:
    def test_schema(self, tmp_path):
        lines = lines_of(write_cancer_like(tmp_path / "c.data"))
        assert len(lines) == 699
        labels = Counter()
        missing = 0
        for line in lines:
            fields = line.split(",")
            assert len(fields) == 11
            int(fields[0])  # id parses
            for value in fields[1:10]:
                if value == "?":
                    missing += 1
                else:
                    assert 1 <= int(value) <= 10
            labels[fields[10]] += 1
        assert missing == 16
        assert labels == {"2": 458, "4": 241}

    def test_deterministic(self, tmp_path):
        a = (tmp_path / "a.data", tmp_path / "b.data")
        write_cancer_like(a[0], seed=5)
        write_cancer_like(a[1], seed=5)
        assert a[0].read_bytes() == a[1].read_bytes()

    def test_seed_changes_content(self, tmp_path):
        write_cancer_like(tmp_path / "a.data", seed=5)
        write_cancer_like(tmp_path / "b.data", seed=6)
        assert (tmp_path / "a.data").read_bytes() != (tmp_path / "b.data").read_bytes()


class TestGlassLike:
    def test_schema(self, tmp_path):
        lines = lines_of(write_glass_like(tmp_path / "g.data"))
        assert len(lines) == 214
        labels = Counter()
        for line in lines:
            fields = line.split(",")
            assert len(fields) == 11
            ri = float(fields[1])
            assert 1.5 < ri < 1.54
            for value in fields[2:10]:
                assert float(value) >= 0.0
            labels[fields[10]] += 1
        assert labels == {"1": 70, "2": 76, "3": 17, "5": 13, "6": 9, "7": 29}


class TestDiabetesLike:
    def test_schema(self, tmp_path):
        lines = lines_of(write_diabetes_like(tmp_path / "d.data"))
        assert len(lines) == 768
        labels = Counter()
        for line in lines:
            fields = line.split(",")
            assert len(fields) == 9
            for value in fields[:8]:
                assert float(value) >= 0.0
            labels[fields[8]] += 1
        assert labels == {"0": 500, "1": 268}


class TestWriteAll:
    def test_canonical_filenames(self, tmp_path):
        paths = write_all(tmp_path / "data")
        assert set(paths) == {"cancer1", "glass", "diabetes"}
        for name, path in paths.items():
            assert path.name == FILENAMES[name]
            assert path.is_file()

    def test_negative_seed_rejected_before_writing(self, tmp_path):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            write_all(tmp_path / "data", seed=-1)
        assert not (tmp_path / "data").exists()

    def test_unknown_benchmark(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown benchmark 'iris'"):
            write_benchmark("iris", tmp_path / "x.data")

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_bad_seed_rejected_before_writing(self, tmp_path, seed):
        with pytest.raises(ConfigurationError, match="seed must be"):
            write_benchmark("glass", tmp_path / "x.data", seed=seed)
        assert not (tmp_path / "x.data").exists()


def kept_inputs(run, seed):
    """The 1-based attributes the pruned network of ``seed`` still reads."""
    net = deserialize((run.out / "networks" / f"pruned_seed{seed}.json").read_text())
    return {l + 1 for l in range(net.n_inputs) if net.input_active[l]}


def test_pruning_keeps_the_informative_inputs(shipped_runs):
    # the shipped runs at split seeds 1-5 recover what the generators built
    if any(shipped_runs[name].source != "synthetic" for name in SIGNAL):
        pytest.skip("SIGNAL describes the stand-in files, not the real ones")
    cancer, diabetes = shipped_runs["cancer1"], shipped_runs["diabetes"]
    for seed in cancer.config.split_seeds:
        assert set() < kept_inputs(cancer, seed) <= set(SIGNAL["cancer1"]), seed
    for seed in diabetes.config.split_seeds:
        assert set(SIGNAL["diabetes"]) <= kept_inputs(diabetes, seed), seed

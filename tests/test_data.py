"""Dataset validation, CSV/LIBSVM parsing and the seeded generators."""

import hashlib

import numpy as np
import pytest

from mirrorboost.data import (
    DEFAULT_MARGIN,
    Dataset,
    gen_blobs,
    gen_combined,
    gen_noisy,
    load_csv,
    load_libsvm,
    save_csv,
    splitmix64,
)
from mirrorboost.errors import ConfigurationError, ParseError
from mirrorboost.stumps import edge, loss_vector, train_stump


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset([[0.5], [-0.5]], [1, -1])
        assert ds.n == 2 and ds.d == 1
        assert ds.labels.dtype == float

    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigurationError):
            Dataset([[1.0]], [2.0])

    def test_rejects_nan_features(self):
        with pytest.raises(ConfigurationError):
            Dataset([[np.nan]], [1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            Dataset([[1.0], [2.0]], [1.0])
        with pytest.raises(ConfigurationError):
            Dataset([[1.0]], [1.0], subset_flags=[True, False])

    def test_immutable_arrays(self):
        ds = Dataset([[0.5]], [1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 2.0


class TestCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f1\n1,0.5\n-1,-0.5\n")
        ds = load_csv(str(p))
        assert ds.n == 2 and ds.d == 1
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
        np.testing.assert_array_equal(ds.features, [[0.5], [-0.5]])

    def test_zero_one_labels_mapped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f1\n1,0.5\n0,-0.5\n")
        np.testing.assert_array_equal(load_csv(str(p)).labels, [1.0, -1.0])

    def test_subset_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f1,subset\n1,0.5,A\n-1,-0.5,B\n")
        ds = load_csv(str(p), subset_column="subset")
        np.testing.assert_array_equal(ds.subset_flags, [False, True])
        assert ds.d == 1

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f1\n1,0.5\n1,oops\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p))
        assert e.value.line == 3
        p.write_text("label,f1\n1,0.5\n3,0.1\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p))
        assert e.value.line == 3
        p.write_text("label,f1\n1,0.5,9\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p))
        assert e.value.line == 2
        p.write_text("f1,f2\n1,0.5\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p))
        assert e.value.line == 1

    def test_round_trip_bit_exact(self, tmp_path):
        ds = gen_combined(5, 10, 6, 0.3)
        p = tmp_path / "d.csv"
        save_csv(ds, str(p))
        back = load_csv(str(p), subset_column="subset")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.subset_flags, ds.subset_flags)


class TestLibsvm:
    def test_sparse_row(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5 3:1.0\n-1 2:2.0\n")
        ds = load_libsvm(str(p))
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 1.0], [0.0, 2.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_empty_feature_list_row(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5\n-1\n")
        np.testing.assert_array_equal(load_libsvm(str(p)).features[1], [0.0])

    def test_malformed_token_line_number(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5\n-1 nonsense\n")
        with pytest.raises(ParseError) as e:
            load_libsvm(str(p))
        assert e.value.line == 2
        p.write_text("+1 0:0.5\n")
        with pytest.raises(ParseError):
            load_libsvm(str(p))

    def test_agreement_with_csv(self, tmp_path):
        csv_p = tmp_path / "d.csv"
        csv_p.write_text("label,f0,f1\n1,0.5,1.0\n-1,-0.25,0.0\n")
        svm_p = tmp_path / "d.libsvm"
        svm_p.write_text("+1 1:0.5 2:1.0\n-1 1:-0.25\n")
        a, b = load_csv(str(csv_p)), load_libsvm(str(svm_p))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestGenerators:
    def test_splitmix64_known_answers(self):
        # seed 0 is the published splitmix64 reference vector
        np.testing.assert_array_equal(
            splitmix64(0, 3),
            np.array([0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F], np.uint64),
        )
        np.testing.assert_array_equal(
            splitmix64(1234567, 2),
            np.array([0x599ED017FB08FC85, 0x2C73F08458540FA5], np.uint64),
        )
        u = (splitmix64(42, 1000) >> np.uint64(11)) / float(1 << 53)
        assert u.min() >= 0.0 and u.max() < 1.0

    @pytest.mark.parametrize("seed", [0, -3, 2**63 + 5, 2**64 - 1])
    def test_splitmix64_matches_scalar_reference(self, seed):
        # the stateful Python-int recurrence the vectorised form replaces
        mask = (1 << 64) - 1
        state, expected = seed & mask, []
        for _ in range(50):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            expected.append(z ^ (z >> 31))
        assert splitmix64(seed, 50).tolist() == expected

    def test_generated_bytes_are_pinned(self):
        # SHA-256 of every generator's features, labels and subset flags
        # over seeds at the edges of the 64-bit range; any change to the
        # splitmix64 stream or to how the generators consume it moves it.
        h = hashlib.sha256()
        for seed in (0, 7, -3, 2**63 + 5):
            for n in (2, 200, 1000):
                for ds in (
                    gen_blobs(seed, n, 0.3),
                    gen_noisy(seed, n, 0.1),
                    gen_noisy(seed, n, 0.45),
                    gen_combined(seed, n, n, 0.3),
                ):
                    h.update(ds.features.tobytes())
                    h.update(ds.labels.tobytes())
                    if ds.subset_flags is not None:
                        h.update(ds.subset_flags.tobytes())
        assert h.hexdigest() == (
            "cd2d11bec1c66d7d73fa2b0dcb13b3504efd0b32df49561076861bbeac535fdc"
        )

    def test_blobs_separable_by_one_stump(self):
        ds = gen_blobs(0, 100, 0.5)
        w = np.full(100, 0.01)
        h = train_stump(ds.features, ds.labels, w)
        assert h.feature == 0 and h.polarity == 1
        assert -0.5 < h.threshold < 0.5  # midpoint of the separating gap
        assert edge(w, loss_vector(ds.features, ds.labels, h)) == pytest.approx(1.0)

    def test_blobs_margin_separation(self):
        ds = gen_blobs(3, 50, 0.25)
        pos = ds.features[ds.labels == 1.0, 0]
        neg = ds.features[ds.labels == -1.0, 0]
        assert pos.min() >= 0.25 and neg.max() <= -0.25

    def test_blobs_invalid_params(self):
        with pytest.raises(ConfigurationError):
            gen_blobs(0, 3, 0.5)
        with pytest.raises(ConfigurationError):
            gen_blobs(0, 10, 0.0)

    def test_noisy_zero_flip_equals_blobs(self):
        a = gen_noisy(0, 100, 0.0)
        b = gen_blobs(0, 100, DEFAULT_MARGIN)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noisy_flip_count(self):
        base = gen_blobs(0, 100, DEFAULT_MARGIN)
        noisy = gen_noisy(0, 100, 0.1)
        assert int(np.sum(noisy.labels != base.labels)) == 10
        np.testing.assert_array_equal(noisy.features, base.features)

    def test_noisy_invalid_flip_rate(self):
        with pytest.raises(ConfigurationError):
            gen_noisy(0, 10, 0.5)

    def test_seed_determinism(self):
        for maker in (
            lambda: gen_blobs(7, 40, 0.3),
            lambda: gen_noisy(7, 40, 0.2),
            lambda: gen_combined(7, 20, 10, 0.2),
        ):
            a, b = maker(), maker()
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_combined_flags_partition(self):
        ds = gen_combined(0, 30, 10, 0.3)
        assert ds.n == 40
        assert int(ds.subset_flags.sum()) == 10
        assert not ds.subset_flags[:30].any()

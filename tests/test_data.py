"""Dataset validation, CSV/LIBSVM parsing and the seeded generators."""

import csv
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mirrorboost import data
from mirrorboost.data import (
    DEFAULT_MARGIN,
    Dataset,
    _map_label,
    gen_blobs,
    gen_combined,
    gen_noisy,
    load_csv,
    load_libsvm,
    splitmix64,
)
from mirrorboost.errors import ConfigurationError, ParseError, UsageError
from mirrorboost.stumps import edge, loss_vector, train_stump


def _load_csv_reference(path: str, label_column: str = "label", subset_column: str | None = None) -> Dataset:
    """load_csv as it was before NumPy's C parser read the rows (verbatim)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1) from None
        header = [c.strip() for c in header]
        if label_column not in header:
            raise ParseError(f"missing label column {label_column!r}", 1)
        label_idx = header.index(label_column)
        subset_idx = None
        if subset_column is not None:
            if subset_column not in header:
                raise ParseError(f"missing subset column {subset_column!r}", 1)
            subset_idx = header.index(subset_column)
        feature_idx = [
            i for i in range(len(header)) if i not in (label_idx, subset_idx)
        ]

        rows, labels, flags = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(row)}", lineno
                )
            labels.append(_map_label(row[label_idx].strip(), lineno))
            if subset_idx is not None:
                marker = row[subset_idx].strip()
                if marker not in ("A", "B"):
                    raise ParseError(f"subset marker must be A or B, got {marker!r}", lineno)
                flags.append(marker == "B")
            vals = []
            for i in feature_idx:
                try:
                    vals.append(float(row[i]))
                except ValueError:
                    raise ParseError(f"non-numeric cell {row[i]!r}", lineno) from None
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows", 2)
    return Dataset(
        np.array(rows), np.array(labels),
        np.array(flags) if flags else None,
    )


def _outcome(load, path, subset_column):
    """Everything a caller can observe of one load: the arrays' bytes, or the error."""
    try:
        ds = load(path, subset_column=subset_column)
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc), getattr(exc, "line", None)
    flags = ds.subset_flags
    return (
        ds.features.dtype, ds.features.shape, ds.features.tobytes(),
        ds.labels.dtype, ds.labels.tobytes(),
        None if flags is None else (flags.dtype, flags.tobytes()),
    )


# cells the row loop reads, and cells it rejects
_FEATURES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([
        "-0.0", "0", ".5", "5.", "+.5e-3", "1e-400", " 1.5", "1.5 ", "\t2", "\xa01.5",
        "1.5\xa0", "\u20031", "1_0", "\u0661", '"1.5"', '" 2 "', '"1.5" ', '"1.5"0', '"1\n"',
        '"2\r\n"',
    ]),
)
_BAD_FEATURES = st.sampled_from([
    "nan", "-nan", "inf", "-Infinity", "1e400", "\x1c1.5", "1.5\x1f", "1__0", '"1,5"',
    ' "1.5"', '1"5', '"1.5', '""', "", "0x10", "1d5", "1.5\x00", "\x0c3\x0b",
])
_LABELS = st.sampled_from(
    ["1", "-1", "0", "+1", "1.0", "-0", "-0.0", " 1", "1\x1c", '"-1"', "\u0661"]
)
_BAD_LABELS = st.sampled_from(["3", "nan", "1_0_", "", "0.5", "A"])
_MARKERS = st.sampled_from(["A", "B", " A", "B\x1d", '"B"', "\xa0A"])
_BAD_MARKERS = st.sampled_from(["C", "a", "", "A B", "1"])


@st.composite
def _csv_files(draw):
    """CSV text with features, a label and maybe a subset column, and the subset_column to ask for.

    Half the files use only cells and lines the row loop reads and ask for
    the subset column they have; the other half mix in cells it rejects,
    lines of the wrong width, blank-looking lines that are not empty and
    subset columns that are absent or are the label.
    """
    noisy = draw(st.booleans())
    d = draw(st.integers(1 - noisy, 3))
    subset = draw(st.booleans())
    names = [f"f{j}" for j in range(d)] + ["label"] + ["subset"] * subset
    names = draw(st.permutations(names))
    if draw(st.booleans()):
        names = [f" {c} " if c == "label" else c for c in names]
    cells = {"label": (_LABELS, _BAD_LABELS), "subset": (_MARKERS, _BAD_MARKERS)}
    lines = [",".join(names)]
    for _ in range(draw(st.integers(1 - noisy, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank"] + ["spaces", "wide", "narrow"] * noisy))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t", ","])))
            continue
        row = []
        for c in names:
            good, bad = cells.get(c.strip(), (_FEATURES, _BAD_FEATURES))
            row.append(draw(st.one_of(good, good, good, bad) if noisy else good))
        if kind == "wide":
            row.append(draw(st.sampled_from(["", "1.5"])))
        elif kind == "narrow":
            row.pop()
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    if noisy:
        return text, draw(st.sampled_from([None, "subset", "label", "absent"]))
    return text, "subset" if subset else None


_CLEAN = "label,f0,f1,subset\n1,0.5,-0.0,A\n0,-1.5,2.0,B\n-0.0,3e-300,-1.5,A\n"
_CLEAN_NO_SUBSET = "label,f0,f1\n1,0.5,-0.0\n0,-1.5,2.0\n-0.0,3e-300,-1.5\n"


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset([[0.5], [-0.5]], [1, -1])
        assert ds.n == 2 and ds.features.shape[1] == 1
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

    def test_subset_flags_immutable(self):
        ds = gen_combined(0, 10, 10, 0.3)
        with pytest.raises(ValueError, match="read-only"):
            ds.subset_flags[:] = False
        assert ds.subset_flags.sum() == 10

    @pytest.mark.parametrize(
        "flags", [[0.5, 7, np.nan], [0, 2, 1], ["A", "B", "A"], [None, True, False]],
        ids=["fractions", "two", "markers", "none"],
    )
    def test_subset_flags_must_be_booleans_or_0_and_1(self, flags):
        with pytest.raises(ConfigurationError, match="subset flags"):
            Dataset([[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0], subset_flags=flags)

    @pytest.mark.parametrize("flags", [[False, True, True], [0, 1, 1], [0.0, 1.0, 1.0]])
    def test_subset_flags_accept_booleans_and_0_and_1(self, flags):
        ds = Dataset([[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0], subset_flags=flags)
        assert ds.subset_flags.dtype == bool
        np.testing.assert_array_equal(ds.subset_flags, [False, True, True])

    @pytest.mark.parametrize(
        "features, labels, flags, what",
        [
            ([[1.0], [1.0, 2.0]], [1, 1], None, "features"),
            ([["a"]], [1], None, "features"),
            ([[1.0], [2.0]], [1, [1, -1]], None, "labels"),
            ([[1.0], [2.0]], [1, -1], [0, [1, 0]], "subset flags"),
        ],
        ids=["ragged-features", "text-features", "ragged-labels", "ragged-flags"],
    )
    def test_malformed_input_is_a_configuration_error(self, features, labels, flags, what):
        with pytest.raises(ConfigurationError, match=f"^{what} must be a numeric array: "):
            Dataset(features, labels, flags)

    def test_arrays_that_do_not_own_their_data_are_copied(self):
        table = np.array([[1.0, 0.5, 1.0], [-1.0, -0.5, 0.0]])
        ds = Dataset(table[:, 1:2], table[:, 0], table[:, 2])
        table[:] = 7.0
        np.testing.assert_array_equal(ds.features, [[0.5], [-0.5]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
        np.testing.assert_array_equal(ds.subset_flags, [True, False])
        assert table.flags.writeable

    def test_owned_features_are_frozen_in_place(self):
        x = np.array([[0.5], [-0.5]])
        ds = Dataset(x, [1.0, -1.0])
        assert ds.features is x and not x.flags.writeable

    def test_stump_index_built_on_first_use_and_kept(self):
        ds = gen_noisy(0, 40, 0.1)
        assert "stump_index" not in vars(ds)
        index = ds.stump_index
        assert ds.stump_index is index and index.shape == ds.features.shape


class TestCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f1\n1,0.5\n-1,-0.5\n")
        ds = load_csv(str(p))
        assert ds.n == 2 and ds.features.shape[1] == 1
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
        assert ds.features.shape[1] == 1

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

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_csv_files())
    @example(("label,f0\n1,0.5\n-1,0.25,9\n", None))  # a later row wider than the header
    @example(("label,f0\n1,0.5,9\n-1,0.25,9\n", None))  # every row wider than the header
    @example(("label,f0\n1,\x1c0.5\n", None))  # NumPy strips U+001C, float() does not
    @example(("label,subset\nA,A\n", "label"))  # the label column doubles as the subset
    @example(("label,f0\n\n", None))
    @example(("label,f0\n1,0.5\n \n", None))
    @example(('"f\n0",label\n0.5,1\n-0.25,0\n', None))  # the header spans two lines
    @example(("label,f0\n1,0.5\n", "subset"))  # no subset column
    def test_matches_the_row_by_row_reference(self, tmp_path, drawn):
        text, subset_column = drawn
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(load_csv, str(p), subset_column) == _outcome(
            _load_csv_reference, str(p), subset_column
        )

    @pytest.mark.parametrize("cell", ["0" * 140_000 + "1", '"' + "0" * 140_000 + '1"'],
                             ids=["bare", "quoted"])
    def test_a_cell_over_the_field_limit_is_refused_as_the_reference_refuses_it(
        self, tmp_path, cell
    ):
        # the reference lets csv.reader's own error out; load_csv adds the line
        p = tmp_path / "d.csv"
        p.write_text(f"label,f0\n1,{cell}\n-1,0.5\n")
        with pytest.raises(csv.Error, match=r"^field larger than field limit \(131072\)$"):
            _load_csv_reference(str(p))
        with pytest.raises(ParseError, match=r"^line 2: field larger than field limit") as e:
            load_csv(str(p))
        assert e.value.line == 2

    def test_clean_file_never_reaches_the_row_loop(self, tmp_path, monkeypatch):
        p = tmp_path / "d.csv"
        p.write_text(_CLEAN)

        def row_loop(*args):
            raise AssertionError("row loop called")

        monkeypatch.setattr(data, "_load_csv_rows", row_loop)
        ds = load_csv(str(p), subset_column="subset")
        assert ds.n == 3 and ds.features.shape[1] == 2

    @pytest.mark.parametrize(
        "content, subset_column, message, line",
        [
            (b"", None, "^line 1: empty file$", 1),
            (b"f0,f1\n1,0.5\n", None, "^line 1: missing label column 'label'$", 1),
            (b"label,f0\n1,0.5\n", "subset", "^line 1: missing subset column 'subset'$", 1),
            (b"label," + b"x" * 140_000 + b"\n1,0.5\n", None,
             r"^line 1: field larger than field limit \(131072\)$", 1),
            (b"label,f\xff0\n1,0.5\n", None, "' is not UTF-8 text: invalid start byte$", None),
        ],
        ids=["zero-byte", "no-label-column", "no-subset-column", "header-over-field-limit",
             "header-not-utf8"],
    )
    def test_header_errors_never_reach_the_row_loop(
        self, tmp_path, monkeypatch, content, subset_column, message, line
    ):
        p = tmp_path / "d.csv"
        p.write_bytes(content)

        def row_loop(*args):
            raise AssertionError("row loop called")

        monkeypatch.setattr(data, "_load_csv_rows", row_loop)
        with pytest.raises(ParseError, match=message) as e:
            load_csv(str(p), subset_column=subset_column)
        assert e.value.line == line

    @pytest.mark.parametrize("text,subset_column", [(_CLEAN_NO_SUBSET, None), (_CLEAN, "subset")])
    def test_layout_and_dtypes(self, tmp_path, text, subset_column):
        p = tmp_path / "d.csv"
        p.write_text(text)
        ds = load_csv(str(p), subset_column=subset_column)
        f = ds.features
        assert f.shape == (3, 2) and f.dtype == np.float64
        assert f.flags.c_contiguous and not f.flags.writeable
        assert ds.labels.dtype == np.float64 and not ds.labels.flags.writeable
        # 0 and -0.0 both map to -1.0
        assert ds.labels.tobytes() == np.array([1.0, -1.0, -1.0]).tobytes()
        if subset_column is None:
            assert ds.subset_flags is None
        else:
            assert ds.subset_flags.dtype == bool
            np.testing.assert_array_equal(ds.subset_flags, [False, True, False])

    def test_header_only_file_raises_without_a_warning(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows") as e:
                load_csv(str(p))
        assert e.value.line == 2

    def test_zero_byte_file_is_an_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"")
        with pytest.raises(ParseError, match="^line 1: empty file$"):
            load_csv(str(p))

    def test_unreadable_files_raise_package_errors(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            load_csv(str(tmp_path / "missing.csv"))
        with pytest.raises(UsageError, match="cannot read"):
            load_csv(str(tmp_path))
        # a bad byte past the first block of text the C parser reads
        p = tmp_path / "d.csv"
        p.write_bytes(b"label,f0\n" + b"1,0.5\n" * 4000 + b"-1,\xff\n")
        with pytest.raises(ParseError, match="is not UTF-8 text"):
            load_csv(str(p))

    @pytest.mark.parametrize("lines,line", [(["label,f0", "1,0.5", "-1,{}"], 3), (["label,{}", "1,0.5"], 1)])
    def test_cell_over_the_field_limit_is_a_parse_error(self, tmp_path, lines, line):
        p = tmp_path / "d.csv"
        p.write_text("\n".join(lines).format("x" * 140_000) + "\n")
        with pytest.raises(ParseError, match="field larger than field limit") as e:
            load_csv(str(p))
        assert e.value.line == line

    def test_round_trip_bit_exact(self, tmp_path):
        ds = gen_combined(5, 10, 6, 0.3)
        p = tmp_path / "d.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", *(f"f{i}" for i in range(ds.features.shape[1])), "subset"])
            for label, row, in_b in zip(ds.labels, ds.features, ds.subset_flags):
                writer.writerow([repr(int(label)), *map(repr, row.tolist()), "B" if in_b else "A"])
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

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("# header comment\n\n+1 1:0.5 # trailing\n   \n  # indented\n-1 2:2.0\n")
        ds = load_libsvm(str(p))
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_malformed_token_line_number(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5\n-1 nonsense\n")
        with pytest.raises(ParseError) as e:
            load_libsvm(str(p))
        assert e.value.line == 2
        p.write_text("+1 0:0.5\n")
        with pytest.raises(ParseError):
            load_libsvm(str(p))

    @pytest.mark.parametrize("index", ["99999999999", "9" * 400])
    def test_index_too_large_for_memory_names_its_line(self, tmp_path, monkeypatch, index):
        monkeypatch.setattr(np, "zeros", None)  # the check must come before the matrix
        p = tmp_path / "d.libsvm"
        p.write_text(f"-1 1:0.2\n+1 {index}:0.5\n-1 7:0.1\n")
        with pytest.raises(ParseError, match=f"feature index {index} needs a dense 3 x") as e:
            load_libsvm(str(p))
        assert e.value.line == 2

    def test_repeated_index_names_its_line(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 2:0.5 1:0.25\n")  # unordered, each index once
        np.testing.assert_array_equal(load_libsvm(str(p)).features, [[0.25, 0.5]])
        p.write_text("+1 2:0.5 1:0.25\n-1 1:0.5 1:0.7\n")
        with pytest.raises(ParseError, match="^line 2: feature index 1 repeats$"):
            load_libsvm(str(p))

    def test_agreement_with_csv(self, tmp_path):
        csv_p = tmp_path / "d.csv"
        csv_p.write_text("label,f0,f1\n1,0.5,1.0\n-1,-0.25,0.0\n")
        svm_p = tmp_path / "d.libsvm"
        svm_p.write_text("+1 1:0.5 2:1.0\n-1 1:-0.25\n")
        a, b = load_csv(str(csv_p)), load_libsvm(str(svm_p))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


def _sequential_flips(seed: int, n: int, n_flip: int) -> list[int]:
    """gen_noisy's flipped samples as the swap loop that defines them finds
    them (verbatim from before the array form): step i of a partial
    Fisher-Yates shuffle swaps position i with a uniform pick from [i, n),
    and a dict holds the sample at each later position a swap has moved."""
    picks = splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5, n_flip) % np.arange(
        n, n - n_flip, -1, dtype=np.uint64
    )
    moved: dict[int, int] = {}
    flipped = []
    for i, j in enumerate(picks.tolist()):
        j += i
        flipped.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return flipped


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

    @pytest.mark.parametrize(
        "flip_rate, seed, digest",
        [
            (0.1, 0, "d4496b9ccbb1a752a4783e6d43ad675880522c7d5b9d6e7e0c9536368599583f"),
            (0.1, 1, "c86a6d015ce665daa4856b249868cb6d4fdb8241f4d72b0d5773fafb21c4ed8e"),
            (0.1, 2, "8ea4efbdb1705f5c1a6f91306fea69bf22e39235828af1d7b5e106655c061b0b"),
            (0.1, 3, "4feb31fbcd92785a7ac351782664910c337ad428f6516e6597450acc43783e05"),
            (0.45, 0, "0a989a2099858287afc1f991f4ce94d1ba33460b26a6037910ad9ea4eac87080"),
            (0.45, 1, "6d16c6d1077252f6ce6546f4bf177302ae9b92ab2bee0b46cbe05004d2f5f84a"),
            (0.45, 2, "cfbe82a10cc34a3364ded4a149204b372733f90e50add7d4c6e1dee97d39d78e"),
            (0.45, 3, "ac82fe00b45d5841ca93a755042e9f56e887ab9cac8b9634ba7fb776be3551da"),
        ],
    )
    def test_noisy_bytes_are_pinned_at_benchmark_scale(self, flip_rate, seed, digest):
        # SHA-256 of features then labels at N = 1e5, as the sequential
        # swap loop made them; at flip 0.45 most picks collide
        ds = gen_noisy(seed, 100_000, flip_rate)
        assert hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest() == digest

    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        half=st.integers(1, 2000),
        flip_rate=st.floats(0.0, 0.49),
    )
    @example(seed=0, half=1, flip_rate=0.49)  # n = 2, one flip
    @example(seed=2**64 - 1, half=2000, flip_rate=0.49)
    @settings(max_examples=200, deadline=None)
    def test_noisy_flips_what_the_sequential_swap_loop_flips(self, seed, half, flip_rate):
        n = 2 * half
        n_flip = int(round(flip_rate * n))
        flipped = _sequential_flips(seed, n, n_flip)
        if n_flip:
            assert data._flipped(seed, n, n_flip).tolist() == flipped
        labels = gen_blobs(seed, n, DEFAULT_MARGIN).labels.copy()
        labels[flipped] *= -1.0
        np.testing.assert_array_equal(gen_noisy(seed, n, flip_rate).labels, labels)

    def test_seed_and_sizes_take_numpy_integers(self):
        for a, b in (
            (gen_blobs(np.int64(3), np.int32(200), 0.5), gen_blobs(3, 200, 0.5)),
            (gen_noisy(np.uint64(2**64 - 1), np.int64(200), 0.1), gen_noisy(2**64 - 1, 200, 0.1)),
            (gen_combined(np.int64(2**63 - 1), np.int16(150), np.uint8(50), 0.3),
             gen_combined(2**63 - 1, 150, 50, 0.3)),
        ):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            if b.subset_flags is not None:
                np.testing.assert_array_equal(a.subset_flags, b.subset_flags)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: gen_blobs(0, 200.0, 0.5), "n"),
            (lambda: gen_blobs(0, True, 0.5), "n"),
            (lambda: gen_noisy(0, 200.0, 0.1), "n"),
            (lambda: gen_noisy(0, np.float64(200), 0.1), "n"),
            (lambda: gen_combined(0, 150.0, 50, 0.3), "N_A"),
            (lambda: gen_combined(0, 150, "50", 0.3), "N_B"),
            (lambda: gen_blobs(1.0, 200, 0.5), "seed"),
            (lambda: gen_noisy("7", 200, 0.1), "seed"),
            (lambda: gen_combined(np.float32(2), 150, 50, 0.3), "seed"),
            (lambda: gen_noisy(False, 200, 0.1), "seed"),
        ],
        ids=["blobs-float-n", "blobs-bool-n", "noisy-float-n", "noisy-numpy-float-n",
             "combined-float-n-a", "combined-str-n-b", "blobs-float-seed", "noisy-str-seed",
             "combined-numpy-float-seed", "noisy-bool-seed"],
    )
    def test_seed_and_sizes_must_be_integers(self, make, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got "):
            make()

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: gen_blobs(0, 200, "0.5"), "margin"),
            (lambda: gen_blobs(0, 200, None), "margin"),
            (lambda: gen_blobs(0, 200, True), "margin"),
            (lambda: gen_noisy(0, 200, "0.1"), "flip_rate"),
            (lambda: gen_noisy(0, 200, None), "flip_rate"),
            (lambda: gen_noisy(0, 200, False), "flip_rate"),
            (lambda: gen_combined(0, 150, 50, "0.3"), "flip_rate"),
        ],
        ids=["blobs-str", "blobs-none", "blobs-bool", "noisy-str", "noisy-none", "noisy-bool",
             "combined-str"],
    )
    def test_margin_and_flip_rate_must_be_real_numbers(self, make, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be a real number, got "):
            make()

    def test_numpy_floats_give_the_bytes_of_python_floats(self):
        for a, b in (
            (gen_blobs(0, 200, np.float64(0.5)), gen_blobs(0, 200, 0.5)),
            (gen_noisy(0, 200, np.float64(0.1)), gen_noisy(0, 200, 0.1)),
        ):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()

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

    def test_too_many_samples_for_memory_named(self, monkeypatch):
        monkeypatch.setattr(data, "splitmix64", None)  # the check must come before the draws
        with pytest.raises(ConfigurationError, match="n = 100000000000 samples need"):
            gen_blobs(0, 10**11, 0.5)

    @pytest.mark.parametrize("error", [ValueError, OSError, AttributeError])
    def test_memory_is_unbounded_where_the_platform_does_not_say(self, monkeypatch, error):
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(data.os, "sysconf", sysconf)
        assert data._memory_bytes() == float("inf")

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

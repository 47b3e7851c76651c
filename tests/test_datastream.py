import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast import (DriftSpec, SeriesFrame, SplitSpec, chrono_split,
                       gen_concept_drift, gen_mean_shift, load_csv, write_csv)
from driftcast.datastream import (CONCEPT_A1, CONCEPT_A2, MAX_CELLS,
                                  concept_coefficients)
from driftcast.forecaster import Sample, WindowSplit


class TestCsvIO:
    def test_round_trip_bit_exact(self, tmp_path):
        frame = gen_concept_drift(DriftSpec(length=50, channels=3, seed=1))
        path = str(tmp_path / "series.csv")
        write_csv(frame, path)
        back = load_csv(path)
        assert back.columns == frame.columns
        np.testing.assert_array_equal(back.values, frame.values)

    def test_header_layout(self, tmp_path):
        frame = SeriesFrame(np.array([[1.5, -2.0]]), ["a", "b"])
        path = str(tmp_path / "one.csv")
        write_csv(frame, path)
        with open(path, "rb") as fh:
            assert fh.read() == b"timestamp,a,b\n0,1.5,-2.0\n"

    def test_quoted_header_round_trips(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('t,"temp, C","say ""hi"""\n0,1.0,2.0\n1,3.0,4.0\n')
        frame = load_csv(str(path))
        assert frame.columns == ["temp, C", 'say "hi"']
        again = tmp_path / "again.csv"
        write_csv(frame, str(again))
        back = load_csv(str(again))
        assert back.columns == frame.columns
        np.testing.assert_array_equal(back.values, frame.values)

    @given(st.lists(st.text(st.sampled_from(list('ab7 ,"\r\n\t;é')), max_size=5),
                    min_size=1, max_size=4).flatmap(
        lambda names: st.tuples(st.just(names), arrays(
            np.float64, st.tuples(st.integers(1, 4), st.just(len(names))),
            elements=st.floats(allow_nan=False, allow_infinity=False)))))
    @settings(max_examples=200, deadline=None)
    def test_any_names_and_finite_values_round_trip(self, tmp_path_factory, frame):
        names, values = frame
        path = str(tmp_path_factory.mktemp("csv") / "f.csv")
        write_csv(SeriesFrame(values, names), path)
        back = load_csv(path)
        assert back.columns == names
        assert back.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("values,names,msg", [
        (np.array([[1.0, 2.0], [3.0, np.nan]]), ["a", "b\r"],
         "row 3, column 'b\\r': nan"),
        (np.array([[-np.inf, 2.0]]), ["a", "b"], "row 2, column 'a': -inf"),
        (np.empty((0, 2)), ["a", "b"], "no rows or no columns"),
        (np.ones((1, 2)), ["a", 7], "column name 7 is not a string"),
    ])
    def test_unreadable_frame_refused_before_writing(self, tmp_path, values,
                                                      names, msg):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=re.escape(msg)):
            write_csv(SeriesFrame(values, names), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("text,msg", [
        ("", "empty"),
        ("timestamp\n0\n", "data columns"),
        ("timestamp,a\n", "header only"),
        ("timestamp,a,b\n0,1.0\n", "ragged row 2"),
        ("timestamp,a\n0,1.0\n1,oops\n", "row 3"),
        ("timestamp,a,b\n0,1.0,2.0\n1,3.0,nan\n", "row 3, column 'b'"),
        ("timestamp,a\n0,-inf\n", "row 2, column 'a'"),
        pytest.param(f"timestamp,a\n0,1.0\n1,{'9' * 131073}\n",
                     "row 3: field larger than field limit", id="huge-cell"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, msg):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=msg):
            load_csv(str(path))

    def test_non_utf8_byte_names_path_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"timestamp,a\n0,1.0\n1,2.\xff5\n2,3.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 3: 'utf-8' codec can't decode byte 0xff")):
            load_csv(str(path))

    @pytest.mark.parametrize("data,msg", [
        # reading runs to the end of the file, so a decode error anywhere wins
        (b"timestamp,a,b\n0,1.0\n1,2.\xff5,3.0\n",
         "row 3: 'utf-8' codec can't decode byte 0xff in position 4: "
         "invalid start byte"),
        # a ragged or unparsable row anywhere wins over any non-finite cell
        (b"timestamp,a\n0,nan\n1,oops\n",
         "unparsable cell at row 3, column 'a': 'oops'"),
        (b"timestamp,a,b\n0,inf,1.0\n1,2.0\n",
         "ragged row 3: 2 cells, expected 3"),
        # the header is checked before any data row
        (b"timestamp\n0,1.0,2.0\n1\n",
         "need a timestamp column plus data columns"),
        # the first non-finite cell in row-major order, with its own text
        (b"timestamp,a,b\n0,1.0,NaN\n1,1e999,2.0\n",
         "non-finite cell at row 2, column 'b': 'NaN'"),
        (b"timestamp,a,b\n0,1.0,2.0\n1,1e999,NaN\n",
         "non-finite cell at row 3, column 'a': '1e999'"),
    ], ids=["decode-over-ragged", "unparsable-over-nan", "ragged-over-inf",
            "header-over-ragged", "nan-then-1e999", "1e999-then-nan"])
    def test_error_precedence_with_two_defects(self, tmp_path, data, msg):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_csv(str(path))
        assert str(err.value) == f"{path}: {msg}"

    def test_load_holds_under_24_bytes_per_cell(self, tmp_path):
        # the bench's wide-channels shape: 6,000 rows of 16 channels
        frame = gen_mean_shift(DriftSpec(kind="mean_shift", length=6000,
                                         channels=16, change_points=[3000],
                                         magnitudes=[2.0], seed=1))
        path = str(tmp_path / "wide.csv")
        write_csv(frame, path)
        tracemalloc.start()
        try:
            back = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == frame.values.tobytes()
        assert peak / frame.values.size <= 24, peak / frame.values.size

    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_hostile_cell_loads_or_names_its_row(self, tmp_path_factory,
                                                     values, data):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        write_csv(SeriesFrame(values, [f"c{j}" for j in range(values.shape[1])]),
                  str(path))
        lines = path.read_bytes().split(b"\n")  # header, rows, "" after the last
        r = data.draw(st.integers(0, values.shape[0] - 1), label="row")
        c = data.draw(st.integers(0, values.shape[1] - 1), label="column")
        token = data.draw(st.sampled_from(
            [b"", b"nan", b"inf", b"1_0", b",", b'"', b"\r", b"\x00", b"\xff"]))
        cells = lines[r + 1].split(b",")
        cells[c + 1] = token
        lines[r + 1] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
        try:
            back = load_csv(str(path))
        except ValueError as exc:
            assert str(path) in str(exc) and f"row {r + 2}" in str(exc), str(exc)
            return
        untouched = np.ones(values.shape, dtype=bool)
        untouched[r, c] = False
        assert back.values.shape == values.shape
        assert back.values[untouched].tobytes() == values[untouched].tobytes()

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            SeriesFrame(np.ones(5), ["a"])          # not 2-D
        with pytest.raises(ValueError):
            SeriesFrame(np.ones((5, 2)), ["a"])     # column count mismatch


class TestChronoSplit:
    def test_worked_example_t100(self):
        frame = SeriesFrame(np.arange(200.0).reshape(100, 2), ["a", "b"])
        train, val, test = chrono_split(frame, SplitSpec(), L=10, k=5)
        assert [s.origin for s in train] == list(range(9, 55))
        assert [s.origin for s in val] == list(range(60, 65))
        assert [s.origin for s in test] == list(range(70, 95))
        assert (len(train), len(val), len(test)) == (46, 5, 25)

    def test_sample_contents_are_window_and_future(self):
        frame = SeriesFrame(np.arange(100.0).reshape(100, 1), ["a"])
        train, _, _ = chrono_split(frame, SplitSpec(), L=10, k=5)
        s = train[0]
        np.testing.assert_array_equal(s.x[:, 0], np.arange(0.0, 10.0))
        np.testing.assert_array_equal(s.y[:, 0], np.arange(10.0, 15.0))
        assert s.x.shape == (10, 1) and s.y.shape == (5, 1)

    def test_no_targets_cross_region_boundaries(self):
        frame = SeriesFrame(np.zeros((257, 2)), ["a", "b"])
        spec = SplitSpec(0.5, 0.25, 0.25)
        b1 = int(0.5 * 257)
        b2 = int(0.75 * 257)
        train, val, test = chrono_split(frame, spec, L=12, k=7)
        assert all(s.origin + 7 <= b1 - 1 for s in train)
        assert all(b1 <= s.origin and s.origin + 7 <= b2 - 1 for s in val)
        assert all(b2 <= s.origin and s.origin + 7 <= 256 for s in test)

    def test_val_may_borrow_lookback_from_train_rows(self):
        frame = SeriesFrame(np.arange(100.0).reshape(100, 1), ["a"])
        _, val, _ = chrono_split(frame, SplitSpec(), L=10, k=5)
        # first val origin is 60; its lookback reaches back to row 51
        np.testing.assert_array_equal(val[0].x[:, 0], np.arange(51.0, 61.0))

    def test_train_only_split(self):
        frame = SeriesFrame(np.zeros((60, 1)), ["a"])
        train, val, test = chrono_split(frame, SplitSpec(1.0, 0.0, 0.0), L=8, k=2)
        assert len(val) == 0 and len(test) == 0
        assert [s.origin for s in train] == list(range(7, 58))

    def test_frame_values_kept_c_contiguous(self):
        values = np.asfortranarray(np.arange(40.0).reshape(20, 2))
        frame = SeriesFrame(values, ["a", "b"])
        assert frame.values.flags.c_contiguous
        np.testing.assert_array_equal(frame.values, values)
        same = np.arange(40.0).reshape(20, 2)
        assert SeriesFrame(same, ["a", "b"]).values is same

    def test_windows_alias_frame_values(self):
        frame = SeriesFrame(np.arange(200.0).reshape(100, 2), ["a", "b"])
        for split in chrono_split(frame, SplitSpec(), L=10, k=5):
            assert isinstance(split, WindowSplit)
            assert split.values is frame.values
            for s in (split[0], split[-1]):
                assert np.shares_memory(s.x, frame.values)
                assert np.shares_memory(s.y, frame.values)

    def test_split_holds_under_50_bytes_per_window(self):
        # a 100k-row, two-channel frame: 99,833 windows across the splits
        frame = SeriesFrame(np.zeros((100_000, 2)), ["a", "b"])
        tracemalloc.start()
        try:
            splits = chrono_split(frame, SplitSpec(), L=96, k=24)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        windows = sum(len(s) for s in splits)
        assert windows > 99_000
        assert held / windows < 50

    def test_too_short_series_rejected(self):
        frame = SeriesFrame(np.zeros((20, 1)), ["a"])
        with pytest.raises(ValueError, match="minimum"):
            chrono_split(frame, SplitSpec(), L=16, k=8)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(-0.1, 0.6, 0.5)

    @pytest.mark.parametrize("field", ["train_frac", "val_frac", "test_frac"])
    def test_nan_fraction_rejected(self, field):
        with pytest.raises(ValueError, match="split fraction nan must be >= 0"):
            SplitSpec(**{field: float("nan")})


class TestWindowSplitSequence:
    # origins 9..54 of a 100 x 2 frame, L = 10, k = 5
    frame = SeriesFrame(np.arange(200.0).reshape(100, 2), ["a", "b"])

    def split(self):
        return chrono_split(self.frame, SplitSpec(), L=10, k=5)[0]

    def test_len_and_indexing(self):
        split = self.split()
        assert len(split) == 46
        s = split[3]
        assert isinstance(s, Sample) and s.origin == 12
        np.testing.assert_array_equal(s.x, self.frame.values[3:13])
        np.testing.assert_array_equal(s.y, self.frame.values[13:18])
        assert split[np.int64(3)].origin == 12

    def test_negative_indices(self):
        split = self.split()
        assert split[-1].origin == 54
        assert split[-46].origin == 9
        assert [s.origin for s in split] == [split[i].origin for i in range(-46, 0)]

    @pytest.mark.parametrize("i", [46, 47, -47, -100])
    def test_index_past_the_end_raises(self, i):
        with pytest.raises(IndexError):
            self.split()[i]

    def test_step_one_slice_is_a_split(self):
        split = self.split()
        for cut in (slice(5), slice(2, 9), slice(-4, None), slice(None, None, 1),
                    slice(40, 100), slice(9, 2)):
            part = split[cut]
            assert isinstance(part, WindowSplit), cut
            want = list(range(9, 55))[cut]
            assert [s.origin for s in part] == want, cut
            assert len(part) == len(want), cut
        assert split[2:9][1:3][0].origin == 12

    @pytest.mark.parametrize("cut", [slice(None, None, 2), slice(None, None, -1),
                                     slice(10, 2, -3)])
    def test_other_steps_give_a_list(self, cut):
        part = self.split()[cut]
        assert isinstance(part, list)
        assert [s.origin for s in part] == list(range(9, 55))[cut]

    def test_empty_split_is_falsy(self):
        split = self.split()
        assert split
        assert not split[5:5]
        assert not chrono_split(self.frame, SplitSpec(1.0, 0.0, 0.0), L=10, k=5)[2]
        assert list(split[5:5]) == [] and len(split[7:3]) == 0

    def test_views_match_the_samples(self):
        split = self.split()[3:11]
        xs, ys = split.lookbacks(), split.targets()
        assert xs.shape == (8, 10, 2) and ys.shape == (8, 5, 2)
        for i, s in enumerate(split):
            assert xs[i].tobytes() == s.x.tobytes()
            assert ys[i].tobytes() == s.y.tobytes()

    @pytest.mark.parametrize("start, stop", [(8, 20), (9, 96), (30, 20)])
    def test_range_must_fit_the_array(self, start, stop):
        with pytest.raises(ValueError, match="do not fit"):
            WindowSplit(self.frame.values, 10, 5, start, stop)

    def test_array_must_be_c_contiguous_float64(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            WindowSplit(np.asfortranarray(self.frame.values), 10, 5, 9, 20)


class TestDriftSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DriftSpec(kind="sudden")

    def test_rejects_bad_ar_and_noise(self):
        with pytest.raises(ValueError):
            DriftSpec(ar_coeff=1.0)
        with pytest.raises(ValueError):
            DriftSpec(noise_std=-0.1)

    @pytest.mark.parametrize("kw, message", [
        (dict(noise_std=float("nan")), "noise_std must be >= 0 and finite"),
        (dict(noise_std=float("inf")), "noise_std must be >= 0 and finite"),
        (dict(magnitudes=[float("inf")]), "magnitude inf is not finite"),
        (dict(magnitudes=[float("nan")]), "magnitude nan is not finite"),
    ])
    def test_rejects_non_finite_parameters(self, kw, message):
        kw.setdefault("magnitudes", [1.0])
        with pytest.raises(ValueError, match=message):
            DriftSpec(change_points=[10], length=100, **kw)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed -1 must be >= 0"):
            DriftSpec(seed=-1)

    def test_concept_needs_a_driver_channel(self):
        with pytest.raises(ValueError, match=re.escape(
                "concept_drift needs >= 2 channels (driver + target)")):
            DriftSpec(kind="concept_drift", channels=1)

    @pytest.mark.parametrize("kind", ["mean_shift", "concept_drift"])
    def test_no_channels_names_the_field(self, kind):
        with pytest.raises(ValueError, match=r"^channels must be >= 1, got 0$"):
            DriftSpec(kind=kind, channels=0)

    @pytest.mark.parametrize("kw", [dict(length=10**9), dict(channels=10**8),
                                    dict(length=10**400)])
    def test_rejects_a_stream_over_max_cells(self, kw):
        # checked before anything is allocated: length=10**9 would ask ~16 GB
        with pytest.raises(ValueError, match=r"length \d+ x channels \d+ is over"):
            DriftSpec(**kw)

    def test_max_cells_itself_is_allowed(self):
        spec = DriftSpec(length=MAX_CELLS // 2, channels=2)
        assert spec.length * spec.channels == MAX_CELLS

    def test_change_points_sorted_in_range_matched(self):
        with pytest.raises(ValueError):
            DriftSpec(length=100, change_points=[50, 50], magnitudes=[1.0, 1.0])
        with pytest.raises(ValueError):
            DriftSpec(length=100, change_points=[100], magnitudes=[1.0])
        with pytest.raises(ValueError):
            DriftSpec(length=100, change_points=[50], magnitudes=[1.0, 2.0])


class TestGeneratorOverflow:
    # pytest turns warnings into errors, so these also pin that no
    # RuntimeWarning escapes the overflow
    @pytest.mark.parametrize("kind,row", [("mean_shift", 200),
                                          ("concept_drift", 100)])
    def test_overflowing_magnitudes_refused(self, kind, row):
        spec = DriftSpec(kind=kind, length=300, change_points=[100, 200],
                         magnitudes=[1e308, 1e308])
        gen = gen_mean_shift if kind == "mean_shift" else gen_concept_drift
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} series is not finite at row {row}: magnitudes "
                "[1e+308, 1e+308] with noise_std 0.1 overflow float64")):
            gen(spec)

    @pytest.mark.parametrize("kind", ["mean_shift", "concept_drift"])
    def test_overflowing_noise_refused(self, kind):
        spec = DriftSpec(kind=kind, length=300, noise_std=1e308)
        gen = gen_mean_shift if kind == "mean_shift" else gen_concept_drift
        with pytest.raises(ValueError, match=r"at row \d+: magnitudes \[\] with "
                                             r"noise_std 1e\+308 overflow"):
            gen(spec)


class TestMeanShift:
    def test_noiseless_series_is_the_mean_path(self):
        spec = DriftSpec(kind="mean_shift", length=40, channels=2, noise_std=0.0,
                         ar_coeff=0.5, change_points=[10, 25],
                         magnitudes=[2.0, -1.0], seed=3)
        frame = gen_mean_shift(spec)
        mu = np.zeros(40)
        mu[10:] += 2.0
        mu[25:] -= 1.0
        for c in range(2):
            np.testing.assert_allclose(frame.values[:, c], mu, atol=1e-12)

    def test_deterministic_per_seed(self):
        spec = DriftSpec(kind="mean_shift", length=100, channels=2, seed=9)
        a = gen_mean_shift(spec)
        b = gen_mean_shift(spec)
        np.testing.assert_array_equal(a.values, b.values)
        c = gen_mean_shift(DriftSpec(kind="mean_shift", length=100, channels=2,
                                     seed=10))
        assert not np.array_equal(a.values, c.values)

    def test_level_shift_visible_in_window_means(self):
        spec = DriftSpec(kind="mean_shift", length=4000, channels=1,
                         noise_std=0.1, ar_coeff=0.8, change_points=[2000],
                         magnitudes=[3.0], seed=11)
        x = gen_mean_shift(spec).values[:, 0]
        assert abs(x[1000:2000].mean() - 0.0) < 0.2
        assert abs(x[3000:].mean() - 3.0) < 0.2

    def test_ar_coefficient_recoverable_by_least_squares(self):
        spec = DriftSpec(kind="mean_shift", length=6000, channels=1,
                         noise_std=0.5, ar_coeff=0.7, seed=12)
        x = gen_mean_shift(spec).values[:, 0]
        est = np.linalg.lstsq(x[:-1, None], x[1:], rcond=None)[0][0]
        assert abs(est - 0.7) < 0.05

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mean_shift"):
            gen_mean_shift(DriftSpec(kind="concept_drift"))


class TestConceptDrift:
    def test_coefficient_schedule(self):
        spec = DriftSpec(kind="concept_drift", length=100, channels=3,
                         change_points=[10, 30], magnitudes=[1.0, 2.0], seed=0)
        a1, a2 = concept_coefficients(spec, 9)
        np.testing.assert_array_equal(a1, [CONCEPT_A1, CONCEPT_A1])
        np.testing.assert_array_equal(a2, [CONCEPT_A2, CONCEPT_A2])
        a1, _ = concept_coefficients(spec, 10)
        np.testing.assert_array_equal(a1, [-CONCEPT_A1, CONCEPT_A1])
        a1, _ = concept_coefficients(spec, 30)
        np.testing.assert_array_equal(a1, [2.0 * CONCEPT_A1, CONCEPT_A1])

    def test_noiseless_target_is_exact_lagged_map(self):
        spec = DriftSpec(kind="concept_drift", length=200, channels=3,
                         noise_std=0.0, change_points=[120], magnitudes=[1.0],
                         seed=4)
        frame = gen_concept_drift(spec)
        drivers = frame.values[:, :2]
        target = frame.values[:, 2]
        for t in range(2, 200):
            a1, a2 = concept_coefficients(spec, t)
            assert target[t] == pytest.approx(
                a1 @ drivers[t - 1] + a2 @ drivers[t - 2], abs=1e-12)

    @pytest.mark.parametrize("points, mags", [
        ([], []),                                   # no change point
        ([1, 40], [1.0, 1.0]),                      # one at t <= 2, one later
        ([0, 2, 57, 58, 140], [0.5, 3.0, 1.5, 0.25, 2.0]),
        ([2.5, 99.5], [2.0, 0.5]),                  # between rows
    ])
    def test_matches_per_row_coefficients(self, points, mags):
        # the generator takes each segment's coefficients once; the oracle
        # asks concept_coefficients for every row, as the map's definition does
        spec = DriftSpec(kind="concept_drift", length=200, channels=3,
                         change_points=points, magnitudes=mags, seed=11)
        frame = gen_concept_drift(spec)
        rng = np.random.default_rng(spec.seed)
        innov = rng.standard_normal((200, 2))
        eps = rng.standard_normal(200)
        drivers = np.empty((200, 2))
        drivers[0] = innov[0]
        for t in range(1, 200):
            drivers[t] = spec.ar_coeff * drivers[t - 1] + innov[t]
        target = np.empty(200)
        for t in range(200):
            if t < 2:
                target[t] = spec.noise_std * eps[t]
                continue
            a1, a2 = concept_coefficients(spec, t)
            target[t] = (a1 @ drivers[t - 1] + a2 @ drivers[t - 2]
                         + spec.noise_std * eps[t])
        want = np.column_stack([drivers, target])
        assert frame.values.tobytes() == want.tobytes()

    def test_columns_and_shape(self):
        frame = gen_concept_drift(DriftSpec(length=30, channels=4, seed=2))
        assert frame.columns == ["driver0", "driver1", "driver2", "target"]
        assert frame.values.shape == (30, 4)

    def test_flip_recovered_by_windowed_regression(self):
        spec = DriftSpec(kind="concept_drift", length=6000, channels=2,
                         noise_std=0.1, change_points=[4000], magnitudes=[1.0],
                         seed=2025)
        frame = gen_concept_drift(spec)
        d = frame.values[:, 0]
        y = frame.values[:, 1]

        def fit(lo, hi):
            A = np.column_stack([d[lo - 1:hi - 1], d[lo - 2:hi - 2]])
            return np.linalg.lstsq(A, y[lo:hi], rcond=None)[0]

        pre = fit(1000, 4000)
        post = fit(4100, 6000)
        np.testing.assert_allclose(pre, [CONCEPT_A1, CONCEPT_A2], atol=0.05)
        np.testing.assert_allclose(post, [-CONCEPT_A1, CONCEPT_A2], atol=0.05)

    def test_drift_changes_target_lag1_autocovariance(self):
        # the mapping change must be visible to a channel-independent model:
        # flipping a1 flips the a1*a2*(g0+g2) cross term, moving the
        # target's own lag-1 autocovariance by a closed-form amount
        rho = 0.8
        spec = DriftSpec(kind="concept_drift", length=8000, channels=2,
                         noise_std=0.1, ar_coeff=rho, change_points=[4000],
                         magnitudes=[1.0], seed=6)
        y = gen_concept_drift(spec).values[:, 1]

        def lag1(seg):
            seg = seg - seg.mean()
            return float(np.mean(seg[1:] * seg[:-1]))

        def theory(a1, a2=CONCEPT_A2):
            g = lambda j: rho ** j / (1.0 - rho ** 2)
            return (a1 ** 2 + a2 ** 2) * g(1) + a1 * a2 * (g(0) + g(2))

        assert lag1(y[100:4000]) == pytest.approx(theory(CONCEPT_A1), abs=0.7)
        assert lag1(y[4100:]) == pytest.approx(theory(-CONCEPT_A1), abs=0.7)
        assert theory(CONCEPT_A1) - theory(-CONCEPT_A1) > 3.0

    def test_deterministic_per_seed(self):
        spec = DriftSpec(kind="concept_drift", length=80, channels=2, seed=5)
        np.testing.assert_array_equal(gen_concept_drift(spec).values,
                                      gen_concept_drift(spec).values)

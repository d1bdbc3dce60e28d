import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from localglmnet import (
    Dataset,
    add_control,
    apply_standardize,
    load_csv,
    mse_loss,
    one_hot,
    rng_stream,
    standardize,
    synth_generate,
    synth_schema,
    true_mu,
    write_csv,
)
from localglmnet import data as data_mod, linalg
from localglmnet.data import Schema, parse_schema, read_key_values
from localglmnet.errors import ConfigError, DataError


class TestSchema:
    def test_parse_kinds_and_levels(self):
        schema = parse_schema(
            "# comment\n"
            "x1: continuous\n"
            "gas: binary\n"
            "brand: categorical(B1, B2)\n"
            "y: response\n"
            "expo: exposure\n"
            "junk: ignore\n")
        kinds = {c.name: c.kind for c in schema.columns}
        assert kinds == {"x1": "continuous", "gas": "binary", "brand": "categorical",
                         "y": "response", "expo": "exposure", "junk": "ignore"}
        assert next(c for c in schema.columns if c.name == "brand").levels == ("B1", "B2")

    def test_requires_one_response(self):
        with pytest.raises(ConfigError, match="response"):
            parse_schema("x1: continuous\n")

    def test_rejects_duplicate_column(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_schema("x1: continuous\nx1: binary\ny: response\n")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_schema("x1: numeric\ny: response\n")

    def test_rejects_two_exposures(self):
        with pytest.raises(ConfigError, match="exposure"):
            parse_schema("y: response\nv1: exposure\nv2: exposure\n")

    def test_drop_marks_ignore(self):
        schema = parse_schema("x1: continuous\nx2: continuous\ny: response\n")
        reduced = schema.drop(["x2"])
        assert [c.name for c in reduced.feature_columns] == ["x1"]
        with pytest.raises(ConfigError, match="unknown"):
            schema.drop(["nope"])


class TestReadKeyValues:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\n# note\nb = two words\n")
        assert read_key_values(p) == {"a": "1", "b": "two words"}

    def test_rejects_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just some text\n")
        with pytest.raises(ConfigError):
            read_key_values(p)


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        return p

    def test_small_file(self, tmp_path):
        p = self.write(tmp_path, "x1,y\n1.0,2.0\n2.0,3.0\n0.5,1.0\n")
        ds = load_csv(p, parse_schema("x1: continuous\ny: response\n"))
        assert ds.n == 3 and ds.q == 1
        assert_allclose(ds.v, 1.0)  # exposure defaults to one

    def test_categorical_two_levels_two_columns(self, tmp_path):
        p = self.write(tmp_path, "c,y\nA,1\nB,2\nA,3\n")
        ds = load_csv(p, parse_schema("c: categorical\ny: response\n"))
        assert ds.feature_names == ["c=A", "c=B"]
        assert_allclose(ds.X, [[1, 0], [0, 1], [1, 0]])
        assert ds.groups == {"c": [0, 1]}

    def test_missing_column(self, tmp_path):
        p = self.write(tmp_path, "x1,y\n1,2\n")
        with pytest.raises(DataError, match="x2"):
            load_csv(p, parse_schema("x1: continuous\nx2: continuous\ny: response\n"))

    def test_unparseable_cell_addressed(self, tmp_path):
        p = self.write(tmp_path, "x1,y\n1.0,2.0\nfoo,3.0\n")
        with pytest.raises(DataError, match="row 2.*x1"):
            load_csv(p, parse_schema("x1: continuous\ny: response\n"))

    def test_missing_value_addressed(self, tmp_path):
        p = self.write(tmp_path, "x1,y\n1.0,\n")
        with pytest.raises(DataError, match="row 1.*y"):
            load_csv(p, parse_schema("x1: continuous\ny: response\n"))

    def test_nonpositive_exposure_rejected(self, tmp_path):
        p = self.write(tmp_path, "x1,y,v\n1,2,0.0\n")
        with pytest.raises(DataError, match="exposure"):
            load_csv(p, parse_schema("x1: continuous\ny: response\nv: exposure\n"))

    def test_pinned_levels_reject_unseen(self, tmp_path):
        p = self.write(tmp_path, "c,y\nA,1\nC,2\n")
        with pytest.raises(DataError, match="unknown categorical level"):
            load_csv(p, parse_schema("c: categorical(A, B)\ny: response\n"))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("row,offset", [(1, 0), (1500, 0), (1500, 4), (2000, 2)])
    @pytest.mark.parametrize("kind", ["ignore", "categorical"])
    def test_invalid_utf8_names_path_and_row(self, tmp_path, monkeypatch, end, row, offset,
                                             kind):
        # 2000 rows outgrow the first block the text reader decodes, so a late
        # byte fails inside the body parse rather than at the header.
        lines = ["x1,c,y"] + [f"{i}.5,{'AB'[i % 2]},{i}.25" for i in range(1, 2001)]
        raw = bytearray(end.join(lines).encode() + end.encode())
        raw.insert(sum(len(line) + len(end) for line in lines[:row]) + offset, 0xFF)
        p = tmp_path / "d.csv"
        p.write_bytes(bytes(raw))
        if kind == "ignore":  # the numeric parse stops at the byte: no per-cell re-read
            monkeypatch.setattr(data_mod, "_body_cells", None)
        with pytest.raises(DataError) as err:
            load_csv(p, parse_schema(f"x1: continuous\nc: {kind}\ny: response\n"))
        assert str(err.value) == f"{p}: row {row}: byte 0xff is not valid UTF-8"

    @pytest.mark.parametrize("offset", [0, 2])
    def test_invalid_utf8_row_counts_records_not_lines(self, tmp_path, offset):
        # Row 2's quoted cell holds a line break; the byte in row 4 must be
        # named as the csv reader numbers rows, as every other error is.
        head = b'x1,c,y\n1.5,A,1\n2.5,"A\nB",2\n3.5,A,3\n'
        p = tmp_path / "d.csv"
        p.write_bytes(head + b"4.5,A,4\n"[:offset] + b"\xff" + b"4.5,A,4\n"[offset:])
        with pytest.raises(DataError) as err:
            load_csv(p, parse_schema("x1: continuous\nc: categorical\ny: response\n"))
        assert str(err.value) == f"{p}: row 4: byte 0xff is not valid UTF-8"

    def test_undecodable_on_a_valid_file(self, tmp_path):
        # Reached only when the file changed after the failed text read.
        p = self.write(tmp_path, "x1,y\n1.0,2.0\n")
        assert data_mod._undecodable(p) == "not valid UTF-8"

    def test_invalid_utf8_in_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"x1,\xe9y\n1.0,2.0\n")
        with pytest.raises(DataError, match="d.csv: header: byte 0xe9 is not valid UTF-8"):
            load_csv(p, parse_schema("x1: continuous\ny: response\n"))

    def test_round_trip_write(self, tmp_path):
        learn, _ = synth_generate(20, 1, rng_stream(0, "rt"))
        out = tmp_path / "learn.csv"
        write_csv(learn, out)
        back = load_csv(out, synth_schema())
        assert_allclose(back.X, learn.X)
        assert_allclose(back.y, learn.y)


# The per-cell reader and row writer that load_csv and write_csv replaced,
# kept as the reference: every cell goes through csv and float(). Two
# changes follow load_csv: non-finite numbers are rejected, and every row
# and column error starts with the path.
def reference_parse_float(path, cell, row, col):
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}: row {row}, column {col!r}: cannot parse {cell!r} "
                        "as a number") from None
    if not np.isfinite(value):
        raise DataError(f"{path}: row {row}, column {col!r}: {cell!r} is not a finite number")
    return value


def reference_load_csv(path, schema):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file (header row required)") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    missing = [c.name for c in schema.columns if c.kind != "ignore" and c.name not in header]
    if missing:
        raise DataError(f"{path}: missing required columns: {missing}")
    col_of = {name: j for j, name in enumerate(header)}
    raw = {}
    for c in schema.columns:
        if c.kind == "ignore":
            continue
        j = col_of[c.name]
        cells = []
        for i, row in enumerate(rows, start=1):
            if j >= len(row) or row[j] == "":
                raise DataError(f"{path}: row {i}, column {c.name!r}: missing value")
            cells.append(row[j])
        raw[c.name] = cells
    n = len(rows)
    if n == 0:
        raise DataError(f"{path}: no data rows")
    y = np.array([reference_parse_float(path, c, i + 1, schema.response)
                  for i, c in enumerate(raw[schema.response])])
    if schema.exposure is not None:
        v = np.array([reference_parse_float(path, c, i + 1, schema.exposure)
                      for i, c in enumerate(raw[schema.exposure])])
        if np.any(v <= 0):
            bad = int(np.argmax(v <= 0)) + 1
            raise DataError(f"{path}: row {bad}, column {schema.exposure!r}: "
                            "exposure must be > 0")
    else:
        v = np.ones(n)
    cols, names, kinds, groups = [], [], [], {}
    for c in schema.feature_columns:
        if c.kind == "categorical":
            try:
                mat, levels = one_hot(raw[c.name], c.levels, c.name)
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
            start = len(names)
            for k, lv in enumerate(levels):
                cols.append(mat[:, k])
                names.append(f"{c.name}={lv}")
                kinds.append("onehot")
            groups[c.name] = list(range(start, start + len(levels)))
        else:
            cols.append(np.array([reference_parse_float(path, cell, i + 1, c.name)
                                  for i, cell in enumerate(raw[c.name])]))
            names.append(c.name)
            kinds.append(c.kind)
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    return X, y, v, names, kinds, groups


def reference_write_csv(dataset, path):
    header = list(dataset.feature_names) + ["y"]
    has_v = not np.all(dataset.v == 1.0)
    if has_v:
        header.append("v")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(x)) for x in dataset.X[i]]
            row.append(repr(float(dataset.y[i])))
            if has_v:
                row.append(repr(float(dataset.v[i])))
            writer.writerow(row)


def outcome(load, path, schema):
    """``("ok", arrays as bytes, names, kinds, groups)`` or ``("error", message)``."""
    try:
        got = load(path, schema)
    except DataError as exc:
        return ("error", str(exc))
    if isinstance(got, Dataset):
        got = (got.X, got.y, got.v, got.feature_names, got.feature_kinds, got.groups)
    X, y, v, names, kinds, groups = got
    return ("ok", X.shape, X.tobytes(), y.tobytes(), v.tobytes(), names, kinds, groups)


ODD_CELLS = ["", " ", "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1_000",
             "#2", "abc", " 2.5 ", "\t3", '"1.5"', '" 7 "', "+1", ".5", "5.", "-0.0", "1e-320",
             "0x10", "0", "-3", "1,2", '"1,2"', '"A"']


@st.composite
def csv_cases(draw):
    """A small CSV text and its schema, with rare odd cells, blank lines, short
    rows and either line ending."""
    with_cat, with_v, pinned = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    kinds = {"x1": "continuous", "x2": "binary", "y": "response", "junk": "ignore"}
    if with_cat:
        kinds["c"] = "categorical(A, B)" if pinned else "categorical"
    if with_v:
        kinds["v"] = "exposure"
    header = draw(st.permutations(list(kinds)))
    schema = parse_schema("".join(f"{name}: {kinds[name]}\n" for name in header))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    positive = st.floats(min_value=1e-3, max_value=1e3).map(repr)
    cell = {"x1": number, "x2": st.sampled_from(["0", "1", "0.0", "1.0"]), "y": number,
            "junk": st.sampled_from(["z", "", "0.5"]), "c": st.sampled_from(["A", "B", "C"]),
            "v": positive}
    n = draw(st.integers(min_value=0, max_value=8))
    rows = [[draw(cell[name]) for name in header] for _ in range(n)]
    if n:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(header) - 1))
            rows[i][j] = draw(st.sampled_from(ODD_CELLS))
        if draw(st.integers(0, 4)) == 0:
            i = draw(st.integers(0, n - 1))
            rows[i] = rows[i][:draw(st.integers(0, len(header) - 1))]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(min_value=1, max_value=2)) if draw(st.integers(0, 3)) == 0
                   else 0):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  "])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, schema


def per_row_write_columns(path, header, columns):
    """Reference: the float table as ``write_rows`` wrote it, ``repr(float(v))``
    cell by cell."""
    data_mod.write_rows(path, header, [[repr(float(v)) for v in row]
                                       for row in zip(*columns)])


@st.composite
def float_tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.sampled_from([0, 1, draw(st.integers(2, 60))]))
    cell = st.one_of(st.floats(width=64),
                     st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 0.1]))
    columns = [np.array(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
               for _ in range(n_cols)]
    header = draw(st.lists(st.text(max_size=6), min_size=n_cols, max_size=n_cols))
    return header, columns


class TestFastCsvIo:
    @settings(max_examples=120, deadline=None)
    @given(float_tables())
    def test_write_columns_matches_per_row_reference(self, tmp_path_factory, table):
        header, columns = table
        directory = tmp_path_factory.mktemp("cols")
        data_mod.write_columns(directory / "got.csv", header, columns)
        per_row_write_columns(directory / "want.csv", header, columns)
        assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()

    def test_write_columns_quotes_a_name_with_a_comma(self, tmp_path):
        # The header of a scatter CSV is the feature name and the plotted kind.
        path = tmp_path / "attention_x,1.csv"
        data_mod.write_columns(path, ["x,1", "attention"], [np.array([0.5, -0.0]),
                                                             np.array([0.1, 1e-300])])
        assert path.read_text() == '"x,1",attention\n0.5,0.1\n-0.0,1e-300\n'

    @settings(max_examples=400, deadline=None)
    @given(csv_cases())
    def test_load_matches_per_cell_reference(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path, schema) == outcome(reference_load_csv, path, schema)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    @pytest.mark.parametrize("column", ["x1", "y"])
    def test_non_finite_cell_named(self, tmp_path, cell, column):
        rows = [["0.5", "1.0"] for _ in range(6)]
        rows[4][["x1", "y"].index(column)] = cell
        path = tmp_path / "d.csv"
        path.write_text("x1,y\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(DataError, match=f"row 5, column '{column}'.*not a finite"):
            load_csv(path, parse_schema("x1: continuous\ny: response\n"))

    def test_quoted_comma_does_not_shift_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('c,junk,x1,y\n"a,b",0.5,1.5,2.5\nd,0.5,3.5,4.5\n')
        schema = parse_schema("c: categorical\njunk: ignore\nx1: continuous\ny: response\n")
        ds = load_csv(path, schema)
        assert ds.feature_names == ["c=a,b", "c=d", "x1"]
        assert ds.X[:, 2].tolist() == [1.5, 3.5] and ds.y.tolist() == [2.5, 4.5]
        assert outcome(load_csv, path, schema) == outcome(reference_load_csv, path, schema)

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y\n1.0,2.0\n\n3.0,4.0\n")
        with pytest.raises(DataError, match="row 2, column 'x1': missing value"):
            load_csv(path, parse_schema("x1: continuous\ny: response\n"))

    @staticmethod
    def no_per_cell_parse(monkeypatch):
        def refuse(cells, col):
            raise AssertionError(f"column {col!r} went through the per-cell reader")
        monkeypatch.setattr(data_mod, "_parse_column", refuse)

    def test_quote_on_last_row_falls_back(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text('x1,junk,y\n1.5,a,2.5\n3.5,b,4.5\n5.5,"c,d",6.5\n')
        schema = parse_schema("x1: continuous\njunk: ignore\ny: response\n")
        parsed, parse_column = [], data_mod._parse_column

        def spy(cells, col):
            parsed.append(col)
            return parse_column(cells, col)

        monkeypatch.setattr(data_mod, "_parse_column", spy)
        ds = load_csv(path, schema)
        assert sorted(parsed) == ["x1", "y"]  # the per-cell reader ran
        assert ds.X[:, 0].tolist() == [1.5, 3.5, 5.5] and ds.y.tolist() == [2.5, 4.5, 6.5]
        assert outcome(load_csv, path, schema) == outcome(reference_load_csv, path, schema)

    @pytest.mark.parametrize("text", ["x1,y\r1.5,2.5\r3.5,4.5\r", "x1,y\r1.5,2.5\r3.5,4.5",
                                      "x1,y\n1.5,2.5\n3.5,4.5", "x1,y\r\n1.5,2.5\r\n3.5,4.5"])
    def test_line_ends_stay_on_the_fast_path(self, tmp_path, monkeypatch, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        schema = parse_schema("x1: continuous\ny: response\n")
        want = outcome(reference_load_csv, path, schema)
        self.no_per_cell_parse(monkeypatch)
        ds = load_csv(path, schema)
        assert ds.X[:, 0].tolist() == [1.5, 3.5] and ds.y.tolist() == [2.5, 4.5]
        assert outcome(load_csv, path, schema) == want

    def test_categorical_file_parses_numbers_with_loadtxt(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("c,x1,y,v\nA,1.5,2.5,0.5\nB,3.5,4.5,1.0\nA,5.5,6.5,2.0\n")
        schema = parse_schema("c: categorical\nx1: continuous\ny: response\nv: exposure\n")
        want = outcome(reference_load_csv, path, schema)
        self.no_per_cell_parse(monkeypatch)
        ds = load_csv(path, schema)
        assert ds.feature_names == ["c=A", "c=B", "x1"]
        assert outcome(load_csv, path, schema) == want

    def test_parse_memory_is_bounded_by_the_output(self, tmp_path):
        """Peak traced allocation of a 20k-row parse over the bytes it returns.
        Holding the body as a string and again as a StringIO read 12.1."""
        learn, _ = synth_generate(20000, 1, rng_stream(20, "memory"))
        path = tmp_path / "learn.csv"
        write_csv(learn, path)
        tracemalloc.start()
        try:
            ds = load_csv(path, synth_schema())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (ds.X.nbytes + ds.y.nbytes + ds.v.nbytes) < 4

    @pytest.mark.parametrize("with_v", [False, True])
    def test_write_matches_reference_bytes(self, tmp_path, monkeypatch, with_v):
        monkeypatch.setattr(linalg, "EVAL_BLOCK_ROWS", 4)  # several blocks, one partial
        rng = rng_stream(3, "write")
        X = rng.standard_normal((11, 3)) * np.logspace(-300, 300, 3)
        X[0, 0], X[1, 1] = -0.0, 5e-324
        v = rng.uniform(0.1, 1.0, 11) if with_v else np.ones(11)
        ds = Dataset(X=X, y=rng.standard_normal(11), v=v, feature_names=["a", "b,c", "d"],
                     feature_kinds=["continuous"] * 3, groups={})
        write_csv(ds, tmp_path / "new.csv")
        reference_write_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        schema = parse_schema("a: continuous\nb,c: continuous\nd: continuous\ny: response\n"
                              + ("v: exposure\n" if with_v else ""))
        back = load_csv(tmp_path / "new.csv", schema)
        assert back.X.tobytes() == X.tobytes() and back.v.tobytes() == v.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data):
        n, q = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
        edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300,
                                1e300, -1e300, 1.7976931348623157e308])
        finite = st.floats(allow_nan=False, allow_infinity=False) | edge
        cells = data.draw(st.lists(finite, min_size=n * (q + 1), max_size=n * (q + 1)))
        values = np.array(cells).reshape(n, q + 1)
        with_v = data.draw(st.booleans())
        v = (np.array(data.draw(st.lists(st.floats(min_value=5e-324, max_value=1e300),
                                         min_size=n, max_size=n)))
             if with_v else np.ones(n))
        names = [f"x{j}" for j in range(q)]
        ds = Dataset(X=values[:, :q], y=values[:, q], v=v, feature_names=names,
                     feature_kinds=["continuous"] * q, groups={})
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "EVAL_BLOCK_ROWS", data.draw(st.integers(1, 5)))
            write_csv(ds, path)
        schema = parse_schema("".join(f"{x}: continuous\n" for x in names) + "y: response\n"
                              + ("" if np.all(v == 1.0) else "v: exposure\n"))
        back = load_csv(path, schema)
        assert back.X.tobytes() == ds.X.tobytes()
        assert back.y.tobytes() == ds.y.tobytes() and back.v.tobytes() == v.tobytes()


class TestOneHot:
    def test_first_appearance_order(self):
        mat, levels = one_hot(["b", "a", "b"])
        assert levels == ("b", "a")
        assert_allclose(mat, [[1, 0], [0, 1], [1, 0]])

    def test_row_sums_partition(self):
        mat, _ = one_hot(list("abcabcc"))
        assert_allclose(mat.sum(axis=1), 1.0)

    def test_pinned_order(self):
        mat, levels = one_hot(["b", "a"], levels=("a", "b"))
        assert levels == ("a", "b")
        assert_allclose(mat, [[0, 1], [1, 0]])

    def test_unseen_level(self):
        with pytest.raises(DataError, match="row 2"):
            one_hot(["a", "c"], levels=("a", "b"))

    def test_decode_recovers_levels(self):
        values = list("cabacbc")
        mat, levels = one_hot(values)
        decoded = [levels[j] for j in np.argmax(mat, axis=1)]
        assert decoded == values


class TestStandardize:
    def make(self, X, kinds=None):
        from localglmnet import Dataset

        kinds = kinds or ["continuous"] * X.shape[1]
        return Dataset(X=X.astype(float), y=np.zeros(len(X)), v=np.ones(len(X)),
                       feature_names=[f"c{j}" for j in range(X.shape[1])],
                       feature_kinds=kinds, groups={})

    def test_two_point_column(self):
        ds = self.make(np.array([[0.0], [2.0]]))
        std, params = standardize(ds)
        # Sample sd of (0, 2) is sqrt(2), so values land at +-1/sqrt(2).
        assert_allclose(std.X[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert params.means[0] == 1.0

    def test_learning_moments_applied_to_test(self):
        rng = rng_stream(1, "std")
        learn = self.make(rng.standard_normal((50, 2)) * 3 + 1)
        test = self.make(rng.standard_normal((20, 2)))
        _, params = standardize(learn)
        applied = apply_standardize(test, params)
        expected = (test.X - params.means) / params.sds
        assert_allclose(applied.X, expected)

    def test_moment_invariants_on_learning_split(self):
        rng = rng_stream(2, "std")
        ds = self.make(rng.uniform(5, 9, (200, 3)))
        std, _ = standardize(ds)
        assert np.abs(std.X.mean(axis=0)).max() < 1e-10
        assert np.abs(std.X.std(axis=0, ddof=1) - 1.0).max() < 1e-10

    def test_idempotent_on_standardized(self):
        rng = rng_stream(3, "std")
        ds = self.make(rng.standard_normal((100, 1)))
        std, _ = standardize(ds)
        again, _ = standardize(std)
        assert np.abs(again.X - std.X).max() < 1e-12

    def test_round_trip_inverse(self):
        rng = rng_stream(4, "std")
        ds = self.make(rng.uniform(-4, 10, (60, 2)))
        std, params = standardize(ds)
        cols = [std.feature_names.index(name) for name in params.names]
        back = std.X.copy()
        back[:, cols] = back[:, cols] * params.sds + params.means
        assert np.abs(back - ds.X).max() < 1e-10

    def test_onehot_untouched(self):
        X = np.array([[1.0, 1.0], [3.0, 0.0]])
        ds = self.make(X, kinds=["continuous", "onehot"])
        std, params = standardize(ds)
        assert_allclose(std.X[:, 1], [1.0, 0.0])
        assert params.names == ["c0"]

    def test_constant_column_rejected(self):
        ds = self.make(np.array([[1.0], [1.0], [1.0]]))
        with pytest.raises(DataError, match="ignore"):
            standardize(ds)


class TestAddControl:
    def make(self, n):
        from localglmnet import Dataset

        return Dataset(X=np.zeros((n, 1)), y=np.zeros(n), v=np.ones(n),
                       feature_names=["x1"], feature_kinds=["continuous"], groups={})

    def test_normal_control_moments(self):
        ds = add_control(self.make(100_000), "normal", rng_stream(5, "ctrl"))
        col = ds.X[:, 1]
        assert abs(col.mean()) < 1e-12  # empirically standardized at creation
        assert abs(col.std(ddof=1) - 1.0) < 1e-12
        assert ds.feature_names[-1] == "rand_n"
        assert ds.feature_kinds[-1] == "control"

    def test_uniform_control_support(self):
        ds = add_control(self.make(100_000), "uniform", rng_stream(6, "ctrl"))
        col = ds.X[:, 1]
        # Standardized uniform lives on roughly [-sqrt(3), sqrt(3)].
        assert abs(col.min() + np.sqrt(3)) < 0.02
        assert abs(col.max() - np.sqrt(3)) < 0.02

    def test_control_independent_of_features(self):
        from localglmnet import Dataset

        rng = rng_stream(7, "ctrl")
        base = Dataset(X=rng.standard_normal((100_000, 2)), y=np.zeros(100_000),
                       v=np.ones(100_000), feature_names=["a", "b"],
                       feature_kinds=["continuous"] * 2, groups={})
        ds = add_control(base, "normal", rng_stream(8, "ctrl"))
        for j in range(2):
            assert abs(np.corrcoef(ds.X[:, j], ds.X[:, 2])[0, 1]) < 0.02

    def test_bad_dist(self):
        with pytest.raises(ValueError):
            add_control(self.make(10), "cauchy", rng_stream(0, "c"))


class TestDatasetStandardized:
    """Dataset.standardized: the continuous, binary and control columns, in order."""

    def make(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a,brand,gas,b,y\n1.0,P,0,4.0,1.0\n2.0,Q,1,3.0,0.0\n"
                        "3.0,R,1,1.0,1.0\n4.0,P,0,2.0,0.0\n")
        schema = parse_schema("a: continuous\nbrand: categorical\ngas: binary\n"
                              "b: continuous\ny: response\n")
        return load_csv(path, schema)

    def test_onehot_columns_left_out(self, tmp_path):
        ds = self.make(tmp_path)
        assert ds.feature_kinds == ["continuous", "onehot", "onehot", "onehot", "binary",
                                    "continuous"]
        assert ds.standardized == [0, 4, 5]

    def test_holds_after_subset_and_add_control(self, tmp_path):
        ds = self.make(tmp_path).subset([3, 1])
        assert ds.standardized == [0, 4, 5]
        ds = add_control(ds, "normal", rng_stream(1, "ctrl"))
        assert ds.feature_kinds[6] == "control"
        assert ds.standardized == [0, 4, 5, 6]

    def test_standardize_scales_exactly_these_columns(self, tmp_path):
        ds = self.make(tmp_path)
        _, params = standardize(ds)
        assert params.names == [ds.feature_names[j] for j in ds.standardized]


class TestTrueMu:
    def test_zero_vector(self):
        assert true_mu(np.zeros(8)) == 0.0

    def test_first_component(self):
        x = np.zeros(8)
        x[0] = 1.0
        assert true_mu(x) == 0.5

    def test_quadratic_component(self):
        x = np.zeros(8)
        x[1] = 2.0
        assert true_mu(x) == -1.0

    def test_x3_sign_flip_identity(self):
        # Flipping x3 flips exactly the |x3| sin(2 x3) term (it is odd).
        rng = rng_stream(9, "mu")
        for _ in range(20):
            x = rng.standard_normal(8)
            flipped = x.copy()
            flipped[2] = -x[2]
            term = 0.5 * abs(x[2]) * np.sin(2 * x[2])
            assert true_mu(flipped) == pytest.approx(true_mu(x) - 2 * term, abs=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            true_mu(np.zeros(7))


class TestSynthGenerate:
    def test_deterministic(self):
        l1, t1 = synth_generate(50, 30, rng_stream(10, "gen"))
        l2, t2 = synth_generate(50, 30, rng_stream(10, "gen"))
        assert np.array_equal(l1.X, l2.X) and np.array_equal(t1.y, t2.y)

    def test_shapes_and_names(self):
        learn, test = synth_generate(40, 20, rng_stream(11, "gen"))
        assert learn.X.shape == (40, 8) and test.X.shape == (20, 8)
        assert learn.feature_names == [f"x{j}" for j in range(1, 9)]

    def test_statistical_structure(self):
        learn, _ = synth_generate(100_000, 1, rng_stream(12, "gen"))
        corr = np.corrcoef(learn.X.T)
        assert 0.48 <= corr[1, 7] <= 0.52
        off = corr - np.eye(8)
        off[1, 7] = off[7, 1] = 0.0
        assert np.abs(off).max() < 0.02
        noise = learn.y - true_mu(learn.X)
        assert 0.98 <= noise.var() <= 1.02

    def test_true_model_score_near_one(self):
        _, test = synth_generate(1, 100_000, rng_stream(13, "gen"))
        assert 0.98 <= mse_loss(test.y, true_mu(test.X)) <= 1.02

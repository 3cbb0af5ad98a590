import numpy as np
import pytest

from cdpa import InputError, read_matrix, read_matrix_binary, write_matrix_binary


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 4))
    a[0] = [np.nan, -0.0, np.inf, 5e-324]
    path = tmp_path / "m.cdpm"
    write_matrix_binary(path, a)
    b = read_matrix_binary(path)
    assert b.shape == a.shape and b.tobytes() == a.tobytes()
    # the file's column-major layout is kept, in a buffer of its own
    assert b.flags.f_contiguous and b.flags.writeable and b.flags.owndata


def test_binary_header(tmp_path):
    path = tmp_path / "m.cdpm"
    write_matrix_binary(path, np.ones((3, 2)))
    raw = path.read_bytes()
    assert raw[:4] == b"CDPM"
    assert int.from_bytes(raw[4:8], "little") == 3
    assert int.from_bytes(raw[8:12], "little") == 2
    assert len(raw) == 12 + 3 * 2 * 8


def test_binary_payload_bytes_match_column_major_copy(tmp_path):
    rng = np.random.default_rng(1)
    base = rng.standard_normal((9, 6))
    inputs = {
        "c-ordered": base,
        "f-ordered": np.asfortranarray(base),
        "strided": base[::2, 1::2],
        "zero-width": np.zeros((4, 0)),
        "zero-height": np.zeros((0, 4)),
        "float32": base.astype(np.float32),
    }
    for name, a in inputs.items():
        # the payload as written by the earlier two-copy expression
        old = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
        want = np.asfortranarray(old).tobytes(order="F")
        path = tmp_path / f"{name}.cdpm"
        write_matrix_binary(path, a)
        assert path.read_bytes()[12:] == want, name


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.cdpm"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(InputError, match="magic"):
        read_matrix_binary(path)


def test_binary_truncated(tmp_path):
    path = tmp_path / "short.cdpm"
    write_matrix_binary(path, np.ones((3, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InputError, match="payload"):
        read_matrix_binary(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw[:0], "truncated header"),
        (lambda raw: raw[:11], "truncated header"),
        (lambda raw: raw[:-1], "payload"),
        (lambda raw: raw + b"\0", "payload"),
        (lambda raw: b"CDPN" + raw[4:], "magic"),
    ],
)
def test_binary_malformed_file_rejected(tmp_path, edit, message):
    path = tmp_path / "m.cdpm"
    write_matrix_binary(path, np.ones((3, 2)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(InputError, match=message):
        read_matrix_binary(path)


def test_directory_is_input_error(tmp_path):
    for read in (read_matrix, read_matrix_binary):
        with pytest.raises(InputError, match="cannot read"):
            read(tmp_path)


def test_read_sniffs_binary(tmp_path):
    a = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "anyname.dat"
    write_matrix_binary(path, a)
    np.testing.assert_array_equal(read_matrix(path), a)


def test_csv_plain(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")
    np.testing.assert_array_equal(read_matrix(path), [[1, 2, 3], [4, 5, 6]])


def test_csv_header_and_row_names(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("name,s1,s2,s3\ngeneA,1,2.5,3\ngeneB,-4,5,6e-1\n")
    np.testing.assert_allclose(read_matrix(path), [[1, 2.5, 3], [-4, 5, 0.6]])


@pytest.mark.parametrize(
    "text",
    ["1,2,3\n4,5,6\n", "s1,s2,s3\n1,2,3\n4,5,6\n", "a,1,2,3\nb,4,5,6\n", "name,s1,s2,s3\na,1,2,3\nb,4,5,6\n"],
    ids=["neither", "header", "row-names", "both"],
)
def test_csv_byte_order_mark_is_dropped(tmp_path, text):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark, which
    # must not turn the first field into a row name
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    np.testing.assert_array_equal(read_matrix(marked), read_matrix(plain))
    np.testing.assert_array_equal(read_matrix(marked), [[1, 2, 3], [4, 5, 6]])


def test_tsv(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("s1\ts2\n1\t2\n3\t4\n")
    np.testing.assert_array_equal(read_matrix(path), [[1, 2], [3, 4]])


def test_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(InputError, match=r":2:"):
        read_matrix(path)


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(InputError, match=r":2:"):
        read_matrix(path)


def test_missing_file():
    with pytest.raises(InputError, match="no such file"):
        read_matrix("/nonexistent/file.csv")

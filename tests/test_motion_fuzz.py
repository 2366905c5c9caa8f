"""Fuzzed motion files: load_motion raises a ParseError that names the file
and, where the fault lies in one line, that line; never a MemoryError, a
UnicodeDecodeError or a traceback. `moticomp train-predictor` exits 2 on a
training split holding such a file, printing that error."""

import dataclasses

import numpy as np
import pytest

from moticomp.cli import dispatch
from moticomp.datagen import (default_manifest, load_motion, manifest_to_json, save_motion,
                              save_split)
from moticomp.errors import ManifestError, ParseError
from moticomp.motion import MotionSequence

HEADER = "champlite v1 J=2 fps=10.0 frames=4 label=wave"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The bytes of a sound motion file: J=2, 4 frames."""
    path = tmp_path_factory.mktemp("sound") / "m.txt"
    data = np.random.default_rng(0).normal(scale=100.0, size=(4, 6))
    save_motion(path, MotionSequence(data=data, fps=10.0, label="wave"))
    return path.read_bytes()


def with_lines(saved, edit):
    """The file's bytes after edit(lines) changes its list of text lines in place."""
    lines = saved.decode("utf-8").split("\n")
    edit(lines)
    return "\n".join(lines).encode("utf-8")


def assert_refused(tmp_path, content, *named):
    """load_motion raises a ParseError holding the path and every string of named."""
    path = tmp_path / "fuzzed.txt"
    path.write_bytes(content)
    with pytest.raises(ParseError) as caught:
        load_motion(path)
    for part in (str(path), *named):
        assert part in str(caught.value)
    return caught.value


def test_sound_file_loads(tmp_path, saved):
    path = tmp_path / "m.txt"
    path.write_bytes(saved)
    assert saved.decode("utf-8").startswith(HEADER + "\n")
    assert load_motion(path).data.shape == (4, 6)


def test_non_ascii_label_round_trips_as_utf8(tmp_path):
    path = tmp_path / "m.txt"
    save_motion(path, MotionSequence(data=np.zeros((2, 3)), fps=10.0, label="tänzer+步"))
    assert "label=tänzer+步\n".encode("utf-8") in path.read_bytes()
    assert load_motion(path).label == "tänzer+步"


# labels that would break the one-line header or the file name save_split makes
# (open refuses a path holding a NUL byte)
BAD_LABELS = ["a\nb", "a\rb", "a\r\nb", "a\u2028b", "a\x0bb", "a/b", "wave\n", "a\x00b"]


@pytest.mark.parametrize("label", BAD_LABELS)
def test_label_that_breaks_the_file_is_refused_unwritten(tmp_path, label):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="holds '/' or a line break") as caught:
        save_motion(path, MotionSequence(data=np.zeros((2, 3)), fps=10.0, label=label))
    assert repr(label) in str(caught.value)
    assert not path.exists()


@pytest.mark.parametrize("label", BAD_LABELS)
def test_split_checks_every_label_before_it_creates_the_directory(tmp_path, label):
    seqs = [MotionSequence(data=np.zeros((2, 3)), fps=10.0, label=name)
            for name in ("wave", label)]
    with pytest.raises(ValueError, match="holds '/' or a line break"):
        save_split(tmp_path / "split", seqs)
    assert not (tmp_path / "split").exists()


@pytest.mark.parametrize("fraction", [0.0, 0.01, 0.25, 0.5, 0.75, 0.99])
def test_truncated(tmp_path, saved, fraction):
    # every cut loses at least the last row's newline and a digit or more
    assert_refused(tmp_path, saved[:int(fraction * (len(saved) - 2))])


def test_cut_inside_the_last_value(tmp_path, saved):
    # the last row still holds 6 numbers; only its missing newline shows the cut
    assert_refused(tmp_path, saved[:-5], "line 5: no newline at its end")


@pytest.mark.parametrize("header,reason", [
    ("champlite v1 J=two fps=10.0 frames=4 label=wave", "line 1: bad header"),
    ("champlite v1 J=-2 fps=10.0 frames=4 label=wave", "line 1: bad header"),
    ("champlite v1 J=2.0 fps=10.0 frames=4 label=wave", "line 1: bad header"),
    ("champlite v1 J=2 fps=10.0 frames=+4 label=wave", "line 1: bad header"),
    ("champlite v1 J=2 fps= frames=4 label=wave", "line 1: bad header"),
    ("champlite v1 J=2 fps=ten frames=4 label=wave", "line 1: bad fps 'ten'"),
    ("champlite v1 J=2 fps=0x10 frames=4 label=wave", "line 1: bad fps '0x10'"),
    ("champlite v1 J=2 fps=1e999 frames=4 label=wave", "fps must be positive and finite"),
    ("champlite v1 J=2 fps=-10 frames=4 label=wave", "fps must be positive and finite"),
    ("champlite v1 J=2 fps=10.0 frames=3 label=wave", "header promises 3 frames, found 4"),
    ("champlite v1 J=3 fps=10.0 frames=4 label=wave", "line 2: expected 9 values, got 6"),
    ("champlite v1 J=0 fps=10.0 frames=4 label=wave", "line 2: expected 0 values, got 6"),
    ("champlite v1 J=" + "9" * 5000 + " fps=10.0 frames=4 label=wave",
     "line 1: bad joint or frame count"),
    ("champlite v1 J=2 fps=10.0 frames=" + "9" * 5000 + " label=wave",
     "line 1: bad joint or frame count"),
], ids=["j-word", "j-negative", "j-float", "frames-signed", "fps-empty", "fps-word",
        "fps-hex", "fps-overflow", "fps-negative", "frames-short", "j-wide", "j-zero",
        "j-digits", "frames-digits"])
def test_bad_header_number(tmp_path, saved, header, reason):
    def edit(lines):
        lines[0] = header

    assert_refused(tmp_path, with_lines(saved, edit), reason)


@pytest.mark.parametrize("header,rows,reason", [
    ("J=100000000000 fps=10.0 frames=2", ["1 2 3", "4 5 6"],
     "line 2: expected 300000000000 values, got 3"),
    ("J=" + "9" * 40 + " fps=10.0 frames=2", ["1 2 3", "4 5 6"],
     f"line 2: expected {3 * 10 ** 40 - 3} values, got 3"),
    ("J=1 fps=10.0 frames=1000000000000000000", ["1 2 3", "4 5 6"],
     "header promises 1000000000000000000 frames, found 2"),
    ("J=100000000000 fps=10.0 frames=0", [], "motion data must be 2-D with >= 2 frames"),
], ids=["huge-j", "huge-j-40-digits", "huge-frames", "huge-j-no-frames"])
def test_huge_counts_allocate_nothing(tmp_path, header, rows, reason):
    text = "\n".join([f"champlite v1 {header} label=x", *rows]) + "\n"
    assert_refused(tmp_path, text.encode("utf-8"), reason)


@pytest.mark.parametrize("content", [
    "champlite v1 J=1 fps=10.0 frames=2 label=caf\xe9\n1 2 3\n4 5 6\n".encode("latin-1"),
    b"champlite v1 J=1 fps=10.0 frames=2 label=x\n1 2 3\n4 \xff 6\n",
    b"\xfe\xff" + "champlite v1 J=1 fps=10.0 frames=2 label=x\n".encode("utf-16-be"),
    b"champlite v1 J=1 fps=10.0 frames=2 label=x\n1 2 3\n4 5 6\n\xc3",
], ids=["latin1-label", "stray-byte-in-row", "utf16", "cut-multibyte"])
def test_non_utf8_bytes(tmp_path, content):
    assert_refused(tmp_path, content, "not UTF-8 text")


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e309"])
@pytest.mark.parametrize("row", [1, 4])
def test_non_finite_value(tmp_path, saved, value, row):
    def edit(lines):
        fields = lines[row].split()
        fields[2] = value
        lines[row] = " ".join(fields)

    assert_refused(tmp_path, with_lines(saved, edit), "non-finite values")


@pytest.mark.parametrize("change,got", [
    (lambda fields: fields[:-1], 5), (lambda fields: fields + ["0"], 7),
    (lambda fields: fields[:1], 1), (lambda fields: fields * 2, 12)],
    ids=["one-short", "one-long", "one-value", "doubled"])
@pytest.mark.parametrize("row", [1, 3])
def test_wrong_row_width_names_the_line(tmp_path, saved, change, got, row):
    def edit(lines):
        lines[row] = " ".join(change(lines[row].split()))

    assert_refused(tmp_path, with_lines(saved, edit),
                   f"line {row + 1}: expected 6 values, got {got}")


def test_line_numbers_count_blank_lines(tmp_path, saved):
    def edit(lines):
        lines[3] = lines[3] + " 0"
        lines.insert(1, "")
        lines.insert(1, "   ")

    assert_refused(tmp_path, with_lines(saved, edit), "line 6: expected 6 values, got 7")


@pytest.mark.parametrize("value", ["abc", "1,5", "0x10", "--1", "1e", "."])
def test_non_numeric_value_names_the_line(tmp_path, saved, value):
    def edit(lines):
        lines[2] = lines[2].rsplit(" ", 1)[0] + " " + value

    assert_refused(tmp_path, with_lines(saved, edit), "line 3: non-numeric value")


@pytest.mark.parametrize("content,reason", [
    (b"", "empty motion file"), (b"\n\n", "line 1: bad header ''"),
    (HEADER.encode() + b"\n", "header promises 4 frames, found 0"),
], ids=["empty", "blank", "header-only"])
def test_empty_files(tmp_path, content, reason):
    assert_refused(tmp_path, content, reason)


def test_manifest_action_name_holding_a_nul_is_refused():
    # gen-data's exit code: tests/test_cli.py
    manifest = default_manifest()
    action = dataclasses.replace(manifest.actions[0], name="wa\x00ve")
    with pytest.raises(ManifestError, match="holds '/' or a line break or a NUL byte"):
        dataclasses.replace(manifest, actions=(action, *manifest.actions[1:]))


def test_train_predictor_exits_two_on_a_bad_file(tmp_path, capsys):
    manifest = dataclasses.replace(default_manifest(), train_per_action=1, val_per_atomic=1,
                                   test_per_atomic=1, val_per_composite=1,
                                   test_per_composite=1)
    (tmp_path / "manifest.json").write_text(manifest_to_json(manifest))
    data = tmp_path / "data"
    assert dispatch(["gen-data", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(data)]) == 0
    bad = sorted((data / "train").glob("*.txt"))[3]
    header, *rows = bad.read_text(encoding="utf-8").splitlines()
    bad.write_text("\n".join([header.replace("J=8", "J=100000000000"), *rows]) + "\n",
                   encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_motion(bad)
    (tmp_path / "config.json").write_text('{"epochs": 1, "constrain_epochs": 1}')
    capsys.readouterr()
    assert dispatch(["train-predictor", "--config", str(tmp_path / "config.json"),
                     "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"moticomp train-predictor: error: {caught.value}" in err
    assert f"{bad}: line 2: expected 300000000000 values, got 24" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()

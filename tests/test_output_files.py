"""Output files: certificates and interpolation reports are written in place
through ``certify.write_text``, with the bytes, inode, mode and symlink
target that a truncating ``open(path, "w")`` would leave."""

import contextlib
import io
import json
import os
import stat
import threading

import pytest

from padicdyn import cli
from padicdyn.certify import Certificate, find_witness, write_text

QUAD = {"n": 1, "numerators": ["x1^2 + 1"], "prime": 3, "lift": "naive",
        "kmax": 8, "search_budget": 20}


@pytest.fixture(scope="module")
def cert(quad_p3_naive):
    return find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)


def run_main(*args):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def map_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(QUAD))
    return str(path)


def test_a_new_file_holds_the_utf8_text_with_the_default_mode(tmp_path):
    path = tmp_path / "new.txt"
    write_text(str(path), "p-adic été\n")
    assert path.read_bytes() == "p-adic été\n".encode("utf-8")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("extra", [-100, 0, 5000])
def test_an_overwritten_certificate_keeps_no_stale_tail(tmp_path, cert,
                                                        extra):
    text = cert.json_text()
    path = tmp_path / "c.json"
    path.write_bytes(b"#" * max(len(text) + extra, 1))
    inode = path.stat().st_ino
    cert.save(str(path))
    assert path.read_bytes() == text.encode("utf-8")
    assert path.stat().st_ino == inode
    assert Certificate.load(str(path)) == cert


def test_the_writer_never_truncates_on_open(tmp_path, cert, monkeypatch):
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    path = tmp_path / "c.json"
    path.write_text("x" * 10_000)
    cert.save(str(path))
    code, _, err = run_main("interpolate", "--map", map_file(tmp_path),
                            "--point", "2", "--out", str(path))
    assert code == 0, err
    # the report went through the writer as well
    assert len(flags) == 2
    assert all(not flag & os.O_TRUNC for flag in flags)
    assert all(flag & os.O_CREAT and flag & os.O_WRONLY for flag in flags)


def test_an_existing_file_keeps_its_mode(tmp_path, cert):
    path = tmp_path / "c.json"
    path.write_text("old")
    path.chmod(0o640)
    cert.save(str(path))
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text() == cert.json_text()


@pytest.mark.parametrize("command", [["certify"],
                                     ["interpolate", "--point", "2"]])
def test_a_symlinked_out_updates_the_target_and_keeps_the_link(tmp_path,
                                                                command):
    target = tmp_path / "target.txt"
    target.write_text("stale " * 10_000)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    code, _, err = run_main(*command, "--map", map_file(tmp_path),
                            "--out", str(link))
    assert code == 0, err
    assert link.is_symlink() and os.readlink(link) == str(target)
    text = target.read_text()
    assert "stale" not in text
    if command == ["certify"]:
        assert Certificate.from_json_text(text).json_text() == text


@pytest.mark.parametrize("command", [["certify"],
                                     ["interpolate", "--point", "2"]])
def test_out_dev_null_exits_zero(tmp_path, command):
    code, out, err = run_main(*command, "--map", map_file(tmp_path),
                              "--out", os.devnull)
    assert code == 0, err
    assert f"written to {os.devnull}" in out


def test_a_fifo_receives_the_whole_text(tmp_path, cert):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    cert.save(str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [cert.json_text().encode("utf-8")]


def test_short_writes_are_continued(tmp_path, cert, monkeypatch):
    # os.write may write less than it is given (a pipe, a signal)
    real_write = os.write
    monkeypatch.setattr(os, "write",
                        lambda fd, data: real_write(fd, data[:100]))
    path = tmp_path / "c.json"
    cert.save(str(path))
    assert path.read_text() == cert.json_text()

"""Unit tests for the distributed file system simulator."""

import zlib
from types import SimpleNamespace

import pytest

from repro.dfs import namenode
from repro.dfs.namenode import NameNode
from repro.exceptions import FileAlreadyExists, FileNotFoundInDFS
from repro.relational.schema import Schema
from repro.session import ReStoreSession


class TestNameNode:
    def test_create_and_stat(self):
        nn = NameNode()
        nn.create("/f")
        status = nn.stat("/f")
        assert status.path == "/f"
        assert status.size == 0

    def test_create_duplicate(self):
        nn = NameNode()
        nn.create("/f")
        with pytest.raises(FileAlreadyExists):
            nn.create("/f")

    def test_lookup_missing(self):
        nn = NameNode()
        with pytest.raises(FileNotFoundInDFS):
            nn.lookup("/nope")

    def test_rename(self):
        nn = NameNode()
        nn.create("/a")
        nn.rename("/a", "/b")
        assert nn.exists("/b")
        assert not nn.exists("/a")

    def test_rename_to_existing(self):
        nn = NameNode()
        nn.create("/a")
        nn.create("/b")
        with pytest.raises(FileAlreadyExists):
            nn.rename("/a", "/b")

    def test_mtime_monotonic(self):
        nn = NameNode()
        nn.create("/a")
        t1 = nn.stat("/a").mtime
        nn.touch("/a")
        assert nn.stat("/a").mtime > t1

    def test_list_paths_prefix(self):
        nn = NameNode()
        nn.create("/x/1")
        nn.create("/x/2")
        nn.create("/y/1")
        assert nn.list_paths("/x/") == ["/x/1", "/x/2"]


class TestFileSystem:
    def test_write_read_round_trip(self, dfs):
        dfs.write_file("/f", "hello world")
        assert dfs.read_text("/f") == "hello world"

    def test_write_bytes(self, dfs):
        dfs.write_file("/f", b"\x00\x01")
        assert dfs.read_file("/f") == b"\x00\x01"

    def test_overwrite(self, dfs):
        dfs.write_file("/f", "one")
        dfs.write_file("/f", "two", overwrite=True)
        assert dfs.read_text("/f") == "two"

    def test_overwrite_without_flag_raises(self, dfs):
        dfs.write_file("/f", "one")
        with pytest.raises(FileAlreadyExists):
            dfs.write_file("/f", "two")

    def test_append(self, dfs):
        dfs.write_file("/f", "ab")
        dfs.append("/f", "cd")
        assert dfs.read_text("/f") == "abcd"

    def test_append_creates(self, dfs):
        dfs.append("/new", "x")
        assert dfs.read_text("/new") == "x"

    def test_delete_if_exists(self, dfs):
        assert dfs.delete_if_exists("/nope") is False
        dfs.write_file("/f", "x")
        assert dfs.delete_if_exists("/f") is True
        assert not dfs.exists("/f")

    def test_read_missing(self, dfs):
        with pytest.raises(FileNotFoundInDFS):
            dfs.read_file("/missing")

    def test_read_lines_skips_empty(self, dfs):
        dfs.write_file("/f", "a\n\nb\n")
        assert dfs.read_lines("/f") == ["a", "b"]

    def test_write_lines(self, dfs):
        dfs.write_lines("/f", ["a", "b"])
        assert dfs.read_lines("/f") == ["a", "b"]

    def test_io_counters(self, dfs):
        dfs.write_file("/f", "abcd")
        dfs.read_file("/f")
        assert dfs.bytes_written == 4
        assert dfs.bytes_read == 4

    def test_file_size_and_mtime(self, dfs):
        dfs.write_file("/f", "abcd")
        assert dfs.file_size("/f") == 4
        assert dfs.mtime("/f") > 0

    def test_mtime_changes_on_rewrite(self, dfs):
        dfs.write_file("/f", "a")
        t1 = dfs.mtime("/f")
        dfs.write_file("/f", "b", overwrite=True)
        assert dfs.mtime("/f") > t1


class TestRunningCrc:
    """``prefix_crc32`` keeps the running crc at each segment end: an
    unchanged file is checksummed once, whatever is asked how often."""

    def _grown(self, dfs):
        dfs.write_file("f", b"abcdef\n")
        for tail in (b"ghi\n", b"", b"jklmnop\n"):
            dfs.append("f", tail)
        return dfs.read_file("f"), [7, 11, 11, 19]

    def test_values_at_before_and_past_each_segment_end(self, dfs):
        data, ends = self._grown(dfs)
        sizes = [None, 0] + [end + step for end in ends for step in (-1, 0, 1)]
        for _ in range(2):  # computed, then answered from the recorded ends
            for size in sizes + sizes[::-1]:
                want = zlib.crc32(data if size is None else data[:size])
                assert dfs.prefix_crc32("f", size) == want
        dfs.append("f", b"q\n")
        assert dfs.prefix_crc32("f") == zlib.crc32(data + b"q\n")
        assert dfs.prefix_crc32("f", len(data)) == zlib.crc32(data)
        assert dfs.prefix_crc32("f", len(data) + 1) == zlib.crc32(data + b"q")

    def test_deferred_typed_write_still_answers_none(self, dfs):
        dfs.write_rows("t", (("a", 1),), Schema.of("k", ("n", "int")))
        dfs.append("t", b"b\t2\n")
        assert dfs.prefix_crc32("t") is None  # would force the render
        data = dfs.read_file("t")
        assert dfs.prefix_crc32("t") == zlib.crc32(data)

    def test_registrations_checksum_an_unchanged_input_once(self, monkeypatch):
        fed = []

        def crc32(data, value=0):
            fed.append(len(data))
            return zlib.crc32(data, value)

        monkeypatch.setattr(namenode, "zlib", SimpleNamespace(crc32=crc32))
        text = "".join(f"u{n % 9}\t{n}\t{n * 0.5}\n" for n in range(400))
        with ReStoreSession() as session:
            session.write_file("in", text)
            for n in range(10):
                session.run(
                    "A = load 'in' as (u, n:int, v:double);"
                    f" B = filter A by n > {n}; store B into 'o{n}';"
                )
            recorded = [
                entry.input_extents["in"].crc
                for entry in session.repository.entries()
                if "in" in entry.input_extents
            ]
        # every registration got the checksum, one walk computed it
        assert len(recorded) >= 10 and set(recorded) == {zlib.crc32(text.encode())}
        assert len(text) <= sum(fed) <= 1.05 * len(text)  # the parent: 10 x

"""Unit tests for the distributed file system simulator."""

import pytest

from repro.dfs.namenode import NameNode
from repro.exceptions import FileAlreadyExists, FileNotFoundInDFS


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

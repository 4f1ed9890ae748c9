"""The golden corpus against the sole data plane and match path.

``test_batch_plane.py`` and ``test_exec_sim.py`` hold the small
streams to their records at every chunk length; here the ``exec_sim``
stream is, and the committed file — ``repo_scale`` records included —
is checked to be exactly what the recorder writes, with every
``repo_scale`` size actually rewriting.
"""

import pytest
from golden_corpus import (
    CHUNK_LENGTHS,
    EXEC_SCALES,
    GOLDEN_PATH,
    encode,
    exec_sim_record,
    load_golden,
    record_corpus,
)

from repro.execution.interpreter import JobInterpreter


def test_committed_corpus_is_what_the_recorder_writes():
    assert GOLDEN_PATH.read_text() == encode(record_corpus()) + "\n"
    assert GOLDEN_PATH.stat().st_size < 40 * 1024  # digests, not row data
    # a stream the freshness guard condemns wholesale would record
    # five empty decision lists and still "match"
    assert all(r["rewrites"] > 0 for r in load_golden()["repo_scale"].values())


@pytest.mark.parametrize("chunk_rows", CHUNK_LENGTHS)
@pytest.mark.parametrize("n_rows", (EXEC_SCALES[0], EXEC_SCALES[-1]))
def test_exec_sim_stream_matches_golden(monkeypatch, n_rows, chunk_rows):
    monkeypatch.setattr(JobInterpreter, "CHUNK_ROWS", chunk_rows)
    assert exec_sim_record(n_rows) == load_golden()["exec_sim"][str(n_rows)]

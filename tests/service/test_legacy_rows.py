"""Rows written before digests dropped their per-I/O rate log still load.

Older ``host_digests`` and ``host_buckets`` blobs carry a
``false_submit_rate`` sketch (every ``(time, hit)`` model submit of the
round).  The rate already lives in the ``false_submits``/``model_submits``
columns, so readers ignore the sketch and the aggregates come out the same
as from rows written today.  No table or column changed, so the store
stays on the same schema version.
"""

import json
import sqlite3

from repro.fleet.aggregate import HostDigest
from repro.service.query import merged_digest
from repro.service.store import (
    ResultsStore,
    RetentionPolicy,
    digest_from_bucket_row,
)
from tests.service.test_retention import HOSTS, ROUND_NS, fill, make_digest

ROUNDS = 8


def legacy_blob(sketches):
    """``sketches`` as the old writer stored it, event log included."""
    blob = json.loads(sketches)
    blob["false_submit_rate"] = {
        "window": ROUND_NS,
        "events": [[index * 10 ** 7, index % 2] for index in range(6)],
    }
    return json.dumps(blob, sort_keys=True)


def make_store(path, rounds, raw_rounds):
    """A store holding both raw rows and folded buckets."""
    policy = RetentionPolicy(raw_rounds=raw_rounds, bucket_rounds=4)
    with ResultsStore(path, retention=policy) as store:
        run_id = store.begin_run("soak", {}, ROUND_NS, HOSTS)
        fill(store, run_id, rounds)
    return run_id, policy


def make_legacy(path):
    """Rewrite every stored blob in the old, event-log-carrying shape."""
    db = sqlite3.connect(path)
    for table, key in (("host_digests", "round_index"),
                       ("host_buckets", "bucket")):
        rows = db.execute("SELECT run_id, {}, host_id, sketches FROM {}"
                          .format(key, table)).fetchall()
        assert rows, table
        for run_id, index, host_id, sketches in rows:
            db.execute("UPDATE {} SET sketches=? WHERE run_id=? AND {}=? "
                       "AND host_id=?".format(table, key),
                       (legacy_blob(sketches), run_id, index, host_id))
    db.commit()
    db.close()


def test_to_row_writes_no_event_log():
    row = make_digest(0, 3).to_row()
    assert "false_submit_rate" not in json.loads(row["sketches"])


def test_legacy_rows_load_through_both_readers(tmp_path):
    new_path = str(tmp_path / "new.sqlite")
    old_path = str(tmp_path / "old.sqlite")
    run_id, _ = make_store(new_path, ROUNDS, raw_rounds=4)
    assert make_store(old_path, ROUNDS, raw_rounds=4)[0] == run_id
    make_legacy(old_path)

    with ResultsStore(new_path) as new, ResultsStore(old_path) as old:
        for read, load in ((ResultsStore.digest_rows, HostDigest.from_row),
                           (ResultsStore.bucket_rows,
                            digest_from_bucket_row)):
            new_rows, old_rows = read(new, run_id), read(old, run_id)
            assert len(old_rows) == len(new_rows) > 0
            for new_row, old_row in zip(new_rows, old_rows):
                assert "false_submit_rate" in json.loads(old_row["sketches"])
                assert load(old_row).to_row() == load(new_row).to_row()

        fresh, _ = merged_digest(new, run_id, 0, ROUNDS)
        legacy, meta = merged_digest(old, run_id, 0, ROUNDS)
        assert meta["buckets"] > 0 and meta["raw_rounds"] > 0
        assert legacy.to_dict() == fresh.to_dict()


def test_legacy_bucket_refolds_into_a_new_blob(tmp_path):
    # A resumed store folds more expired rounds into an old bucket row;
    # the row it writes back is in the new shape.
    path = str(tmp_path / "s.sqlite")
    # Round 0 expired: bucket 0 is partial and gets re-folded below.
    run_id, policy = make_store(path, 3, raw_rounds=2)
    make_legacy(path)
    with ResultsStore(path, retention=policy) as store:
        store.commit_round(run_id, 3, 4 * ROUND_NS,
                           [make_digest(h, 3) for h in range(HOSTS)])
        buckets = store.bucket_rows(run_id)
        assert [b["rounds"] for b in buckets] == [2] * HOSTS
        for bucket in buckets:
            assert "false_submit_rate" not in json.loads(bucket["sketches"])

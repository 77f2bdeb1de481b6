"""The persistent run store: lifecycle, exactly-once, resume semantics."""

import sqlite3

import pytest

from repro.campaign import RunSpec, RunStore, canonical_payload
from repro.campaign.store import DB_NAME, STORE_SCHEMA, _enable_wal
from repro.core.results import RESULT_SCHEMA_VERSION
from repro.errors import CampaignError


@pytest.fixture
def spec() -> RunSpec:
    return RunSpec(m=2, n_pes=9, density=0.256, n_steps=50, seed=3)


class TestLifecycle:
    def test_register_creates_pending_row(self, spec):
        with RunStore() as store:
            run_hash = store.register(spec, "c")
            row = store.get(run_hash)
            assert row.status == "pending"
            assert row.attempts == 0
            assert row.run_spec() == spec

    def test_start_complete(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            store.start(h)
            assert store.get(h).status == "running"
            store.complete(h, {"x": 1}, duration_s=0.5)
            row = store.get(h)
            assert row.status == "done"
            # Completion stamps the result schema version into the payload.
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 1}
            assert row.attempts == 1
            assert row.duration_s == 0.5

    def test_fail_records_traceback(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            store.start(h)
            store.fail(h, "Traceback ...\nValueError: boom")
            row = store.get(h)
            assert row.status == "failed"
            assert "boom" in row.error

    def test_transitions_on_unknown_hash_raise(self):
        with RunStore() as store:
            with pytest.raises(CampaignError):
                store.start("feedfacedeadbeef")

    def test_get_missing_returns_none(self):
        with RunStore() as store:
            assert store.get("0" * 16) is None


class TestExactlyOnce:
    def test_reregistering_done_run_keeps_payload(self, spec):
        with RunStore() as store:
            h = store.register(spec, "first")
            store.start(h)
            store.complete(h, {"x": 1}, 0.1)
            # A second campaign resubmitting the same content hash must not
            # disturb the stored result.
            assert store.register(spec, "second") == h
            row = store.get(h)
            assert row.status == "done"
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 1}
            assert row.campaign == "first"


class TestResumeSemantics:
    def test_running_rows_demoted_on_open(self, tmp_path, spec):
        store = RunStore(tmp_path)
        h = store.register(spec, "c")
        store.start(h)
        store.close()  # simulate a killed scheduler: row left 'running'
        reopened = RunStore(tmp_path)
        assert reopened.get(h).status == "pending"
        reopened.close()

    def test_done_rows_survive_reopen(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            h = store.register(spec, "c")
            store.start(h)
            store.complete(h, {"x": 2}, 0.1)
        with RunStore(tmp_path) as store:
            row = store.get(h)
            assert row.status == "done"
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 2}

    def test_schema_mismatch_refuses_to_open(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            store.register(spec, "c")
            store._db.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema'",
                (str(STORE_SCHEMA + 1),),
            )
            store._db.commit()
        with pytest.raises(CampaignError):
            RunStore(tmp_path)

    def test_creates_directory_and_db_file(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        with RunStore(target):
            pass
        assert (target / DB_NAME).exists()


class TestSummaries:
    def test_status_counts_zero_filled(self, spec):
        with RunStore() as store:
            counts = store.status_counts()
            assert counts == {
                "pending": 0,
                "running": 0,
                "done": 0,
                "failed": 0,
                "quarantined": 0,
            }
            store.register(spec, "c")
            assert store.status_counts("c")["pending"] == 1

    def test_campaigns_listed(self, spec):
        with RunStore() as store:
            store.register(spec, "b")
            store.register(RunSpec(seed=9), "a")
            assert store.campaigns() == ["a", "b"]

    def test_runs_filter_by_campaign(self, spec):
        with RunStore() as store:
            store.register(spec, "a")
            store.register(RunSpec(seed=9), "b")
            assert len(store.runs()) == 2
            assert len(store.runs("a")) == 1


class TestCanonicalPayload:
    def test_key_order_is_canonical(self):
        assert canonical_payload({"b": 1, "a": 2}) == canonical_payload({"a": 2, "b": 1})

    def test_compact_separators(self):
        assert canonical_payload({"a": [1, 2]}) == '{"a":[1,2]}'


class TestConcurrentClaim:
    def test_claim_flips_pending_to_running(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            assert store.claim(h)
            row = store.get(h)
            assert row.status == "running"
            assert row.attempts == 1

    def test_second_claim_loses(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            assert store.claim(h)
            assert not store.claim(h)
            assert store.get(h).attempts == 1

    def test_done_run_cannot_be_claimed(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            store.claim(h)
            store.complete(h, {"x": 1}, 0.1)
            assert not store.claim(h)

    def test_failed_run_can_be_reclaimed(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            store.claim(h)
            store.fail(h, "boom")
            assert store.claim(h)
            assert store.get(h).attempts == 2

    def test_release_demotes_only_running(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            assert not store.release(h)  # pending: nothing to release
            store.claim(h)
            assert store.release(h)
            assert store.get(h).status == "pending"
            store.claim(h)
            store.complete(h, {"x": 1}, 0.1)
            assert not store.release(h)  # done stays done

    def test_takeover_false_leaves_running_rows(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            h = store.register(spec, "c")
            store.claim(h)
        with RunStore(tmp_path, takeover=False) as sibling:
            assert sibling.get(h).status == "running"
        with RunStore(tmp_path) as recovery:  # crash recovery: takeover
            assert recovery.get(h).status == "pending"

    def test_wal_mode_enabled_for_file_stores(self, tmp_path):
        with RunStore(tmp_path) as store:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_claims_race_from_two_connections(self, tmp_path, spec):
        with RunStore(tmp_path) as a:
            h = a.register(spec, "c")
            with RunStore(tmp_path, takeover=False) as b:
                winners = [a.claim(h), b.claim(h)]
                assert sorted(winners) == [False, True]


class _LockedConnection:
    """Fails the first ``failures`` statements with ``error``."""

    def __init__(self, failures, error="database is locked"):
        self.failures = failures
        self.error = error
        self.calls = 0

    def execute(self, sql):
        self.calls += 1
        if self.calls <= self.failures:
            raise sqlite3.OperationalError(self.error)


class TestConcurrentOpen:
    """Sibling processes opening one fresh store at once both succeed."""

    def test_wal_switch_retries_while_locked(self):
        db = _LockedConnection(failures=2)
        _enable_wal(db, busy_timeout=5.0)
        assert db.calls == 3

    def test_wal_switch_gives_up_after_the_busy_timeout(self):
        db = _LockedConnection(failures=10**9)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            _enable_wal(db, busy_timeout=0.2)

    def test_other_errors_are_not_retried(self):
        db = _LockedConnection(failures=1, error="disk I/O error")
        with pytest.raises(sqlite3.OperationalError, match="disk"):
            _enable_wal(db, busy_timeout=5.0)
        assert db.calls == 1

    def test_schema_row_written_by_a_sibling_is_kept(self, tmp_path, monkeypatch):
        """A sibling writes the schema row between this opener's SELECT and
        INSERT; the open must keep that row, not fail on the key."""
        path = tmp_path / DB_NAME

        class SiblingWinsTheRace(sqlite3.Connection):
            def execute(self, sql, *args):
                if sql.startswith("SELECT value FROM meta"):
                    sibling = sqlite3.connect(path)
                    sibling.execute(
                        "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                        (str(STORE_SCHEMA),),
                    )
                    sibling.commit()
                    sibling.close()
                    return super().execute("SELECT NULL WHERE 0")
                return super().execute(sql, *args)

        connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3,
            "connect",
            lambda *a, **kw: connect(*a, factory=SiblingWinsTheRace, **kw),
        )
        RunStore(tmp_path).close()
        monkeypatch.undo()
        with RunStore(tmp_path) as store:
            rows = store._db.execute("SELECT value FROM meta").fetchall()
        assert rows == [(str(STORE_SCHEMA),)]

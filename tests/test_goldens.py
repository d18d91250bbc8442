"""The golden store's own contract: readable mismatches, one rewrite path."""

from __future__ import annotations

import pytest

from tests.goldens import STORE, GoldenStore, canonical

REPORT = {
    "completed": 1430,
    "drop_reasons": {"queue_full": 3, "server_failure": 0},
    "latency_p99_s": 0.1,
    "rows": [[1, 2, 20], [4, 2, 50]],
}


@pytest.fixture()
def store(tmp_path):
    store = GoldenStore(tmp_path)
    (tmp_path / "report.json").write_text(canonical(REPORT))
    return store


def _moved(store, value):
    with pytest.raises(AssertionError) as failure:
        store.check("report", value)
    return str(failure.value)


def test_matching_value_passes_after_a_json_round_trip(store):
    store.check("report", dict(REPORT, rows=[(1, 2, 20), (4, 2, 50)]))


def test_mismatch_names_the_nested_key_path_and_both_values(store):
    value = dict(REPORT, drop_reasons={"queue_full": 4, "server_failure": 0})
    assert _moved(store, value) == (
        "golden 'report' moved at drop_reasons.queue_full: stored 3, now 4"
    )


def test_one_ulp_float_change_shows_in_both_values(store):
    value = dict(REPORT, latency_p99_s=0.1 + 2 ** -56)
    assert _moved(store, value) == (
        "golden 'report' moved at latency_p99_s: stored 0.1,"
        " now 0.10000000000000002"
    )


def test_int_and_float_of_equal_value_differ(store):
    assert "completed: stored 1430, now 1430.0" in _moved(
        store, dict(REPORT, completed=1430.0)
    )


def test_list_length_change_reports_both_lengths(store):
    value = dict(REPORT, rows=[[1, 2, 20], [4, 2, 50], [8, 4, 100]])
    assert _moved(store, value) == (
        "golden 'report' moved at rows[2]: stored (absent), now [8, 4, 100]"
        " (rows holds 2 items stored, 3 now)"
    )


def test_missing_entry_names_the_flag(store):
    with pytest.raises(AssertionError, match="no stored entry") as failure:
        store.check("absent", REPORT)
    assert "--update-goldens" in str(failure.value)


def test_update_writes_canonical_bytes_and_reports_changed_names(store, tmp_path):
    store.update = True
    store.check("report", REPORT)
    store.check("report", dict(REPORT, completed=1431))
    store.check("fresh", {"b": [1.5, None], "a": (2,)})
    assert store.changed == ["report", "fresh"]
    assert (tmp_path / "fresh.json").read_text() == (
        '{\n  "a": [\n    2\n  ],\n  "b": [\n    1.5,\n    null\n  ]\n}\n'
    )
    store.update = False
    store.check("report", dict(REPORT, completed=1431))
    assert store.names("") == ["fresh", "report"]


def test_update_flag_drives_the_shared_store(request):
    assert STORE.update is request.config.getoption("--update-goldens")

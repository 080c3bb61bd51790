"""The chaos soak's verdict tally: vacuous schedules are split out."""

from __future__ import annotations

from tools.chaos_soak import verdict_counts

_FAULT = {"kind": "slow_batch", "point": "service.stream.dispatch",
          "hit": 0, "arg": 0}


def _record(verdict: str, fired: bool) -> "dict[str, object]":
    return {"verdict": verdict, "fired": [_FAULT] if fired else []}


def test_tolerated_without_a_fired_fault_is_vacuous():
    counts = verdict_counts([
        _record("tolerated", fired=True),
        _record("tolerated", fired=False),
        _record("tolerated", fired=False),
        _record("surfaced", fired=True),
        _record("violation", fired=True),
    ])
    assert counts == {"surfaced": 1, "tolerated": 1, "vacuous": 2,
                      "violations": 1}


def test_every_record_is_tallied_once():
    records = [_record(verdict, fired)
               for verdict in ("surfaced", "tolerated", "violation")
               for fired in (True, False)]
    assert sum(verdict_counts(records).values()) == len(records)

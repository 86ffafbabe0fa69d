"""The cost ledger BENCH_costs.json holds the counts of the current source."""

import json

import costs


def test_ledger_is_current():
    # a change that moves a count regenerates the file in the same commit:
    # PYTHONPATH=src python tests/costs.py --write
    changed = costs.changes(json.loads(costs.LEDGER.read_text()), costs.ledger())
    assert not changed, "stale ledger lines:\n" + "\n".join(changed)

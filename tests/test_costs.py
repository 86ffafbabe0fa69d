"""The cost ledger BENCH_costs.json holds the counts of the current source."""

import json

import costs


def test_ledger_is_current():
    # a change that moves a count regenerates the file in the same commit:
    # PYTHONPATH=src python tests/costs.py --write
    assert costs.ledger() == json.loads(costs.LEDGER.read_text())

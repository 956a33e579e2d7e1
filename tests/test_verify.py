import pytest

from agband.verify import claim_ids, run_claims

# the claim registry is the contract here: every entry must be addressable
# on its own and the full run must come out clean


def test_claim_ids_are_unique_and_nonempty():
    ids = claim_ids()
    assert len(ids) == len(set(ids))
    assert "corollary-2" in ids
    assert "table-3" in ids


def test_full_run_passes_overall():
    report = run_claims()
    assert report.overall == "PASS"
    statuses = {r.status for r in report.results}
    assert statuses <= {"PASS", "SKIPPED"}


def test_skipped_claims_carry_an_explanation():
    report = run_claims()
    for r in report.results:
        if r.status == "SKIPPED":
            assert r.detail


def test_single_claim_selection():
    report = run_claims(only=["corollary-2"])
    assert [r.claim for r in report.results] == ["corollary-2"]
    assert report.results[0].status == "PASS"
    assert report.overall == "PASS"


def test_selection_preserves_registry_order():
    report = run_claims(only=["result-9", "example-1"])
    assert [r.claim for r in report.results] == ["example-1", "result-9"]


def test_unknown_claim_id_is_rejected():
    with pytest.raises(ValueError):
        run_claims(only=["theorem-999"])


def test_empty_selection_is_rejected():
    with pytest.raises(ValueError, match="no claim ids selected"):
        run_claims(only=[])


def test_table_discrepancy_is_an_expected_pass():
    report = run_claims(only=["table-3"])
    (row,) = report.results
    assert row.status == "PASS"
    assert "(3, 10)" in row.detail or "row 3" in row.detail


def test_every_result_names_its_reference():
    report = run_claims()
    for r in report.results:
        assert r.reference

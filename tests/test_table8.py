from zstab import table8
from zstab.schemes import Scheme
from zstab.table8 import REFERENCE_ROWS, ReferenceRow, verify_reference_table


def _verify_only(monkeypatch, row):
    monkeypatch.setattr(table8, "REFERENCE_ROWS", (row,))
    return verify_reference_table()[0]


class TestReferenceTable:
    def test_ten_rows(self):
        assert len(REFERENCE_ROWS) == 10

    def test_all_rows_pass(self):
        results = verify_reference_table()
        assert all(r.passed for r in results)

    def test_first_row(self, monkeypatch):
        result = _verify_only(monkeypatch, REFERENCE_ROWS[0])
        assert result.computed_moduli == (1.84, 0.74, 0.74)
        assert result.computed_zero_stable is False

    def test_last_row(self, monkeypatch):
        result = _verify_only(monkeypatch, REFERENCE_ROWS[-1])
        assert result.computed_moduli == (1.00, 0.33, 0.33)
        assert result.computed_zero_stable is True

    def test_verdict_split(self):
        stable = [r for r in REFERENCE_ROWS if r.zero_stable]
        assert len(stable) == 6

    def test_corrupted_row_fails(self, monkeypatch):
        bad = ReferenceRow(Scheme((1.0, 1.0, 1.0), 1.0), (9.99, 0.74, 0.74), False)
        result = _verify_only(monkeypatch, bad)
        assert not result.moduli_match
        assert not result.passed

    def test_wrong_verdict_fails(self, monkeypatch):
        bad = ReferenceRow(Scheme((1.0, 1.0, 1.0), 1.0), (1.84, 0.74, 0.74), True)
        result = _verify_only(monkeypatch, bad)
        assert result.moduli_match
        assert not result.verdict_match

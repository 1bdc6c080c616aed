import pytest

from wcurves import reference
from wcurves.verify import verify_discriminant, verify_range


def test_single_discriminant_report():
    r = verify_discriminant(17)
    assert r.ok
    assert r.failures == ()
    assert r.passed == sum(n for _, n in r.tallies)
    names = {name for name, _ in r.tallies}
    assert "enumeration_W" in names
    assert "spin_balance" in names
    assert "sv_conjugacy" in names
    assert "ledger_w_squared" in names


def test_square_discriminant_report():
    r = verify_discriminant(25)
    assert r.ok
    names = {name for name, _ in r.tallies}
    assert "ledger_s1_dot_w" in names
    assert "orbits_cover" in names


def test_range_is_ascending_and_complete():
    reports = verify_range(1, 40)
    assert [r.D for r in reports] == [D for D in range(1, 41) if D % 4 in (0, 1)]
    assert all(r.ok for r in reports)


def test_shards_partition_the_range():
    full = {r.D for r in verify_range(5, 60)}
    part0 = {r.D for r in verify_range(5, 60, shard=(0, 3))}
    part1 = {r.D for r in verify_range(5, 60, shard=(1, 3))}
    part2 = {r.D for r in verify_range(5, 60, shard=(2, 3))}
    assert part0 | part1 | part2 == full
    assert not (part0 & part1 or part0 & part2 or part1 & part2)


def test_bad_shard_rejected():
    with pytest.raises(ValueError):
        verify_range(5, 10, shard=(3, 3))
    with pytest.raises(ValueError):
        verify_range(5, 10, shard=(0, 0))


def test_failed_check_is_reported(monkeypatch):
    monkeypatch.setattr(reference, "reference_tuples", lambda D, kind: [])
    r = verify_discriminant(5)
    assert not r.ok
    assert any(f.startswith("enumeration_") for f in r.failures)
    assert r.passed == sum(n for _, n in r.tallies)

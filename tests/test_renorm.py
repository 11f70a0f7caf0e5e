"""Renormalization towers, admissible entropy values, and block models."""

import math
import random

import pytest

from ilim import (
    BlockModel,
    DomainError,
    RenormTower,
    ResourceCapError,
    TowerError,
    block_model_entropy,
    detect_renormalization,
    entropy_spectrum,
    spectrum_membership,
)

LOG2 = math.log(2.0)
A_STAR = 1.5436890126920764  # smallest parameter whose square is full-height

EXAMPLE_TOWER = RenormTower((1, 2), (0.5, 0.8))


# ---------------------------------------------------------------------------
# tower validation


def test_valid_towers_pass():
    EXAMPLE_TOWER.validate()
    RenormTower((1,), (LOG2,)).validate()
    RenormTower((1, 2, 4), (0.0, 0.0, 0.0)).validate()


def test_tower_entropies_may_exceed_log_two():
    # return maps act on shrunken intervals, so their rates are not capped
    # by the base map's maximum
    RenormTower((1, 2, 4), (0.5, 0.8, 1.4)).validate()


def test_tower_must_start_at_period_one():
    with pytest.raises(TowerError):
        RenormTower((2, 4), (0.1, 0.2)).validate()


def test_tower_periods_must_be_proper_multiples():
    with pytest.raises(TowerError):
        RenormTower((1, 3, 4), (0.1, 0.2, 0.3)).validate()
    with pytest.raises(TowerError):
        RenormTower((1, 2, 2), (0.1, 0.2, 0.2)).validate()


def test_tower_rejects_negative_entropy():
    with pytest.raises(TowerError):
        RenormTower((1, 2), (-0.01, 0.1)).validate()
    with pytest.raises(TowerError, match="finite"):
        RenormTower((1, 2), (math.nan, 0.1))


def test_tower_rejects_entropy_collapse():
    # period-1 entropy 0.2 cannot sit below half of the period-2 level's 0.8
    with pytest.raises(TowerError):
        RenormTower((1, 2), (0.2, 0.8)).validate()


def test_tower_pairs_periods_with_entropies():
    with pytest.raises(TowerError):
        RenormTower((1, 2), (0.5,)).validate()


# ---------------------------------------------------------------------------
# detection


def test_full_height_map_is_not_renormalizable():
    tower = detect_renormalization(2.0, max_period=4)
    assert tower.periods == (1,)
    assert tower.entropies[0] == pytest.approx(LOG2, abs=0.02)


def test_low_parameter_doubles_once_at_small_horizon():
    tower = detect_renormalization(1.3, max_period=2)
    assert tower.periods == (1, 2)
    assert all(abs(h) < 0.02 for h in tower.entropies)


def test_low_parameter_doubles_again_at_larger_horizon():
    tower = detect_renormalization(1.3, max_period=4)
    assert tower.periods == (1, 2, 4)
    assert all(abs(h) < 0.02 for h in tower.entropies)


def test_once_renormalizable_parameter_splits_the_entropy():
    tower = detect_renormalization(A_STAR, max_period=2)
    assert tower.periods == (1, 2)
    assert tower.entropies[0] == pytest.approx(LOG2 / 2, abs=0.02)
    assert tower.entropies[1] == pytest.approx(LOG2, abs=0.02)


def test_doubling_cascade_parameter_stacks_periods():
    # near the accumulation of period doubling the tower keeps doubling;
    # the return-map entropy estimates are unreliable this close to the
    # accumulation point, so only the periods are pinned here
    tower = detect_renormalization(1.401155, max_period=8)
    assert tower.periods == (1, 2, 4, 8)


def test_detection_is_deterministic():
    t1 = detect_renormalization(1.3, max_period=4)
    t2 = detect_renormalization(1.3, max_period=4)
    assert t1.periods == t2.periods
    assert t1.entropies == t2.entropies


def test_detection_rejects_huge_horizons_and_bad_parameters():
    with pytest.raises(DomainError):
        detect_renormalization(1.3, max_period=128)
    with pytest.raises(DomainError):
        detect_renormalization(2.5)


def test_detection_rejects_a_negative_containment_slack():
    # a slack of -1 would refuse every interval and hide the period-2 level
    with pytest.raises(DomainError, match="tol"):
        detect_renormalization(1.3, max_period=2, tol=-1.0)


def test_detected_towers_validate():
    for a in (2.0, 1.3, A_STAR):
        detect_renormalization(a, max_period=4).validate()


# ---------------------------------------------------------------------------
# admissible entropy values


def test_spectrum_of_example_tower():
    values = entropy_spectrum(EXAMPLE_TOWER, 1.3)
    assert values == pytest.approx([0.0, 0.5, 0.8, 1.0, 1.2])


def test_spectrum_of_pure_doubling_tower_is_half_log_two_grid():
    tower = RenormTower((1, 2), (LOG2 / 2, LOG2))
    values = entropy_spectrum(tower, 2.2)
    assert values == pytest.approx([k * LOG2 / 2 for k in range(7)])


def test_spectrum_always_contains_zero_and_is_sorted():
    values = entropy_spectrum(EXAMPLE_TOWER, 3.0)
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_spectrum_needs_positive_ceiling():
    with pytest.raises(DomainError):
        entropy_spectrum(EXAMPLE_TOWER, 0.0)


def test_spectrum_is_charged_before_its_values_are_built(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "1000")
    tower = RenormTower((1,), (1e-4,))  # 10,000 multiples of 1e-4 up to 1
    with pytest.raises(ResourceCapError):
        entropy_spectrum(tower, 1.0)
    assert len(entropy_spectrum(tower, 0.05)) == 501


def test_spectrum_values_pass_membership():
    for v in entropy_spectrum(EXAMPLE_TOWER, 2.0):
        assert spectrum_membership(EXAMPLE_TOWER, v).member


# ---------------------------------------------------------------------------
# membership


def test_zero_is_always_admissible():
    res = spectrum_membership(EXAMPLE_TOWER, 0.0)
    assert res.member and res.witness is None


def test_membership_witness_certifies_the_value():
    res = spectrum_membership(EXAMPLE_TOWER, 1.2)
    assert res.member
    j, i, n = res.witness
    unit = (EXAMPLE_TOWER.periods[j] / EXAMPLE_TOWER.periods[i]) * EXAMPLE_TOWER.entropies[i]
    assert n * unit == pytest.approx(1.2, abs=1e-9)


def test_below_floor_values_are_rejected():
    # 0.4 is one unit of the fine level seen from the base, but a single
    # copy cannot dominate the base map's own rate 0.5
    assert not spectrum_membership(EXAMPLE_TOWER, 0.4).member


def test_membership_rejects_negative_values():
    with pytest.raises(DomainError):
        spectrum_membership(EXAMPLE_TOWER, -0.2)


def test_membership_rejects_a_negative_tolerance():
    with pytest.raises(DomainError, match="tol"):
        spectrum_membership(EXAMPLE_TOWER, 0.5, tol=-1.0)


def test_membership_rejects_values_beyond_float_range_of_a_unit():
    # 1e308 / 0.5 overflows, so no multiplier can be checked in floats
    with pytest.raises(DomainError):
        spectrum_membership(EXAMPLE_TOWER, 1e308)


# ---------------------------------------------------------------------------
# block models


def test_orbit_partition_of_coprime_rotation_is_one_cycle():
    model = BlockModel(R=1, powers=(0, 0, 0, 0))
    assert model.orbit_partition() == ((0, 1, 2, 3),)


def test_orbit_partition_splits_by_common_divisor():
    assert BlockModel(R=2, powers=(0, 0)).orbit_partition() == ((0,), (1,))
    assert BlockModel(R=2, powers=(0, 0, 0, 0)).orbit_partition() == ((0, 2), (1, 3))


def test_block_model_entropy_takes_the_best_orbit():
    value = block_model_entropy(EXAMPLE_TOWER, BlockModel(R=2, powers=(1, 3)))
    assert value == pytest.approx(2.4)  # fixed block with power 3 wins: 3 * 0.8


def test_block_model_entropy_base_rotation_can_win():
    value = block_model_entropy(EXAMPLE_TOWER, BlockModel(R=4, powers=(1, 1)))
    assert value == pytest.approx(2.0)  # 4 * 0.5 beats the averaged 0.8


def test_frozen_rotation_uses_the_largest_power():
    value = block_model_entropy(EXAMPLE_TOWER, BlockModel(R=0, powers=(2, 1)))
    assert value == pytest.approx(1.6)


def test_block_model_guards():
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=1, powers=(1,), level=1))
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=1, powers=(1, 2, 3)))
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=-1, powers=(1, 1)))
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=1, powers=(1, -2)))


def _random_tower(rng):
    depth = rng.randint(2, 4)
    periods = [1]
    for _ in range(depth - 1):
        periods.append(periods[-1] * rng.choice((2, 2, 3)))
    hs = [0.0] * depth
    hs[-1] = rng.uniform(0.1, 1.5)
    for i in range(depth - 2, -1, -1):
        lo = (periods[i] / periods[i + 1]) * hs[i + 1]
        hs[i] = lo if rng.random() < 0.3 else rng.uniform(lo, hs[i + 1] + 0.3)
    return RenormTower(tuple(periods), tuple(hs))


def test_every_block_model_entropy_is_admissible():
    rng = random.Random(20260816)
    for _ in range(300):
        tower = _random_tower(rng)
        tower.validate()
        j = rng.randint(0, len(tower) - 2)
        p_rel = tower.periods[j + 1] // tower.periods[j]
        model = BlockModel(
            R=rng.randint(0, 6),
            powers=tuple(rng.randint(0, 5) for _ in range(p_rel)),
            level=j,
        )
        value = block_model_entropy(tower, model)
        assert spectrum_membership(tower, value, tol=1e-9).member


def test_random_spectra_are_self_consistent():
    rng = random.Random(7)
    for _ in range(50):
        tower = _random_tower(rng)
        for v in entropy_spectrum(tower, 2.0):
            assert spectrum_membership(tower, v).member

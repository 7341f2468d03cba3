import math
import re

import pytest
from hypothesis import given, strategies as st

from seqpa.bounds import (
    BOUND_KINDS,
    ball_log_volume,
    cover_size_bound,
    cover_upper,
    evaluate_bound,
    glm_lower,
    hessian_upper,
    hessian_volume_upper,
    lipschitz_lower,
    lipschitz_upper,
    power_family_lower,
)


def test_ball_log_volume_known_dimensions():
    assert ball_log_volume(1, 1.0) == pytest.approx(math.log(2))
    assert ball_log_volume(2, 1.0) == pytest.approx(math.log(math.pi))
    assert ball_log_volume(3, 2.0) == pytest.approx(math.log(4 / 3 * math.pi * 8))


def test_cover_upper_value():
    assert cover_upper(10, 0.1, 50) == pytest.approx(2.0 + math.log(50))


def test_lipschitz_upper_trivial_branch():
    # for tiny T the trivial regret T wins
    assert lipschitz_upper(1, 4, 1.0, 1.0) == 1.0
    big = lipschitz_upper(1000, 1, 1.0, 1.0)
    assert big == pytest.approx(math.log(2001) + 2)


def test_hessian_upper_value():
    val = hessian_upper(100, 1, 1.0, 0.25)
    assert val == pytest.approx(0.5 * math.log(52.0) + 0.5 + math.log(2))


def test_hessian_volume_matches_ball_form():
    T, d, C, R = 64, 2, 0.25, 1.0
    direct = hessian_volume_upper(T, d, C, R=R)
    rho = math.sqrt(d / (C * T))
    via_log_vol = hessian_volume_upper(T, d, C,
                                       log_volume_enlarged=ball_log_volume(d, R + rho))
    assert direct == pytest.approx(via_log_vol)


def test_glm_lower_shape():
    # s=2: leading term (d/2) ln(T/d^2)
    assert glm_lower(1024, 2, 2.0) == pytest.approx(math.log(1024 / 4))
    assert glm_lower(1024, 2, 2.0, c=1.0) == pytest.approx(math.log(1024 / 4) - 2.0)


def test_power_family_lower_value():
    assert power_family_lower(100, 1.0) == pytest.approx(2 / math.e * 10.0)


def test_evaluate_bound_dispatch():
    v = evaluate_bound("lipschitz-upper", T=100, d=1, R=1.0, L=1.0)
    assert v == pytest.approx(lipschitz_upper(100, 1, 1.0, 1.0))
    with pytest.raises(ValueError):
        evaluate_bound("no-such-kind", T=1)
    with pytest.raises(ValueError):
        evaluate_bound("lipschitz-upper", T=100)


def test_evaluate_bound_required_parameters():
    required = {
        "cover-upper": ("T", "alpha", "cover_size"),
        "lipschitz-upper": ("T", "d", "R", "L"),
        "lipschitz-lower": ("T", "d", "R", "L"),
        "hessian-upper": ("T", "d", "R", "C"),
        "hessian-volume-upper": ("T", "d", "C"),
        "glm-lower": ("T", "d", "s"),
        "power-lower": ("T", "s"),
        "cover-size": ("T", "alpha", "dfat"),
    }
    for kind, names in required.items():
        with pytest.raises(ValueError, match=re.escape(str(list(names)))):
            evaluate_bound(kind)


def test_evaluate_bound_rejects_unknown_parameters():
    with pytest.raises(ValueError, match=r"does not take parameters \['alpha'\]"):
        evaluate_bound("lipschitz-upper", T=100, d=1, R=1.0, L=1.0, alpha=0.1)
    # optional parameters are taken
    assert evaluate_bound("glm-lower", T=64, d=2, s=2.0, c=1.0) == glm_lower(64, 2, 2.0, c=1.0)


def test_evaluate_bound_integer_parameters():
    assert evaluate_bound("cover-size", T=100.0, alpha=0.1, dfat=2.0) == \
        cover_size_bound(100, 0.1, 2)
    with pytest.raises(ValueError, match="dfat must be an integer"):
        evaluate_bound("cover-size", T=100, alpha=0.1, dfat=2.5)
    with pytest.raises(ValueError, match="T must be an integer"):
        evaluate_bound("cover-size", T=100.5, alpha=0.1, dfat=2)
    with pytest.raises(ValueError, match="d must be an integer"):
        evaluate_bound("lipschitz-upper", T=100, d=1.5, R=1.0, L=1.0)


def test_evaluate_bound_domain_checks():
    with pytest.raises(ValueError):
        lipschitz_upper(0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        lipschitz_lower(1, 1, 1.0, 1.0)  # RLT <= e
    with pytest.raises(ValueError):
        hessian_upper(10, 1, -1.0, 0.25)


@given(st.integers(min_value=1, max_value=10 ** 4),
       st.integers(min_value=1, max_value=8))
def test_lipschitz_upper_at_most_T(T, d):
    assert lipschitz_upper(T, d, 1.0, 1.0) <= T + 1e-12


def test_bound_registry_covers_all_kinds():
    assert set(BOUND_KINDS) == {
        "cover-upper", "lipschitz-upper", "lipschitz-lower", "hessian-upper",
        "hessian-volume-upper", "glm-lower", "power-lower", "cover-size"}

import pytest

from pslab.errors import GuardError, ValidationError, check_range


@pytest.mark.parametrize("least, guard", [(0, 10), (1, 10**9), (2, 2)])
def test_check_range_boundaries(least, guard):
    with pytest.raises(ValidationError):
        check_range(least - 1, least, guard, "test")
    check_range(least, least, guard, "test")
    check_range(guard, least, guard, "test")
    with pytest.raises(GuardError, match="guard"):
        check_range(guard + 1, least, guard, "test")


def test_check_range_names_the_value():
    with pytest.raises(ValidationError, match="N must be >= 1"):
        check_range(0, 1, 10, "residue", name="N")
    with pytest.raises(GuardError, match="N=11 exceeds the residue guard"):
        check_range(11, 1, 10, "residue", name="N")

import pytest

from distsym.errors import RangeTooSmallError
from distsym.families import FamilySpec, generate_family
from distsym.scalar_sets import ScalarSet

REJECTED = [
    (FamilySpec("ap", n=3, step=0), "ap step must be nonzero"),
    (FamilySpec("gap2", n=3, n2=2, d2=0), "gap2 generators must be nonzero"),
    (FamilySpec("geometric", n=3, start=0), "geometric start must be nonzero"),
    (FamilySpec("geometric", n=3, start=1, ratio=0), "geometric ratio must be nonzero"),
    (FamilySpec("geometric", n=3, ratio=1), "geometric ratio must not be 1 or -1"),
    (FamilySpec("geometric", n=3, ratio=-1), "geometric ratio must not be 1 or -1"),
    (FamilySpec("random_int", n=3, coord_range=-1), "coordinate range must be nonnegative"),
    (FamilySpec("random_int", n=4, coord_range=1), "range too small for a distinct sample"),
    (FamilySpec("random_int", n=10, coord_range=1, dim=2), "range too small for distinct points"),
    (FamilySpec("random_int", n=3, dim=3), "dim must be 1 or 2"),
    (FamilySpec("cartesian_of"), "cartesian_of needs a base family"),
    (FamilySpec("cartesian_of", base=FamilySpec("grid", n=2)),
     "cartesian_of base must be a scalar family"),
    (FamilySpec("spiral", n=3), "unknown family kind: 'spiral'"),
    (FamilySpec("grid", n=0), "family size must be >= 1"),
]


@pytest.mark.parametrize("spec, message", REJECTED, ids=[m for _, m in REJECTED])
def test_generate_family_rejects_bad_specs(spec, message):
    with pytest.raises(ValueError) as e:
        generate_family(spec)
    assert str(e.value) == message


# a sweep skips such a size, so the refusal has its own type
@pytest.mark.parametrize("dim", [1, 2])
def test_a_range_too_small_raises_its_own_error(dim):
    with pytest.raises(RangeTooSmallError):
        generate_family(FamilySpec("random_int", n=3 ** dim + 1, coord_range=1, dim=dim))


def test_a_bare_geometric_spec_starts_at_1():
    # start defaults to 1 for geometric and to 0 for ap; an explicit start=0 is refused above
    assert generate_family(FamilySpec("geometric", n=3)) == ScalarSet([1, 2, 4])
    assert generate_family(FamilySpec("ap", n=3)) == ScalarSet([0, 1, 2])

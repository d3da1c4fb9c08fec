"""Cache geometry validation and derived arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry, geometry_violations
from repro.errors import GeometryError
from repro.units import kb


class TestValidation:
    def test_valid_direct_mapped(self):
        g = CacheGeometry(kb(4))
        assert g.n_lines == 256
        assert g.n_sets == 256
        assert g.is_direct_mapped

    def test_valid_four_way(self):
        g = CacheGeometry(kb(64), associativity=4)
        assert g.n_lines == 4096
        assert g.n_sets == 1024
        assert not g.is_direct_mapped

    def test_fully_associative(self):
        g = CacheGeometry(256, line_size=16, associativity=16)
        assert g.is_fully_associative

    def test_non_pow2_size_rejected(self):
        with pytest.raises(GeometryError):
            CacheGeometry(3000)

    def test_non_pow2_line_rejected(self):
        with pytest.raises(GeometryError):
            CacheGeometry(kb(4), line_size=24)

    def test_line_exceeding_size_rejected(self):
        with pytest.raises(GeometryError):
            CacheGeometry(16, line_size=32)

    def test_zero_associativity_rejected(self):
        with pytest.raises(GeometryError):
            CacheGeometry(kb(4), associativity=0)

    def test_associativity_larger_than_lines_rejected(self):
        with pytest.raises(GeometryError):
            CacheGeometry(64, line_size=16, associativity=8)

    def test_zero_and_negative_sizes_rejected(self):
        with pytest.raises(GeometryError):
            CacheGeometry(0)
        with pytest.raises(GeometryError):
            CacheGeometry(-4096)

    @pytest.mark.parametrize(
        "shape",
        [
            dict(size_bytes=True),
            dict(size_bytes=kb(4), line_size=True),
            dict(size_bytes=kb(4), associativity=True),
        ],
    )
    def test_bool_dimensions_rejected(self, shape):
        # True == 1 numerically, but a bool is never a cache dimension.
        with pytest.raises(GeometryError):
            CacheGeometry(**shape)

    def test_violations_predicate_matches_validator(self):
        # The validator must raise exactly when the predicate is
        # non-empty, carrying every problem it lists.
        valid = geometry_violations(kb(8), 16, 1)
        assert valid == []
        problems = geometry_violations(3000, 24, 0)
        assert len(problems) == 3
        with pytest.raises(GeometryError) as excinfo:
            CacheGeometry(3000, line_size=24, associativity=0)
        for problem in problems:
            assert problem in str(excinfo.value)


class TestDerived:
    def test_set_index_wraps(self):
        g = CacheGeometry(kb(1))  # 64 sets
        assert g.set_index(0) == 0
        assert g.set_index(64) == 0
        assert g.set_index(65) == 1

    def test_labels(self):
        assert CacheGeometry(kb(32)).label() == "32K/DM"
        assert CacheGeometry(kb(64), associativity=4).label() == "64K/4-way"
        assert str(CacheGeometry(kb(1))) == "1K/DM"

    @given(
        st.sampled_from([kb(k) for k in (1, 2, 4, 8, 16, 32, 64, 128, 256)]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_shape_identity(self, size, assoc):
        g = CacheGeometry(size, associativity=assoc)
        assert g.n_sets * g.associativity * g.line_size == g.size_bytes

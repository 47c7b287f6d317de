"""Tests for the taxi / 311 / crime generators and region hierarchies."""

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.baselines import naive_join
from repro.data import (
    DEFAULT_EPOCH,
    SECONDS_PER_DAY,
    CityModel,
    generate_complaints,
    generate_crimes,
    generate_taxi_trips,
    grid_regions,
    region_hierarchy,
    voronoi_regions,
)
from repro.errors import DataGenerationError
from repro.geometry import BBox


@pytest.fixture(scope="module")
def gcity():
    return CityModel(seed=11)


class TestTaxi:
    def test_schema(self, gcity):
        t = generate_taxi_trips(gcity, 5000)
        assert t.name == "taxi"
        assert set(t.column_names) == {
            "t", "fare", "distance_km", "tip", "passengers", "payment",
            "vendor"}
        assert t.column("t").kind == "timestamp"
        assert t.column("payment").kind == "categorical"

    def test_deterministic(self, gcity):
        a = generate_taxi_trips(gcity, 1000, seed=5)
        b = generate_taxi_trips(gcity, 1000, seed=5)
        assert (a.x == b.x).all()
        assert (a.values("fare") == b.values("fare")).all()

    def test_fare_structure(self, gcity):
        t = generate_taxi_trips(gcity, 20_000)
        fare = t.values("fare")
        dist = t.values("distance_km")
        assert fare.min() >= 2.5  # flag drop floor
        # Fares correlate strongly with distance (metered).
        corr = np.corrcoef(fare, dist)[0, 1]
        assert corr > 0.9

    def test_cash_rides_never_tip(self, gcity):
        t = generate_taxi_trips(gcity, 10_000)
        cash = t.column("payment").decode() == "cash"
        assert (t.values("tip")[cash] == 0).all()
        card_tips = t.values("tip")[~cash]
        assert card_tips.mean() > 0

    def test_time_window_respected(self, gcity):
        start = DEFAULT_EPOCH + 10 * SECONDS_PER_DAY
        end = start + 5 * SECONDS_PER_DAY
        t = generate_taxi_trips(gcity, 2000, start, end)
        ts = t.values("t")
        assert ts.min() >= start
        assert ts.max() < end

    def test_rejects_zero_rows(self, gcity):
        with pytest.raises(DataGenerationError):
            generate_taxi_trips(gcity, 0)


class TestComplaintsAndCrime:
    def test_complaints_schema(self, gcity):
        c = generate_complaints(gcity, 3000)
        assert set(c.column_names) == {"t", "kind", "agency", "resolution_h"}
        assert (c.values("resolution_h") > 0).all()

    def test_complaint_mix_skewed_to_noise(self, gcity):
        c = generate_complaints(gcity, 20_000)
        kinds = c.column("kind").decode()
        counts = {k: (kinds == k).sum() for k in set(kinds.tolist())}
        assert max(counts, key=counts.get) == "noise"

    def test_crime_schema_and_severity(self, gcity):
        c = generate_crimes(gcity, 3000)
        assert set(c.column_names) == {"t", "offense", "severity"}
        sev = c.values("severity")
        assert sev.min() >= 0.5
        assert sev.max() <= 10.0

    def test_severity_tracks_offense(self, gcity):
        c = generate_crimes(gcity, 30_000)
        offense = c.column("offense").decode()
        sev = c.values("severity")
        assert sev[offense == "robbery"].mean() > sev[
            offense == "vandalism"].mean()


class TestRegionGenerators:
    def test_voronoi_partition_assigns_uniquely(self, gcity):
        """Voronoi regions should partition: interior points get exactly
        one region (clipping slivers can drop a few boundary points)."""
        regions = voronoi_regions(gcity, 30, name="v")
        gen = np.random.default_rng(0)
        pts = gcity.sample_interior_points(gen, 2000)
        membership = np.zeros(len(pts), dtype=int)
        for geom in regions.geometries:
            membership += geom.contains_points(pts).astype(int)
        assert (membership <= 1).all()
        assert (membership == 1).mean() > 0.97

    def test_voronoi_area_covers_city(self, gcity):
        regions = voronoi_regions(gcity, 50, name="v")
        assert regions.areas().sum() == pytest.approx(
            gcity.boundary.area, rel=0.02)

    def test_hierarchy_levels_ordered(self, gcity):
        levels = region_hierarchy(gcity, {"coarse": 5, "fine": 60})
        assert len(levels["fine"]) > len(levels["coarse"])

    def test_count_validation(self, gcity):
        with pytest.raises(DataGenerationError):
            voronoi_regions(gcity, 0, name="bad")

    def test_grid_regions(self):
        rs = grid_regions(BBox(0, 0, 10, 10), 4, 3, name="g")
        assert len(rs) == 12
        assert rs.areas().sum() == pytest.approx(100.0)


class TestDemoWorkload:
    def test_structure(self, demo):
        assert set(demo.datasets) == {"taxi", "complaints311", "crime"}
        assert "neighborhoods" in demo.regions
        assert demo.months == 2

    def test_shared_geography(self, demo):
        """Data sets share the city's hotspots: the busiest taxi region
        is also busy for complaints (spatial correlation > 0)."""
        regions = demo.regions["neighborhoods"]
        taxi = naive_join(demo.datasets["taxi"].sample(5000, seed=0),
                          regions, SpatialAggregation.count()).values
        compl = naive_join(
            demo.datasets["complaints311"].sample(5000, seed=0),
            regions, SpatialAggregation.count()).values
        corr = np.corrcoef(taxi, compl)[0, 1]
        assert corr > 0.3

    def test_dataset_accessors(self, demo):
        assert demo.dataset("taxi") is demo.datasets["taxi"]
        assert demo.region_set("boroughs") is demo.regions["boroughs"]

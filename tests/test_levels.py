import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqmix.errors import ConfigError, DataError
from iqmix.levels import (
    FIVE_LEVEL_LABELS,
    LevelScale,
    RatingLevel,
    quantize_scores,
    score_to_level,
)
from iqmix.scoring import weighted_score


@pytest.fixture
def scale15() -> LevelScale:
    return LevelScale(1.0, 5.0)


class TestScoreToLevel:
    @pytest.mark.parametrize(
        "score,label",
        [
            (3.0, "fair"),
            (5.0, "excellent"),
            (1.0, "bad"),  # range minimum assigned to the first level
            (4.2, "good"),  # closed upper edge of interval 4
            (1.8, "bad"),
            (2.6, "poor"),
            (3.4, "fair"),
        ],
    )
    def test_examples(self, scale15, score, label):
        assert score_to_level(score, scale15).label == label

    def test_just_above_edges(self, scale15):
        for i, edge in enumerate(scale15.interior_edges(), start=1):
            above = np.nextafter(edge, np.inf)
            assert score_to_level(above, scale15).index == i + 1

    @pytest.mark.parametrize("bad", [0.5, 5.5, float("nan"), float("inf"), float("-inf")])
    def test_out_of_range(self, scale15, bad):
        message = f"score {bad!r} outside scale [1.0, 5.0]"
        with pytest.raises(DataError) as scalar:
            score_to_level(bad, scale15)
        with pytest.raises(DataError) as vector:
            quantize_scores([3.0, bad, 2.0], scale15)
        assert str(scalar.value) == str(vector.value) == message

    def test_monotone(self, scale15):
        rng = np.random.default_rng(11)
        scores = np.sort(rng.uniform(1.0, 5.0, 500))
        indices = [score_to_level(s, scale15).index for s in scores]
        assert indices == sorted(indices)

    def test_vectorized_matches_scalar(self):
        scale = LevelScale(0.0, 100.0)
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.0, 100.0, 1000)
        vec = quantize_scores(scores, scale)
        assert all(
            int(v) == score_to_level(float(s), scale).index
            for s, v in zip(scores, vec)
        )

    def test_vectorized_out_of_range(self):
        with pytest.raises(DataError, match=r"^score 120\.0 outside scale \[0\.0, 100\.0\]$"):
            quantize_scores([0.0, 120.0], LevelScale(0.0, 100.0))

    def test_two_level_scale(self):
        scale = LevelScale(0.0, 1.0, level_count=2)
        assert scale.labels == ("poor", "good")
        assert score_to_level(0.2, scale).label == "poor"
        assert score_to_level(0.5, scale).label == "poor"  # edge stays below
        assert score_to_level(0.7, scale).label == "good"


class TestLevelScale:
    def test_invalid_range(self):
        with pytest.raises(ConfigError):
            LevelScale(5.0, 5.0)
        with pytest.raises(ConfigError):
            LevelScale(5.0, 1.0)
        for lo, hi in ((0.0, float("inf")), (float("-inf"), 0.0), (-1e308, 1e308)):
            with pytest.raises(ConfigError, match="finite bounds"):
                LevelScale(lo, hi)

    def test_invalid_count(self):
        with pytest.raises(ConfigError):
            LevelScale(0.0, 1.0, level_count=1)

    def test_bin_edges_strictly_increasing(self):
        for lo, hi in [(1.0, 5.0), (0.0, 100.0), (-3.0, 7.5)]:
            edges = LevelScale(lo, hi).bin_edges()
            assert len(edges) == 6
            assert all(a < b for a, b in zip(edges, edges[1:]))
            assert edges[0] == lo and edges[-1] == hi

    def test_top_edge_is_max_score_exactly(self):
        # m + (n/n)(M-m) rounds to 12.900000000000002 here
        scale = LevelScale(-3.7, 12.9, 7)
        assert scale.bin_edges()[-1] == 12.9
        assert score_to_level(scale.bin_edges()[-1], scale).index == 7

    def test_five_labels(self):
        assert LevelScale(1, 5).labels == FIVE_LEVEL_LABELS
        assert [lv.index for lv in LevelScale(1, 5).levels] == [1, 2, 3, 4, 5]


class TestLevelToScore:
    @pytest.mark.parametrize("index,label,score", [(3, "fair", 3), (1, "bad", 1), (5, "excellent", 5)])
    def test_examples(self, index, label, score, scale15):
        # on the 1..5 scale the integer score i lands in level i and maps back to i
        level = score_to_level(float(score), scale15)
        assert level == RatingLevel(index, label)
        assert level.index == score

    def test_round_trip_is_step_function(self, scale15):
        grid = np.linspace(1.0, 5.0, 2001)
        steps = [score_to_level(float(s), scale15).index for s in grid]
        assert steps == sorted(steps)
        assert set(steps) == {1, 2, 3, 4, 5}
        # plateaus have equal width: interval i covers (edge_{i-1}, edge_i]
        edges = scale15.bin_edges()
        widths = {round(edges[i + 1] - edges[i], 12) for i in range(5)}
        assert widths == {0.8}


class TestMosFromFrequencies:
    """A MOS from normalized per-level frequencies is their weighted average
    of the level scores 1..5, which scoring.weighted_score computes."""

    def test_point_mass(self):
        assert weighted_score((0, 0, 1, 0, 0)) == 3.0

    def test_symmetry(self):
        assert weighted_score((0.5, 0, 0, 0, 0.5)) == 3.0

    def test_weighted(self):
        assert weighted_score((0, 0, 0.5, 0.5, 0)) == 3.5

    def test_affine_in_frequencies(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = rng.dirichlet(np.ones(5))
            g = rng.dirichlet(np.ones(5))
            a = float(rng.uniform())
            mixed = weighted_score(tuple(a * f + (1 - a) * g))
            parts = a * weighted_score(tuple(f)) + (1 - a) * weighted_score(tuple(g))
            assert mixed == pytest.approx(parts, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            f = rng.dirichlet(np.ones(5))
            assert 1.0 <= weighted_score(tuple(f)) <= 5.0


SCALES = [LevelScale(1.0, 5.0), LevelScale(0.0, 100.0), LevelScale(0.0, 1.0),
          LevelScale(-3.7, 12.9, 7), LevelScale(0.1, 0.7, 2), LevelScale(1.0, 10.0, 3)]


class TestQuantizeMatchesScoreToLevel:
    @pytest.mark.parametrize("scale", SCALES, ids=str)
    def test_every_bin_edge(self, scale):
        edges = scale.bin_edges()
        assert (edges[0], edges[-1]) == (scale.min_score, scale.max_score)
        expected = [score_to_level(e, scale).index for e in edges]
        assert quantize_scores(edges, scale).tolist() == expected

    @settings(deadline=None, max_examples=200)
    @given(scale=st.sampled_from(SCALES), fractions=st.lists(st.floats(0.0, 1.0), max_size=50))
    def test_random_in_range_scores(self, scale, fractions):
        span = scale.max_score - scale.min_score
        scores = [min(scale.min_score + f * span, scale.max_score) for f in fractions]
        expected = [score_to_level(s, scale).index for s in scores]
        assert quantize_scores(scores, scale).tolist() == expected

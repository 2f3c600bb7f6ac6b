package obs

import "testing"

// fillHistogram observes every value once and snapshots.
func fillHistogram(t *testing.T, values ...int64) HistogramSnapshot {
	t.Helper()
	h := new(Histogram)
	for _, v := range values {
		h.Observe(v)
	}
	return h.snapshot()
}

func TestHistogramBucketBounds(t *testing.T) {
	cases := []struct {
		i      int
		lo, hi int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{7, 64, 127},
		{63, 1 << 62, 1<<63 - 1},
	}
	for _, tc := range cases {
		lo, hi := HistogramBucketBounds(tc.i)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("HistogramBucketBounds(%d) = [%d, %d], want [%d, %d]", tc.i, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
}

// TestQuantileSingleValue: a histogram whose samples share one value
// must report that value exactly at every quantile — the top-bucket
// clamp to Max makes the power-of-two bounds exact here.
func TestQuantileSingleValue(t *testing.T) {
	s := fillHistogram(t, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := s.Quantile(q); got != 4 {
			t.Errorf("Quantile(%v) = %d, want 4", q, got)
		}
	}
}

// TestQuantileBucketEdges pins behaviour at the power-of-two bucket
// boundaries: one observation at each of 1..8 spans buckets 1..4 with
// exact edge values.
func TestQuantileBucketEdges(t *testing.T) {
	s := fillHistogram(t, 1, 2, 3, 4, 5, 6, 7, 8)
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1},     // rank 1 lands in bucket 1, [1,1]
		{0.125, 1}, // rank 1: the exact lowest sample
		{0.25, 2},  // rank 2 is the first of bucket 2's [2,3]
		{0.5, 4},   // rank 4 is the first of bucket 3's [4,7]
		{0.875, 7}, // rank 7 is the last of bucket 3's [4,7]
		{0.99, 8},  // rank 8 lands in bucket 4, clamped to Max
		{1, 8},     // q ≥ 1 is exactly Max
	}
	for _, tc := range cases {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

// TestQuantileZeroBucket: non-positive observations collapse into bucket
// 0 and report as 0.
func TestQuantileZeroBucket(t *testing.T) {
	s := fillHistogram(t, -5, 0, 0, 7)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) = %d, want 0 (bucket 0)", got)
	}
	if got := s.Quantile(1); got != 7 {
		t.Errorf("Quantile(1) = %d, want 7 (Max)", got)
	}
}

// TestQuantileInterpolation: ranks interpolate linearly inside a wide
// bucket instead of snapping to an edge.
func TestQuantileInterpolation(t *testing.T) {
	// 4 samples in bucket 7 ([64, 127]); Max caps the top at 100.
	s := fillHistogram(t, 70, 80, 90, 100)
	p50 := s.Quantile(0.5)
	if p50 <= 64 || p50 >= 100 {
		t.Errorf("Quantile(0.5) = %d, want an interior value of (64, 100)", p50)
	}
	if s.Quantile(0.25) > p50 {
		t.Errorf("Quantile(0.25) = %d > Quantile(0.5) = %d; quantiles must be monotone", s.Quantile(0.25), p50)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %d, want 100", got)
	}
}

// TestQuantileConvenience ties P50/P90/P99 to Quantile.
func TestQuantileConvenience(t *testing.T) {
	s := fillHistogram(t, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
	if s.P50() != s.Quantile(0.50) || s.P90() != s.Quantile(0.90) || s.P99() != s.Quantile(0.99) {
		t.Errorf("P50/P90/P99 disagree with Quantile: %d/%d/%d vs %d/%d/%d",
			s.P50(), s.P90(), s.P99(), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99))
	}
	if !(s.P50() <= s.P90() && s.P90() <= s.P99() && s.P99() <= s.Max) {
		t.Errorf("quantiles not monotone: p50=%d p90=%d p99=%d max=%d", s.P50(), s.P90(), s.P99(), s.Max)
	}
}

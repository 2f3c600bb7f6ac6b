package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMetricsSnapshotConcurrent drives one registry from many
// goroutines doing the full mixed workload — counter adds, gauge
// high-water writes, histogram observations, first-use registrations,
// scrape-time gauge functions and snapshots mid-flight — and checks the
// totals reconcile. Run under `make test-race`, this is the concurrency
// contract of Metrics: every handle operation is atomic and Snapshot
// may race with writers and registrations freely (TestMetricsConcurrent
// covers writers alone).
func TestMetricsSnapshotConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
	)
	m := NewMetrics()
	var live atomic.Int64
	m.GaugeFunc("live.rounds", live.Load)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Counter("work.ops").Add(3)
				m.Gauge("work.depth").SetMax(int64(id*rounds + i))
				m.Histogram("work.sizes").Observe(int64(i % 100))
				// A name per worker and round bucket: lookups race with
				// first-use registrations.
				m.Counter(fmt.Sprintf("work.bucket.%d.%d", id, i/100)).Inc()
				live.Add(1)
				if i%50 == 0 {
					// Snapshots taken while writers are racing must be
					// internally consistent maps, not torn state.
					s := m.Snapshot()
					if s.Counter("work.ops") < 0 || s.Gauge("live.rounds") < 0 {
						t.Errorf("negative value in mid-flight snapshot")
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := m.Snapshot()
	const total = workers * rounds
	if got := s.Counter("work.ops"); got != 3*total {
		t.Errorf("work.ops = %d, want %d", got, 3*total)
	}
	if got := s.Gauge("work.depth"); got != int64(total-1) {
		t.Errorf("work.depth = %d, want high-water %d", got, total-1)
	}
	if got := s.Gauge("live.rounds"); got != total {
		t.Errorf("live.rounds = %d, want %d (read at snapshot time)", got, total)
	}
	var buckets int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "work.bucket.") {
			buckets += v
		}
	}
	if buckets != total {
		t.Errorf("work.bucket.* sum = %d, want %d", buckets, total)
	}
	h := s.Histograms["work.sizes"]
	if h.Count != total {
		t.Errorf("work.sizes count = %d, want %d", h.Count, total)
	}
}

// The race detector's instrumentation allocates and sync.Pool drops
// items at random under it, so the allocation gates only arm on plain
// `go test`.

//go:build !race

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	xpath "xpathcomplexity"
)

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so an allocation count of the handler measures the handler.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// replayBody is a reusable request body that replays the same bytes.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// evalCall returns a function that serves one /v1/eval request for body
// through s's handler in-process and fails t on a status other than 200.
func evalCall(t *testing.T, s *Server, body string) func() {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", nil)
	req.Header.Set(HeaderTenant, "alloc")
	req.Header.Set(HeaderMaxOps, "1000000")
	req.Header.Set(HeaderMaxNodeSet, "10000")
	req.Header.Set(HeaderTimeoutMs, "2000")
	rb := new(replayBody)
	raw := []byte(body)
	w := &discardWriter{header: make(http.Header)}
	return func() {
		rb.Reset(raw)
		req.Body = rb
		req.ContentLength = int64(len(body))
		clear(w.header)
		w.status = 0
		s.handleEval(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("eval %s: status %d", body, w.status)
		}
	}
}

// The /v1/eval allocation ceilings of TestEvalAllocs, in allocations
// per request served in-process (no net/http server or client).
const (
	// evalHitAllocs: a one-query request served from the result cache.
	// What is left is the query string the request decodes.
	evalHitAllocs = 8
	// evalMissAllocs: the same request when its result-cache entry was
	// just invalidated, so the bytecode VM runs, its guard is built and
	// the result is admitted. An uncontended miss recycles its
	// singleflight call and makes no wait channel, and the name test's
	// cached bitset is found under an unboxed key.
	evalMissAllocs = 6
)

// TestEvalAllocs is the handler's allocation gate: the request decode,
// admission, evaluation and response encode of one-query requests must
// stay within the ceilings above.
func TestEvalAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates; the gate runs uninstrumented")
	}
	s := New(Config{Workers: 2})
	info, err := s.Registry().Add(mustParse(t, testDoc))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := ParseFingerprint(info.Fingerprint)
	const query = "//a[b]/b"
	if c, err := xpath.Prepare(query); err != nil || c.Bound != xpath.EngineVM {
		t.Fatalf("%s must bind the VM for the miss row: %v", query, err)
	}
	call := evalCall(t, s, `{"doc":"`+info.Fingerprint+`","queries":["`+query+`"]}`)
	for i := 0; i < 3; i++ {
		call()
	}

	st := s.cache.Stats()
	hit := testing.AllocsPerRun(200, call)
	if got := s.cache.Stats(); got.Hits-st.Hits < 200 || got.Misses != st.Misses {
		t.Fatalf("hit row did not serve hits: before %+v, after %+v", st, got)
	}
	t.Logf("cache hit: %.1f allocs/request", hit)
	if hit > evalHitAllocs {
		t.Errorf("cache hit: %.1f allocs per request, ceiling %d", hit, evalHitAllocs)
	}

	st = s.cache.Stats()
	miss := testing.AllocsPerRun(200, func() {
		s.cache.InvalidateDocument(fp)
		call()
	})
	if got := s.cache.Stats(); got.Misses-st.Misses < 200 {
		t.Fatalf("miss row did not miss: before %+v, after %+v", st, got)
	}
	t.Logf("vm cache miss: %.1f allocs/request", miss)
	if miss > evalMissAllocs {
		t.Errorf("vm cache miss: %.1f allocs per request, ceiling %d", miss, evalMissAllocs)
	}
}

// TestBudgetHeadersAllocFree pins that resolving the four request
// headers indexes r.Header by precomputed canonical keys instead of
// canonicalizing a key per lookup.
func TestBudgetHeadersAllocFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates; the gate runs uninstrumented")
	}
	s := New(Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", nil)
	req.Header.Set(HeaderTenant, "alpha")
	req.Header.Set(HeaderMaxOps, "1000")
	req.Header.Set(HeaderMaxNodeSet, "100")
	req.Header.Set(HeaderTimeoutMs, "50")
	var lim limits
	var tenant string
	allocs := testing.AllocsPerRun(100, func() {
		lim, _ = s.requestLimits(req)
		tenant = tenantName(req)
	})
	if allocs != 0 {
		t.Errorf("requestLimits+tenantName: %.1f allocs, want 0", allocs)
	}
	if lim.maxOps != 1000 || lim.maxNodeSet != 100 || lim.timeout.Milliseconds() != 50 || tenant != "alpha" {
		t.Errorf("headers not applied: %+v tenant %q", lim, tenant)
	}
}

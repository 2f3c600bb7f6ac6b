package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testDoc is small enough to evaluate instantly but deep enough that
// //b and predicate queries return interesting node-sets.
const testDoc = `<root><a><b id="1"/><b id="2"><c/></b></a><a><b id="3"/></a><d>text</d></root>`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func loadDoc(t *testing.T, ts *httptest.Server, xml string) DocInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/documents", "application/xml", strings.NewReader(xml))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("load: status %d: %s", resp.StatusCode, body)
	}
	var info DocInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("load: decode: %v", err)
	}
	return info
}

func evalReq(t *testing.T, ts *httptest.Server, doc string, queries []string, hdr map[string]string) (*http.Response, evalResponse) {
	t.Helper()
	body, _ := json.Marshal(evalRequest{Doc: doc, Queries: queries})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("eval request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var er evalResponse
	_ = json.Unmarshal(raw, &er)
	return resp, er
}

// TestServeLifecycle is the end-to-end flow the issue names: document
// load → eval → cache hit → budget-exceeded 4xx → shed 429.
func TestServeLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// Load; reloading identical content dedupes to the same fingerprint.
	info := loadDoc(t, ts, testDoc)
	if info.Nodes <= 0 || info.Fingerprint == "" {
		t.Fatalf("bad DocInfo: %+v", info)
	}
	again := loadDoc(t, ts, testDoc)
	if again.Fingerprint != info.Fingerprint {
		t.Fatalf("reload changed fingerprint: %s vs %s", again.Fingerprint, info.Fingerprint)
	}
	if st := s.Registry().Stats(); st.Loads != 1 || st.Dedups != 1 || st.Docs != 1 {
		t.Fatalf("registry stats after dedup load: %+v", st)
	}

	// Eval: a node-set query and a scalar.
	resp, er := evalReq(t, ts, info.Fingerprint, []string{"//b", "count(//b)"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status %d", resp.StatusCode)
	}
	if len(er.Results) != 2 {
		t.Fatalf("want 2 results, got %+v", er)
	}
	if er.Results[0].Card != 3 || len(er.Results[0].Ords) != 3 {
		t.Errorf("//b: want card 3 with 3 ords, got %+v", er.Results[0])
	}
	if er.Results[1].Kind != "number" || er.Results[1].Value != "3" {
		t.Errorf("count(//b): want number 3, got %+v", er.Results[1])
	}

	// Cache hit: repeating the eval serves from the shared result cache.
	misses0 := s.cache.Stats().Misses
	hits0 := s.cache.Stats().Hits
	if _, er2 := evalReq(t, ts, info.Fingerprint, []string{"//b"}, nil); er2.Results[0].Card != 3 {
		t.Fatalf("warm eval: %+v", er2)
	}
	st := s.cache.Stats()
	if st.Hits <= hits0 {
		t.Errorf("expected a cache hit: before hits=%d, after %+v", hits0, st)
	}
	if st.Misses != misses0 {
		t.Errorf("warm eval should not miss: before misses=%d, after %+v", misses0, st)
	}

	// Budget exceeded: a 1-op budget cannot finish, and a single-query
	// request maps that onto 422.
	resp, er = evalReq(t, ts, info.Fingerprint, []string{"//b[c]//a"}, map[string]string{HeaderMaxOps: "1"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("budget eval: want 422, got %d (%+v)", resp.StatusCode, er)
	}
	if er.Results[0].ErrKind != "budget" {
		t.Errorf("want err_kind budget, got %+v", er.Results[0])
	}

	// Shed: with the worker pool and queue wedged from the outside, the
	// next request is shed with 429 + Retry-After and the counter moves.
	release := wedgeAdmission(s)
	resp, _ = evalReq(t, ts, info.Fingerprint, []string{"//b"}, nil)
	release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated eval: want 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.metrics.Counter("server.shed").Value(); got < 1 {
		t.Errorf("server.shed = %d, want >= 1", got)
	}

	// The shed counter is visible on the mounted /metrics plane.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(text), "server_shed") {
		t.Errorf("/metrics does not expose the shed counter:\n%.2000s", text)
	}
}

// wedgeAdmission fills every worker slot and queue ticket so the next
// acquire sheds immediately, returning a release func.
func wedgeAdmission(s *Server) func() {
	for i := 0; i < cap(s.adm.global); i++ {
		s.adm.global <- struct{}{}
	}
	for i := 0; i < cap(s.adm.queue); i++ {
		s.adm.queue <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(s.adm.global); i++ {
			<-s.adm.global
		}
		for i := 0; i < cap(s.adm.queue); i++ {
			<-s.adm.queue
		}
	}
}

// TestTenantShed pins the per-tenant gate: a tenant at its concurrency
// cap is shed even while the pool has room, and other tenants pass.
func TestTenantShed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, TenantConcurrency: 1})
	info := loadDoc(t, ts, testDoc)

	// Wedge tenant "alpha" at its single slot.
	slots := s.adm.tenantSlots("alpha")
	slots <- struct{}{}
	defer func() { <-slots }()

	resp, _ := evalReq(t, ts, info.Fingerprint, []string{"//b"}, map[string]string{HeaderTenant: "alpha"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alpha: want 429, got %d", resp.StatusCode)
	}
	if got := s.metrics.Counter("server.shed.tenant.alpha").Value(); got != 1 {
		t.Errorf("server.shed.tenant.alpha = %d, want 1", got)
	}
	resp, er := evalReq(t, ts, info.Fingerprint, []string{"//b"}, map[string]string{HeaderTenant: "beta"})
	if resp.StatusCode != http.StatusOK || er.Results[0].Card != 3 {
		t.Fatalf("beta should pass: status %d, %+v", resp.StatusCode, er)
	}
}

// TestBudgetHeaders rejects malformed budget headers with 400 — the
// same discipline the httpobs `?n=` fix enforces.
func TestBudgetHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := loadDoc(t, ts, testDoc)
	bad := []struct{ header, value string }{
		{HeaderMaxOps, "bogus"},
		{HeaderMaxOps, "-5"},
		{HeaderMaxOps, "0"},
		{HeaderMaxOps, "00000000000000000000000000000009"},
		{HeaderMaxNodeSet, "1e6"},
		{HeaderMaxNodeSet, "-1"},
		{HeaderTimeoutMs, "500ms"},
		{HeaderTimeoutMs, "0"},
	}
	for _, tc := range bad {
		resp, _ := evalReq(t, ts, info.Fingerprint, []string{"//b"}, map[string]string{tc.header: tc.value})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s=%q: want 400, got %d", tc.header, tc.value, resp.StatusCode)
		}
	}
	// Valid headers (clamped by ceilings) pass.
	resp, er := evalReq(t, ts, info.Fingerprint, []string{"//b"}, map[string]string{
		HeaderMaxOps: "1000000", HeaderMaxNodeSet: "10000", HeaderTimeoutMs: "2000",
	})
	if resp.StatusCode != http.StatusOK || er.Results[0].Card != 3 {
		t.Fatalf("valid headers: status %d, %+v", resp.StatusCode, er)
	}
}

// TestCeilingClamp pins that a header cannot widen budgets past the
// operator ceiling: with a 64-op ceiling, a request asking for billions
// still exhausts at the ceiling.
func TestCeilingClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxOpsCeiling: 8})
	info := loadDoc(t, ts, testDoc)
	resp, er := evalReq(t, ts, info.Fingerprint, []string{"//b[c]//a[b]"}, map[string]string{HeaderMaxOps: "999999999999"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 at the ceiling, got %d (%+v)", resp.StatusCode, er)
	}
}

// TestEvalErrors covers the request-shape and status-mapping edges.
func TestEvalErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchQueries: 2})
	info := loadDoc(t, ts, testDoc)

	cases := []struct {
		name    string
		doc     string
		queries []string
		want    int
	}{
		{"unknown doc", "00000000deadbeef", []string{"//b"}, http.StatusNotFound},
		{"malformed fingerprint", "not-hex!", []string{"//b"}, http.StatusBadRequest},
		{"empty batch", info.Fingerprint, nil, http.StatusBadRequest},
		{"oversized batch", info.Fingerprint, []string{"//a", "//b", "//c"}, http.StatusBadRequest},
		{"compile error", info.Fingerprint, []string{"//b["}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := evalReq(t, ts, tc.doc, tc.queries, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: want %d, got %d", tc.name, tc.want, resp.StatusCode)
		}
	}

	// A multi-query batch with one failing query stays 200 with the
	// error inline.
	resp, er := evalReq(t, ts, info.Fingerprint, []string{"//b", "//b["}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch: want 200, got %d", resp.StatusCode)
	}
	if er.Results[0].Err != "" || er.Results[1].Err == "" || er.Results[1].ErrKind != "compile" {
		t.Errorf("partial batch results: %+v", er.Results)
	}

	// Unknown engine.
	body, _ := json.Marshal(evalRequest{Doc: info.Fingerprint, Queries: []string{"//b"}, Engine: "warp"})
	resp2, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown engine: want 400, got %d", resp2.StatusCode)
	}
}

// TestDocumentLifecycle covers list, delete, delete-invalidates-cache
// and load rejection.
func TestDocumentLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := loadDoc(t, ts, testDoc)

	// Warm the cache, then delete the document: its cached results must
	// not survive into a re-load of identical content.
	evalReq(t, ts, info.Fingerprint, []string{"//b"}, nil)
	evalReq(t, ts, info.Fingerprint, []string{"//b"}, nil)
	if s.cache.Stats().Hits == 0 {
		t.Fatal("expected a warm hit before delete")
	}

	listResp, err := http.Get(ts.URL + "/v1/documents")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Docs  []DocInfo     `json:"docs"`
		Stats RegistryStats `json:"stats"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	listResp.Body.Close()
	if len(listing.Docs) != 1 || listing.Docs[0].Fingerprint != info.Fingerprint {
		t.Fatalf("listing: %+v", listing)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/documents/"+info.Fingerprint, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: want 204, got %d", dresp.StatusCode)
	}
	if inv := s.cache.Stats().Invalidations; inv == 0 {
		t.Error("delete did not invalidate cached results")
	}
	// Deleting again is a 404.
	dresp2, _ := http.DefaultClient.Do(req)
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Errorf("second delete: want 404, got %d", dresp2.StatusCode)
	}
	// Re-load of identical content misses the cache (entries were
	// invalidated, not orphaned).
	misses0 := s.cache.Stats().Misses
	info2 := loadDoc(t, ts, testDoc)
	if info2.Fingerprint != info.Fingerprint {
		t.Fatalf("same content, new fingerprint: %s vs %s", info2.Fingerprint, info.Fingerprint)
	}
	evalReq(t, ts, info2.Fingerprint, []string{"//b"}, nil)
	if s.cache.Stats().Misses != misses0+1 {
		t.Errorf("post-delete eval should miss: misses %d -> %d", misses0, s.cache.Stats().Misses)
	}

	// Malformed XML is the caller's 400.
	bresp, err := http.Post(ts.URL+"/v1/documents", "application/xml", strings.NewReader("<root><unclosed>"))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed XML: want 400, got %d", bresp.StatusCode)
	}
}

// The registry gauges are read at scrape time: /metrics reports the
// resident document count right after a load and again after a delete,
// with no eval request in between to push them.
func TestRegistryGaugesAtScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	docsGauge := func() string { return scrapeSample(t, ts, "xpath_registry_docs") }
	info := loadDoc(t, ts, testDoc)
	if got := docsGauge(); got != "1" {
		t.Errorf("registry_docs after load = %s, want 1", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/documents/"+info.Fingerprint, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: want 204, got %d", resp.StatusCode)
	}
	if got := docsGauge(); got != "0" {
		t.Errorf("registry_docs after delete = %s, want 0", got)
	}
}

// scrapeSample returns the value of the named /metrics sample.
func scrapeSample(t *testing.T, ts *httptest.Server, sample string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(text), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && name == sample {
			return v
		}
	}
	t.Fatalf("/metrics has no %s sample:\n%.2000s", sample, text)
	return ""
}

// The result-cache gauges are read at scrape time too, so cache_size
// follows the cache down after a delete invalidates its entries: admit
// two results, delete the document, re-load it and admit one.
func TestCacheGaugesAtScrape(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := loadDoc(t, ts, testDoc)
	evalReq(t, ts, info.Fingerprint, []string{"//b"}, nil)
	evalReq(t, ts, info.Fingerprint, []string{"count(//b)"}, nil)
	if got, want := scrapeSample(t, ts, "xpath_cache_size"), fmt.Sprint(s.cache.Stats().Size); got != want || want != "2" {
		t.Errorf("cache_size after two admissions = %s, Stats().Size = %s, want 2", got, want)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/documents/"+info.Fingerprint, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	info = loadDoc(t, ts, testDoc)
	evalReq(t, ts, info.Fingerprint, []string{"//b"}, nil)
	if got, want := scrapeSample(t, ts, "xpath_cache_size"), fmt.Sprint(s.cache.Stats().Size); got != want || want != "1" {
		t.Errorf("cache_size after invalidate and re-admit = %s, Stats().Size = %s, want 1", got, want)
	}
}

// TestConcurrentTenants runs several tenants against one registry and
// shared caches under -race: every response must be one of the defined
// statuses and the counters must reconcile with what clients saw.
func TestConcurrentTenants(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 2, QueueWait: time.Millisecond, TenantConcurrency: 2})
	docA := loadDoc(t, ts, testDoc)
	docB := loadDoc(t, ts, `<log><e lvl="i"/><e lvl="w"><m/></e><e lvl="i"/></log>`)

	queries := []string{"//b", "count(//b)", "//e[m]", "//e[@lvl]", "/root/a/b", "//*"}
	var (
		wg               sync.WaitGroup
		mu               sync.Mutex
		ok, shed, budget int
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 30; i++ {
				doc := docA.Fingerprint
				if (g+i)%2 == 1 {
					doc = docB.Fingerprint
				}
				hdr := map[string]string{HeaderTenant: tenant}
				if i%7 == 3 {
					hdr[HeaderMaxOps] = "1"
				}
				body, _ := json.Marshal(evalRequest{Doc: doc, Queries: []string{queries[(g+i)%len(queries)]}})
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/eval", bytes.NewReader(body))
				for k, v := range hdr {
					req.Header.Set(k, v)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("tenant %s: %v", tenant, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					shed++
				case http.StatusUnprocessableEntity:
					budget++
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	if got := s.metrics.Counter("server.shed").Value(); got != int64(shed) {
		t.Errorf("shed counter %d != observed 429s %d", got, shed)
	}
	if budget > 0 && s.metrics.Counter("server.budget_exceeded").Value() == 0 {
		t.Error("clients saw 422s but the budget counter is zero")
	}
	if st := s.Registry().Stats(); st.Docs != 2 {
		t.Errorf("registry should hold both documents: %+v", st)
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestLoadBackendSelection pins the ?backend= load seam: explicit
// per-request backend choice, the configured default, and a 400 that
// names the valid backends on a bad value.
func TestLoadBackendSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/documents?backend=columnar", "application/xml", strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("columnar load: status %d: %s", resp.StatusCode, body)
	}
	var info DocInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Backend != "columnar" || !info.Hydrated {
		t.Fatalf("columnar load info: %+v", info)
	}
	if info.StoreBytes <= 0 || info.Bytes <= info.StoreBytes {
		t.Fatalf("columnar accounting: %+v", info)
	}
	// The columnar-backed document serves evaluations like any other.
	if r2, er := evalReq(t, ts, info.Fingerprint, []string{"count(//b)"}, nil); r2.StatusCode != http.StatusOK || len(er.Results) != 1 {
		t.Fatalf("eval on columnar doc: %d %+v", r2.StatusCode, er)
	}

	bad, err := http.Post(ts.URL+"/v1/documents?backend=no-such", "application/xml", strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	body, _ := io.ReadAll(bad.Body)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad backend: status %d: %s", bad.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("columnar")) || !bytes.Contains(body, []byte("pointer")) {
		t.Fatalf("bad-backend error does not name the valid backends: %s", body)
	}

	// A configured default applies when the request names no backend.
	_, ts2 := newTestServer(t, Config{DefaultBackend: "columnar"})
	if info := loadDoc(t, ts2, testDoc); info.Backend != "columnar" {
		t.Fatalf("DefaultBackend not applied: %+v", info)
	}
}

// TestBudgetHeadersLowercase sends the header names in lower case on the
// wire: the server canonicalizes them on receipt, so they still apply.
func TestBudgetHeadersLowercase(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := loadDoc(t, ts, testDoc)
	body := `{"doc":"` + info.Fingerprint + `","queries":["//b[c]//a[b]"]}`
	raw := "POST /v1/eval HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n" +
		"x-xpath-tenant: lower\r\nx-xpath-max-ops: 1\r\nx-xpath-max-node-set: 5\r\nx-xpath-timeout-ms: 900\r\n" +
		fmt.Sprintf("Content-Length: %d\r\nConnection: close\r\n\r\n", len(body)) + body
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(conn)
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 422")) {
		t.Fatalf("lower-case x-xpath-max-ops: 1 should exhaust the budget (422), got %q", reply)
	}
	if n := s.metrics.Snapshot().Counter("server.budget_exceeded.tenant.lower"); n != 1 {
		t.Errorf("lower-case x-xpath-tenant not applied: budget_exceeded.tenant.lower = %d", n)
	}
}

// TestDocumentLoadBound holds /v1/documents to MaxDocumentBytes through
// the parser's read: a document within the bound loads (201), one past
// it is 413 whether sent with a length or chunked, and a malformed one
// within it is 400.
func TestDocumentLoadBound(t *testing.T) {
	const limit = 64
	_, ts := newTestServer(t, Config{MaxDocumentBytes: limit})
	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/documents", "application/xml", body)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	doc := func(n int) string { // a well-formed document of n bytes
		return "<a>" + strings.Repeat("x", n-7) + "</a>"
	}
	if got := post(strings.NewReader(doc(limit))); got != http.StatusCreated {
		t.Errorf("document of %d bytes: status %d, want 201", limit, got)
	}
	if got := post(strings.NewReader(doc(limit + 1))); got != http.StatusRequestEntityTooLarge {
		t.Errorf("document of %d bytes: status %d, want 413", limit+1, got)
	}
	if got := post(io.MultiReader(strings.NewReader(doc(4 * limit)))); got != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked document of %d bytes: status %d, want 413", 4*limit, got)
	}
	if got := post(strings.NewReader("<a><b></a>")); got != http.StatusBadRequest {
		t.Errorf("malformed document: status %d, want 400", got)
	}
}

// TestEvalBodyBound holds /v1/eval to MaxEvalBodyBytes: a body of
// exactly the bound is served, one byte more is 413 with the connection
// closed, and a chunked body with no Content-Length over the bound is
// 413 too.
func TestEvalBodyBound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := loadDoc(t, ts, testDoc)
	// Pad an unknown key so the body is exactly n bytes.
	bodyOf := func(n int) string {
		head := `{"doc":"` + info.Fingerprint + `","queries":["//b"],"pad":"`
		return head + strings.Repeat("x", n-len(head)-2) + `"}`
	}
	post := func(body io.Reader, contentLength int64) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/eval", body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = contentLength
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	atLimit := bodyOf(MaxEvalBodyBytes)
	if len(atLimit) != MaxEvalBodyBytes {
		t.Fatalf("padding: body is %d bytes", len(atLimit))
	}
	if resp := post(strings.NewReader(atLimit), int64(len(atLimit))); resp.StatusCode != http.StatusOK {
		t.Errorf("body of exactly %d bytes: status %d, want 200", MaxEvalBodyBytes, resp.StatusCode)
	}
	over := bodyOf(MaxEvalBodyBytes + 1)
	resp := post(strings.NewReader(over), int64(len(over)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Errorf("body of %d bytes: status %d, close %v; want 413 and a closed connection",
			len(over), resp.StatusCode, resp.Close)
	}
	// A reader that is not a *strings.Reader hides the length, so the
	// client sends the body chunked, with no Content-Length.
	chunked := post(io.MultiReader(strings.NewReader(over)), -1)
	if chunked.StatusCode != http.StatusRequestEntityTooLarge || !chunked.Close {
		t.Errorf("chunked body of %d bytes: status %d, close %v; want 413 and a closed connection",
			len(over), chunked.StatusCode, chunked.Close)
	}
	if resp := post(io.MultiReader(strings.NewReader(atLimit)), -1); resp.StatusCode != http.StatusOK {
		t.Errorf("chunked body of exactly %d bytes: status %d, want 200", MaxEvalBodyBytes, resp.StatusCode)
	}
}

// Package server is the xpathd HTTP evaluation daemon: a sharded
// registry of resident documents keyed by content fingerprint, the
// shared result/plan caches in front of EvalBatch, per-tenant admission
// control driven by the PR 3 guard budgets (request headers clamped by
// operator ceilings), load shedding with 429 + Retry-After, and the
// PR 7 telemetry surface mounted on the same mux. See docs/SERVING.md.
//
// Endpoints:
//
//	POST   /v1/documents        load an XML document (body), returns its fingerprint
//	GET    /v1/documents        list resident documents + registry stats
//	DELETE /v1/documents/{fp}   drop a resident document (and its cached results)
//	POST   /v1/eval             evaluate a query batch against a resident document
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus exposition (via NewDebugMux)
//	GET    /debug/xpath/*       obs / flight / plans JSON (via NewDebugMux)
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	xpath "xpathcomplexity"
	"xpathcomplexity/internal/value"
)

// Capacity defaults. Exported so cmd/xpathd and the bench harness can
// echo them in help text.
const (
	// DefaultMaxResidentBytes bounds the registry's estimated resident
	// document memory.
	DefaultMaxResidentBytes = int64(256) << 20
	// DefaultMaxDocumentBytes bounds one document-load request body.
	DefaultMaxDocumentBytes = int64(32) << 20
	// DefaultMaxBatchQueries bounds the queries of one eval request.
	DefaultMaxBatchQueries = 64
	// DefaultRetryAfter is the Retry-After hint attached to shed
	// responses.
	DefaultRetryAfter = time.Second
	// DefaultQueueWait is how long an over-capacity request may wait for
	// a worker slot (holding a queue ticket) before being shed.
	DefaultQueueWait = 100 * time.Millisecond
	// DefaultEvalTimeout and DefaultMaxEvalTimeout are the per-query
	// deadline default and operator ceiling.
	DefaultEvalTimeout    = 2 * time.Second
	DefaultMaxEvalTimeout = 30 * time.Second
	// DefaultMaxOps and DefaultMaxNodeSet are the per-query guard budget
	// defaults (and, absent explicit ceilings, the ceilings too).
	DefaultMaxOps     = int64(50_000_000)
	DefaultMaxNodeSet = 1_000_000
)

// Config tunes a Server. The zero value is a working configuration —
// every field has a production-shaped default.
type Config struct {
	// Workers is the evaluation concurrency (worker-pool slots); 0 means
	// GOMAXPROCS. QueueDepth bounds how many over-capacity requests may
	// wait (default 2×Workers) and QueueWait how long each may wait for
	// a slot before shedding (default DefaultQueueWait).
	Workers    int
	QueueDepth int
	QueueWait  time.Duration
	// TenantConcurrency caps one tenant's concurrent evaluations
	// (default Workers): a saturating tenant is shed before it can
	// occupy the whole pool.
	TenantConcurrency int

	// RegistryShards and MaxResidentBytes shape the document registry
	// (defaults: 16 shards, DefaultMaxResidentBytes).
	RegistryShards   int
	MaxResidentBytes int64
	// DefaultBackend is the document storage backend for loads that do
	// not name one via ?backend= ("" = pointer; see docs/STORAGE.md).
	DefaultBackend string
	// MaxDocumentBytes bounds one load request body (default
	// DefaultMaxDocumentBytes).
	MaxDocumentBytes int64

	// MaxBatchQueries bounds one eval request's batch (default
	// DefaultMaxBatchQueries). BatchWorkers is EvalBatch's per-request
	// worker count (default 1 — request-level parallelism comes from the
	// admission pool, not from fanning out inside each request).
	MaxBatchQueries int
	BatchWorkers    int

	// Guard budget defaults and operator ceilings. Requests tighten
	// budgets via headers; the ceilings clamp them (see requestLimits).
	// Zero fields take DefaultMaxOps/DefaultMaxNodeSet/DefaultEvalTimeout
	// with ceilings equal to the defaults (DefaultMaxEvalTimeout for
	// time).
	DefaultMaxOps     int64
	MaxOpsCeiling     int64
	DefaultMaxNodeSet int
	MaxNodeSetCeiling int
	DefaultTimeout    time.Duration
	MaxTimeout        time.Duration

	// RetryAfter is the hint attached to 429 responses (default
	// DefaultRetryAfter).
	RetryAfter time.Duration

	// CacheEntries/CacheBytes bound the shared result cache (0 = package
	// defaults). Metrics, Flight and Cache may be supplied to share
	// sinks with the embedding process; nil fields are constructed.
	CacheEntries int
	CacheBytes   int64
	Metrics      *xpath.Metrics
	Flight       *xpath.FlightRecorder
	Cache        *xpath.ResultCache
	// FlightConfig bounds the constructed flight recorder when Flight is
	// nil (zero value = package defaults).
	FlightConfig xpath.FlightRecorderConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = DefaultQueueWait
	}
	if c.TenantConcurrency <= 0 {
		c.TenantConcurrency = c.Workers
	}
	if c.RegistryShards <= 0 {
		c.RegistryShards = 16
	}
	if c.MaxResidentBytes <= 0 {
		c.MaxResidentBytes = DefaultMaxResidentBytes
	}
	if c.MaxDocumentBytes <= 0 {
		c.MaxDocumentBytes = DefaultMaxDocumentBytes
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = DefaultMaxBatchQueries
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = 1
	}
	if c.DefaultMaxOps <= 0 {
		c.DefaultMaxOps = DefaultMaxOps
	}
	if c.MaxOpsCeiling <= 0 {
		c.MaxOpsCeiling = c.DefaultMaxOps
	}
	if c.DefaultMaxNodeSet <= 0 {
		c.DefaultMaxNodeSet = DefaultMaxNodeSet
	}
	if c.MaxNodeSetCeiling <= 0 {
		c.MaxNodeSetCeiling = c.DefaultMaxNodeSet
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = DefaultEvalTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = DefaultMaxEvalTimeout
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Server is the daemon: registry + caches + admission + handlers. Build
// with New, serve Handler().
type Server struct {
	cfg      Config
	metrics  *xpath.Metrics
	flight   *xpath.FlightRecorder
	cache    *xpath.ResultCache
	registry *Registry
	adm      *admission
	mux      *http.ServeMux
	started  time.Time
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, started: time.Now()}
	s.metrics = cfg.Metrics
	if s.metrics == nil {
		s.metrics = xpath.NewMetrics()
	}
	s.flight = cfg.Flight
	if s.flight == nil {
		s.flight = xpath.NewFlightRecorder(cfg.FlightConfig)
	}
	s.cache = cfg.Cache
	if s.cache == nil {
		s.cache = xpath.NewResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.registry = NewRegistry(cfg.RegistryShards, cfg.MaxResidentBytes, s.cache)
	s.adm = newAdmission(cfg.Workers, cfg.QueueDepth, cfg.QueueWait, cfg.TenantConcurrency)

	// The PR 7 debug surface is the base mux — /metrics, /debug/xpath/*,
	// /debug/pprof — and the serving routes are added alongside it, so
	// one listener exposes both planes.
	s.mux = xpath.NewDebugMux(s.metrics, s.flight, xpath.DefaultPlanCache(), s.cache)
	s.mux.HandleFunc("POST /v1/documents", s.handleLoad)
	s.mux.HandleFunc("GET /v1/documents", s.handleList)
	s.mux.HandleFunc("DELETE /v1/documents/{fp}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the daemon's HTTP handler (serving + debug planes).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the document registry (cmd/xpathd preloads through
// it; tests inspect it).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the server's metrics registry.
func (s *Server) Metrics() *xpath.Metrics { return s.metrics }

// evalRequest is the /v1/eval body.
type evalRequest struct {
	// Doc is the document fingerprint handle returned by the load
	// endpoint.
	Doc string `json:"doc"`
	// Queries is the batch (1..MaxBatchQueries).
	Queries []string `json:"queries"`
	// Engine optionally pins an engine by name ("" = auto).
	Engine string `json:"engine,omitempty"`
}

// evalResult is one query's outcome in the /v1/eval response.
type evalResult struct {
	Query string `json:"query"`
	// Kind and Value describe a successful result: the XPath value kind
	// and its string form (node-sets render as their cardinality, with
	// the first node ordinals in Ords).
	Kind  string `json:"kind,omitempty"`
	Value string `json:"value,omitempty"`
	// Card is the node-set cardinality (-1 for scalars and errors).
	Card int `json:"card"`
	// Ords holds the first node ordinals of a node-set result (bounded).
	Ords []int `json:"ords,omitempty"`
	// Err/ErrKind describe a failed query: ErrKind is "compile",
	// "canceled", "budget" or "failed".
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
}

// evalResponse is the /v1/eval body on success (and on multi-query
// partial failure — per-query errors ride in Results).
type evalResponse struct {
	Doc     string       `json:"doc"`
	Engine  string       `json:"engine"`
	Results []evalResult `json:"results"`
	WallUs  int64        `json:"wall_us"`
}

// maxOrds bounds the node ordinals echoed per node-set result.
const maxOrds = 64

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("server.requests").Inc()
	tenant := tenantName(r)
	lim, err := s.requestLimits(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req evalRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "malformed eval request: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.httpError(w, http.StatusBadRequest, "eval request carries no queries")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		s.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the %d-query bound", len(req.Queries), s.cfg.MaxBatchQueries))
		return
	}
	engine := xpath.EngineAuto
	if req.Engine != "" {
		e, ok := xpath.EngineByName[req.Engine]
		if !ok {
			s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown engine %q", req.Engine))
			return
		}
		engine = e
	}
	fp, err := ParseFingerprint(req.Doc)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	doc, ok := s.registry.Get(fp)
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Sprintf("document %s is not resident", req.Doc))
		return
	}

	release, cause := s.adm.acquire(r.Context().Done(), tenant)
	if cause != shedNone {
		s.shed(w, tenant, cause)
		return
	}
	defer release()
	s.metrics.Gauge("server.inflight").Set(int64(s.adm.inflight()))

	opts := xpath.EvalOptions{
		Engine:     engine,
		Workers:    s.cfg.BatchWorkers,
		Context:    r.Context(),
		Timeout:    lim.timeout,
		MaxOps:     lim.maxOps,
		MaxNodeSet: lim.maxNodeSet,
		Cache:      s.cache,
		Metrics:    s.metrics,
		Flight:     s.flight,
	}
	start := time.Now()
	results := xpath.EvalBatch(doc, req.Queries, opts)
	wall := time.Since(start)
	// One request ≈ one evaluation for the load generator (batch size
	// 1), so the request histogram is the serving latency distribution
	// the bench reads P99 from.
	s.metrics.Histogram("server.eval.wall_us").Observe(wall.Microseconds())
	s.metrics.Counter("server.evals").Add(int64(len(req.Queries)))

	resp := evalResponse{
		Doc:     req.Doc,
		Engine:  engine.String(),
		Results: make([]evalResult, len(results)),
		WallUs:  wall.Microseconds(),
	}
	status := http.StatusOK
	for i, br := range results {
		resp.Results[i] = s.renderResult(tenant, br)
	}
	if len(results) == 1 && results[0].Err != nil {
		// A single-query request maps its error onto the HTTP status; a
		// multi-query batch is always 200 with per-query errors inline.
		status = statusForError(results[0].Err)
	}
	s.registry.RecordMetrics(s.metrics)
	writeJSON(w, status, resp)
}

// renderResult converts one BatchResult to the wire form, charging the
// per-tenant error counters.
func (s *Server) renderResult(tenant string, br xpath.BatchResult) evalResult {
	out := evalResult{Query: br.Query, Card: -1}
	if br.Err != nil {
		out.Err = br.Err.Error()
		out.ErrKind = errKind(br.Err)
		switch out.ErrKind {
		case "budget":
			s.metrics.Counter("server.budget_exceeded").Inc()
			s.metrics.Counter("server.budget_exceeded.tenant." + tenant).Inc()
		case "canceled":
			s.metrics.Counter("server.canceled").Inc()
		default:
			s.metrics.Counter("server.eval_errors").Inc()
		}
		return out
	}
	out.Kind = fmt.Sprintf("%v", br.Value.Kind())
	if ns, ok := br.Value.(value.NodeSet); ok {
		out.Card = len(ns)
		out.Value = strconv.Itoa(len(ns)) + " nodes"
		n := len(ns)
		if n > maxOrds {
			n = maxOrds
		}
		out.Ords = make([]int, n)
		for i := 0; i < n; i++ {
			out.Ords[i] = int(ns[i].Ord)
		}
	} else {
		out.Value = value.ToString(br.Value)
	}
	return out
}

// errKind classifies an evaluation error for accounting and the wire:
// "compile" (parse/classification), "canceled", "budget", "failed".
func errKind(err error) string {
	switch {
	case errors.Is(err, xpath.ErrCanceled):
		return "canceled"
	case errors.Is(err, xpath.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, xpath.ErrEvalPanic):
		return "failed"
	default:
		var be *xpath.BudgetError
		if errors.As(err, &be) {
			return "budget"
		}
		return "compile"
	}
}

// statusForError maps a single-query evaluation error to its HTTP
// status: compile errors are the caller's 400, budget exhaustion is 422
// (the request was well-formed but exceeded its granted resources),
// cancellation/deadline is 408, recovered panics 500.
func statusForError(err error) int {
	switch errKind(err) {
	case "canceled":
		return http.StatusRequestTimeout
	case "budget":
		return http.StatusUnprocessableEntity
	case "failed":
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// shed writes the 429 + Retry-After backpressure response and charges
// the shed counters the bench and /metrics read.
func (s *Server) shed(w http.ResponseWriter, tenant string, cause sheddingCause) {
	s.metrics.Counter("server.shed").Inc()
	s.metrics.Counter("server.shed." + string(cause)).Inc()
	s.metrics.Counter("server.shed.tenant." + tenant).Inc()
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":               "overloaded: " + string(cause),
		"retry_after_seconds": secs,
	})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("server.requests").Inc()
	backend := r.URL.Query().Get("backend")
	if backend == "" {
		backend = s.cfg.DefaultBackend
	}
	if !xpath.ValidBackend(backend) {
		s.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown document backend %q (have: %s)", backend, strings.Join(xpath.Backends(), ", ")))
		return
	}
	info, err := s.registry.Load(http.MaxBytesReader(w, r.Body, s.cfg.MaxDocumentBytes), backend)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			s.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("document exceeds the %d-byte load bound", s.cfg.MaxDocumentBytes))
		case isOverBudget(err):
			s.httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		default:
			s.httpError(w, http.StatusBadRequest, "parse: "+err.Error())
		}
		return
	}
	s.registry.RecordMetrics(s.metrics)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("server.requests").Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"docs":  s.registry.List(),
		"stats": s.registry.Stats(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("server.requests").Inc()
	fp, err := ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.registry.Delete(fp) {
		s.httpError(w, http.StatusNotFound, "document is not resident")
		return
	}
	s.registry.RecordMetrics(s.metrics)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

func (s *Server) httpError(w http.ResponseWriter, status int, msg string) {
	if status >= 400 && status < 500 {
		s.metrics.Counter("server.rejected").Inc()
	}
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// isOverBudget matches the registry's over-shard-budget rejection.
func isOverBudget(err error) bool { return errors.Is(err, errDocTooLarge) }

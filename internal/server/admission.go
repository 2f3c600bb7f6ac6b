package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Request headers understood by the eval endpoint. Budgets arrive per
// request and are clamped by the server's configured maxima, so a
// tenant can only ever tighten what the operator allows — the PR 3
// guard limits as admission control.
const (
	// HeaderTenant names the tenant a request is accounted to
	// (admission slots, shed and budget-exhaustion metrics). Empty means
	// the "default" tenant.
	HeaderTenant = "X-XPath-Tenant"
	// HeaderMaxOps requests a per-query elementary-operation budget
	// (EvalOptions.MaxOps units).
	HeaderMaxOps = "X-XPath-Max-Ops"
	// HeaderMaxNodeSet requests a per-query intermediate node-set
	// cardinality bound (EvalOptions.MaxNodeSet).
	HeaderMaxNodeSet = "X-XPath-Max-Node-Set"
	// HeaderTimeoutMs requests a per-query deadline in milliseconds
	// (EvalOptions.Timeout).
	HeaderTimeoutMs = "X-XPath-Timeout-Ms"
)

// The header names in canonical form, as net/http stores received
// headers: indexing r.Header with them skips the per-lookup
// canonicalization (and its allocation) of Header.Get. A client may send
// the names in any case; the server canonicalizes them on receipt.
var (
	keyTenant     = http.CanonicalHeaderKey(HeaderTenant)
	keyMaxOps     = http.CanonicalHeaderKey(HeaderMaxOps)
	keyMaxNodeSet = http.CanonicalHeaderKey(HeaderMaxNodeSet)
	keyTimeoutMs  = http.CanonicalHeaderKey(HeaderTimeoutMs)
)

// header returns the first value of a received header by its canonical
// key ("" when absent).
func header(r *http.Request, canonicalKey string) string {
	if v := r.Header[canonicalKey]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// DefaultTenant is the tenant requests without a tenant header are
// accounted to.
const DefaultTenant = "default"

// limits are the per-query guard bounds resolved for one request:
// header values clamped into the server's configured maxima, defaults
// where the header is absent.
type limits struct {
	maxOps     int64
	maxNodeSet int
	timeout    time.Duration
}

// requestLimits resolves the budget headers against the server config.
// A malformed header (non-numeric, non-positive, unparseable) is the
// caller's error and rejects the request — the httpobs `?n=` lesson:
// garbage must 400, never silently clamp.
func (s *Server) requestLimits(r *http.Request) (limits, error) {
	l := limits{
		maxOps:     s.cfg.DefaultMaxOps,
		maxNodeSet: s.cfg.DefaultMaxNodeSet,
		timeout:    s.cfg.DefaultTimeout,
	}
	if v := header(r, keyMaxOps); v != "" {
		n, err := parsePositiveInt64(v)
		if err != nil {
			return l, fmt.Errorf("%s: %w", HeaderMaxOps, err)
		}
		l.maxOps = n
	}
	if v := header(r, keyMaxNodeSet); v != "" {
		n, err := parsePositiveInt64(v)
		if err != nil {
			return l, fmt.Errorf("%s: %w", HeaderMaxNodeSet, err)
		}
		l.maxNodeSet = int(min64(n, int64(1)<<31-1))
	}
	if v := header(r, keyTimeoutMs); v != "" {
		n, err := parsePositiveInt64(v)
		if err != nil {
			return l, fmt.Errorf("%s: %w", HeaderTimeoutMs, err)
		}
		l.timeout = time.Duration(min64(n, int64(time.Hour/time.Millisecond))) * time.Millisecond
	}
	// Clamp into the operator's ceilings: a request can tighten budgets,
	// never widen them.
	if s.cfg.MaxOpsCeiling > 0 && (l.maxOps <= 0 || l.maxOps > s.cfg.MaxOpsCeiling) {
		l.maxOps = s.cfg.MaxOpsCeiling
	}
	if s.cfg.MaxNodeSetCeiling > 0 && (l.maxNodeSet <= 0 || l.maxNodeSet > s.cfg.MaxNodeSetCeiling) {
		l.maxNodeSet = s.cfg.MaxNodeSetCeiling
	}
	if s.cfg.MaxTimeout > 0 && (l.timeout <= 0 || l.timeout > s.cfg.MaxTimeout) {
		l.timeout = s.cfg.MaxTimeout
	}
	return l, nil
}

// parsePositiveInt64 parses a strictly positive canonical decimal
// integer, rejecting negatives, zero, non-numeric text, values that
// overflow (strconv range errors — a huge value must fail, not
// saturate) and zero-padded forms ("0009" is not a budget, it is a
// client bug worth surfacing).
func parsePositiveInt64(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) > 1 && s[0] == '0' {
		return 0, fmt.Errorf("zero-padded integer: %q", s)
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a decimal integer in range: %q", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("must be positive: %d", n)
	}
	return n, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// tenantName resolves the request's tenant.
func tenantName(r *http.Request) string {
	if t := strings.TrimSpace(header(r, keyTenant)); t != "" {
		return t
	}
	return DefaultTenant
}

// admission is the two-level concurrency gate in front of the worker
// pool: a global slot set sized to the pool, a bounded wait queue that
// absorbs brief bursts, and a per-tenant slot set so one tenant
// saturating the daemon cannot starve the rest. A request that finds
// the pool busy and the queue full — or waits in the queue past the
// configured bound — is shed with 429 + Retry-After, which is the
// backpressure contract: the client retries, the daemon never builds an
// unbounded internal queue.
type admission struct {
	global    chan struct{} // worker-pool slots
	queue     chan struct{} // wait-queue tickets
	queueWait time.Duration

	mu        sync.Mutex
	tenants   map[string]chan struct{}
	perTenant int
}

func newAdmission(workers, queueDepth int, queueWait time.Duration, perTenant int) *admission {
	return &admission{
		global:    make(chan struct{}, workers),
		queue:     make(chan struct{}, queueDepth),
		queueWait: queueWait,
		tenants:   make(map[string]chan struct{}),
		perTenant: perTenant,
	}
}

// sheddingCause names why admission failed.
type sheddingCause string

const (
	shedNone   sheddingCause = ""
	shedGlobal sheddingCause = "capacity"
	shedTenant sheddingCause = "tenant"
)

// acquire takes one worker slot and one tenant slot. A busy pool is
// waited on only while holding one of the bounded queue tickets, and
// only up to queueWait (or the request context's own cancellation). On
// success it returns the tenant's slot set, which release takes back
// together with the worker slot; on failure it reports which gate shed
// the request. The tenant gate never waits: a tenant at its concurrency
// cap is shed immediately so its backlog cannot occupy queue tickets
// the other tenants need. ctx.Done is read only when the request waits,
// so the uncontended path never makes the context build its channel.
func (a *admission) acquire(ctx context.Context, tenant string) (slots chan struct{}, cause sheddingCause) {
	select {
	case a.global <- struct{}{}:
	default:
		select {
		case a.queue <- struct{}{}:
		default:
			return nil, shedGlobal
		}
		t := time.NewTimer(a.queueWait)
		select {
		case a.global <- struct{}{}:
			t.Stop()
			<-a.queue
		case <-t.C:
			<-a.queue
			return nil, shedGlobal
		case <-ctx.Done():
			t.Stop()
			<-a.queue
			return nil, shedGlobal
		}
	}
	ts := a.tenantSlots(tenant)
	select {
	case ts <- struct{}{}:
	default:
		<-a.global
		return nil, shedTenant
	}
	return ts, shedNone
}

// release frees the slots a successful acquire returned.
func (a *admission) release(slots chan struct{}) {
	<-slots
	<-a.global
}

func (a *admission) tenantSlots(tenant string) chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.tenants[tenant]
	if !ok {
		ts = make(chan struct{}, a.perTenant)
		a.tenants[tenant] = ts
	}
	return ts
}

// inflight returns the current global occupancy (for the saturation
// gauge).
func (a *admission) inflight() int { return len(a.global) }

// Package flight is the per-evaluation flight recorder: an always-on,
// bounded, lock-cheap record of what the engines actually executed —
// query, engine, fragment, duration, operations, result cardinality,
// cache outcome, and how the run ended.
//
// Two bounded stores back it:
//
//   - slow capture: every evaluation at or over Config.SlowThreshold is
//     written into a ring of the most recent slow records — the "what
//     just hurt" view;
//   - reservoir sample: everything under the threshold feeds an
//     Algorithm-R reservoir of Config.RecentCapacity records, a uniform
//     sample over the recorder's sub-threshold history — the "what does
//     normal traffic look like" view (slow records live in their own
//     ring and do not dilute the sample).
//
// The common (sampled-out) path is two atomic adds, one lock-free
// random draw and a threshold compare; nothing allocates and no lock is
// taken. Records hold only scalars and immutable strings, never node
// sets or pooled scratch (the PR 4 arenas recycle aggressively), so a
// retained record can never be mutated by a later evaluation —
// TestFlightRecordsStable in the root package pins this.
//
// A nil *Recorder is the disabled form: Observe no-ops after a nil
// check, matching the package obs discipline.
package flight

import (
	"errors"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xpathcomplexity/internal/eval/evalctx"
)

// CacheOutcome records how the result cache participated in one
// evaluation.
type CacheOutcome uint8

// The cache outcomes.
const (
	// CacheNone: no result cache was attached.
	CacheNone CacheOutcome = iota
	// CacheHit: the result was served from the cache (including joining
	// an in-flight identical evaluation).
	CacheHit
	// CacheMiss: the evaluation ran as the cache leader.
	CacheMiss
	// CacheBypassTraced: a trace sink was attached, so the run bypassed
	// the cache in both directions.
	CacheBypassTraced
	// CacheBypassNoNode: the context carried no node, so there was no
	// document fingerprint to key by.
	CacheBypassNoNode
)

// String names the outcome.
func (o CacheOutcome) String() string {
	switch o {
	case CacheNone:
		return "none"
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheBypassTraced:
		return "bypass-traced"
	case CacheBypassNoNode:
		return "bypass-no-node"
	default:
		return "unknown"
	}
}

// MarshalText renders the outcome for JSON output.
func (o CacheOutcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the outcome from its String form (unknown text
// parses as CacheNone), so recorded NDJSON round-trips.
func (o *CacheOutcome) UnmarshalText(b []byte) error {
	for c := CacheNone; c <= CacheBypassNoNode; c++ {
		if string(b) == c.String() {
			*o = c
			return nil
		}
	}
	*o = CacheNone
	return nil
}

// ErrKind classifies an evaluation error for the record: "" for
// success, else one of "canceled", "budget", "failed".
func ErrKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, evalctx.ErrCanceled):
		return "canceled"
	case evalctx.IsResourceError(err):
		return "budget"
	default:
		return "failed"
	}
}

// Record is one completed evaluation. All fields are scalars or
// immutable strings; a Record is safe to retain indefinitely.
type Record struct {
	// Unix is the completion time in Unix nanoseconds.
	Unix int64 `json:"unix_nanos"`
	// Query is the query source text.
	Query string `json:"query"`
	// Engine is the engine that produced the result: the explicit
	// engine, or the one EngineAuto's plan binding resolved to. A cache
	// hit names the engine whose cached result it served.
	Engine string `json:"engine"`
	// Fragment is the query's minimal Figure 1 fragment.
	Fragment string `json:"fragment"`
	// Wall is the evaluation wall time (JSON: nanoseconds).
	Wall time.Duration `json:"wall_nanos"`
	// Ops is the elementary-operation delta of the run (0 for cache
	// hits, which charge nothing).
	Ops int64 `json:"ops"`
	// Card is the result cardinality: node count for node-set results,
	// -1 for scalars and errors.
	Card int `json:"card"`
	// Cache is the result-cache outcome.
	Cache CacheOutcome `json:"cache"`
	// Err and ErrKind describe a failed run ("" on success); ErrKind is
	// one of "canceled", "budget", "failed".
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	// Slow marks records captured by the slow-query threshold (the rest
	// entered through the reservoir sample).
	Slow bool `json:"slow,omitempty"`
}

// Defaults applied by New for zero Config fields.
const (
	DefaultRecentCapacity = 256
	DefaultSlowCapacity   = 64
	DefaultSlowThreshold  = 10 * time.Millisecond
)

// Config bounds a Recorder. The zero value selects every default.
type Config struct {
	// RecentCapacity is the reservoir size for sub-threshold records
	// (default DefaultRecentCapacity).
	RecentCapacity int
	// SlowCapacity is the ring size for at-or-over-threshold records
	// (default DefaultSlowCapacity).
	SlowCapacity int
	// SlowThreshold is the slow-query capture bound (default
	// DefaultSlowThreshold). Negative disables slow capture; use 1 (one
	// nanosecond) to capture every evaluation as slow.
	SlowThreshold time.Duration
}

// Stats is a point-in-time summary of a Recorder.
type Stats struct {
	// Seen counts every Observe call.
	Seen int64 `json:"seen"`
	// Slow counts records captured by the threshold; Sampled counts
	// records admitted to the reservoir (including ones later displaced).
	Slow    int64 `json:"slow"`
	Sampled int64 `json:"sampled"`
	// RecentLen and SlowLen are the current store sizes.
	RecentLen int `json:"recent_len"`
	SlowLen   int `json:"slow_len"`
	// Threshold echoes the configured slow bound in nanoseconds.
	Threshold time.Duration `json:"threshold_nanos"`
}

// Recorder is the bounded per-evaluation flight recorder. Construct
// with New; a nil *Recorder is valid and records nothing. All methods
// are safe for concurrent use (EvalBatch workers share one).
type Recorder struct {
	threshold time.Duration
	// recentCap mirrors cap(recent). The reservoir draw reads the
	// capacity before taking the lock, and reading cap(r.recent) there
	// would race with the slice-header writes (append, Reset) made under
	// it — so the lock-free path reads this immutable copy instead.
	recentCap int64

	seen    atomic.Int64 // every Observe
	fast    atomic.Int64 // sub-threshold Observes; the reservoir's stream count
	slow    atomic.Int64
	sampled atomic.Int64

	mu       sync.Mutex
	recent   []Record // reservoir, capacity fixed at construction
	slowRing []Record // ring of the most recent slow records
	slowNext int
	slowFull bool
}

// New creates a recorder with the given bounds (zero fields take the
// package defaults).
func New(cfg Config) *Recorder {
	if cfg.RecentCapacity <= 0 {
		cfg.RecentCapacity = DefaultRecentCapacity
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	return &Recorder{
		threshold: cfg.SlowThreshold,
		recentCap: int64(cfg.RecentCapacity),
		recent:    make([]Record, 0, cfg.RecentCapacity),
		slowRing:  make([]Record, 0, cfg.SlowCapacity),
	}
}

// Observe records one completed evaluation. Slow records (Wall ≥
// threshold) always enter the slow ring; the rest are reservoir-sampled
// into the recent store. The sampled-out path takes no lock and
// allocates nothing.
func (r *Recorder) Observe(rec Record) {
	if r == nil {
		return
	}
	r.seen.Add(1)
	if r.threshold > 0 && rec.Wall >= r.threshold {
		rec.Slow = true
		r.slow.Add(1)
		r.mu.Lock()
		if len(r.slowRing) < cap(r.slowRing) {
			r.slowRing = append(r.slowRing, rec)
		} else {
			r.slowRing[r.slowNext] = rec
			r.slowFull = true
		}
		r.slowNext++
		if r.slowNext == cap(r.slowRing) {
			r.slowNext = 0
		}
		r.mu.Unlock()
		return
	}
	// Algorithm R: sub-threshold record i of the stream replaces a
	// uniformly random reservoir slot with probability cap/i. The stream
	// count deliberately excludes slow records (they never reach the
	// reservoir), keeping the sample uniform over sub-threshold history.
	// The draw is lock-free (math/rand/v2's per-goroutine state); the
	// lock is taken only when the record is actually stored.
	n := r.fast.Add(1)
	capR := r.recentCap
	if n <= capR {
		r.sampled.Add(1)
		r.mu.Lock()
		if int64(len(r.recent)) < capR {
			r.recent = append(r.recent, rec)
		} else {
			// Lost a fill race; displace a random slot instead.
			r.recent[rand.Int64N(capR)] = rec
		}
		r.mu.Unlock()
		return
	}
	if j := rand.Int64N(n); j < capR {
		r.sampled.Add(1)
		r.mu.Lock()
		// The stream count and the store length can disagree (a Reset
		// racing this Observe truncates the store after the draw), so the
		// slot is re-validated under the lock: append while there is
		// room, else store in-bounds.
		switch m := int64(len(r.recent)); {
		case j < m:
			r.recent[j] = rec
		case m < capR:
			r.recent = append(r.recent, rec)
		default:
			r.recent[rand.Int64N(capR)] = rec
		}
		r.mu.Unlock()
	}
}

// Recent returns the reservoir contents ordered oldest-first by
// completion time — a uniform sample of the recorder's sub-threshold
// history (slow records are captured separately; see Slow).
func (r *Recorder) Recent() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Record(nil), r.recent...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Unix < out[j].Unix })
	return out
}

// Slow returns the captured slow records ordered oldest-first.
func (r *Recorder) Slow() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Record
	if r.slowFull {
		out = make([]Record, 0, cap(r.slowRing))
		out = append(out, r.slowRing[r.slowNext:]...)
		out = append(out, r.slowRing[:r.slowNext]...)
	} else {
		out = append([]Record(nil), r.slowRing...)
	}
	r.mu.Unlock()
	return out
}

// Slowest returns the k slowest retained records (slow ring and
// reservoir combined), slowest first.
func (r *Recorder) Slowest(k int) []Record {
	if r == nil || k <= 0 {
		return nil
	}
	all := append(r.Slow(), r.Recent()...)
	sort.Slice(all, func(i, j int) bool { return all[i].Wall > all[j].Wall })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Stats returns the recorder's counters and current store sizes.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	recentLen, slowLen := len(r.recent), len(r.slowRing)
	r.mu.Unlock()
	return Stats{
		Seen: r.seen.Load(), Slow: r.slow.Load(), Sampled: r.sampled.Load(),
		RecentLen: recentLen, SlowLen: slowLen, Threshold: r.threshold,
	}
}

// Threshold returns the configured slow-capture bound.
func (r *Recorder) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.threshold
}

// Reset drops the retained records and zeroes the counters.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recent = r.recent[:0]
	r.slowRing = r.slowRing[:0]
	r.slowNext, r.slowFull = 0, false
	r.mu.Unlock()
	r.seen.Store(0)
	r.fast.Store(0)
	r.slow.Store(0)
	r.sampled.Store(0)
}

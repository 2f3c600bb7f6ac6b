package server

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	xpath "xpathcomplexity"
	"xpathcomplexity/internal/xmltree"
)

// errDocTooLarge rejects a document whose estimated footprint exceeds a
// whole shard's byte budget — it could never be admitted, only thrash.
var errDocTooLarge = errors.New("document too large for the registry")

// Registry is the daemon's resident document set: a sharded,
// concurrency-safe map from content fingerprint to parsed document,
// bounded by resident bytes with per-shard LRU eviction.
//
// Documents are keyed by xmltree.Document.Fingerprint — the same content
// hash the result cache keys by — so loading byte-identical content
// twice dedupes to one resident tree, and every cached evaluation result
// stays attributable to exactly the content it was computed from. When a
// document is evicted its result-cache entries are dropped eagerly
// (Cache.InvalidateDocument), so the cache's byte budget is not left
// holding answers for documents the registry no longer serves.
//
// Byte accounting delegates to the document's storage backend
// (Document.ResidentBytes), so eviction pressure matches the real
// encoding rather than a per-node guess. Columnar-backed documents
// additionally support demotion: under byte pressure the shard first
// drops the cold entries' hydrated node-handle views — keeping the
// compact store resident — and only evicts whole documents when
// demotion alone cannot fit the budget. A demoted document
// rehydrates transparently on its next Get with identical Ord
// numbering, so fingerprint-keyed cache entries survive the round trip.
type Registry struct {
	shards   []*regShard
	maxBytes int64 // per-shard share of the resident budget

	// cache, when non-nil, is invalidated for a document's fingerprint
	// when the registry drops it.
	cache *xpath.ResultCache
}

// regShard is one registry shard: fingerprint map + LRU order + resident
// byte accounting, all under one mutex.
type regShard struct {
	mu    sync.Mutex
	docs  map[uint64]*list.Element // values are *regEntry
	order *list.List               // front = most recently used
	bytes int64

	loads, dedups, hits, misses, evictions, deletes int64
	demotions, rehydrations                         int64
}

// regEntry is one resident document: the hydrated node-handle view (nil
// while demoted) and, for a columnar document, the store it is
// rehydrated from.
type regEntry struct {
	doc *xpath.Document // hydrated view; nil while demoted
	// col is the columnar store behind doc, always resident; nil for a
	// pointer document, whose view is its store and cannot be demoted.
	col        *xmltree.Columnar
	storeBytes int64 // the store's footprint at rest
	fp         uint64
	bytes      int64 // current resident charge: store + view when hydrated
	nodes      int
	loaded     time.Time
	hits       int64
}

// DocInfo describes one resident document, as served by the list
// endpoint.
type DocInfo struct {
	// Fingerprint is the content fingerprint in fixed-width hex — the
	// handle eval requests pass as "doc".
	Fingerprint string `json:"fingerprint"`
	// Nodes and Bytes are the document size and its current resident
	// footprint as reported by the storage backend (store plus hydrated
	// view; store only while demoted).
	Nodes int   `json:"nodes"`
	Bytes int64 `json:"bytes"`
	// Backend names the document's storage encoding.
	Backend string `json:"backend"`
	// StoreBytes is the footprint of the storage encoding alone;
	// Hydrated reports whether the node-handle view is resident too.
	StoreBytes int64 `json:"store_bytes"`
	Hydrated   bool  `json:"hydrated"`
	// Hits counts eval requests served from this document.
	Hits int64 `json:"hits"`
	// LoadedUnix is the load time in Unix nanoseconds.
	LoadedUnix int64 `json:"loaded_unix_nanos"`
}

// RegistryStats is a point-in-time summary of the registry.
type RegistryStats struct {
	// Docs and Bytes are the current resident totals.
	Docs  int   `json:"docs"`
	Bytes int64 `json:"bytes"`
	// Loads counts documents parsed and admitted; Dedups counts loads
	// whose content was already resident (no second tree kept).
	Loads  int64 `json:"loads"`
	Dedups int64 `json:"dedups"`
	// Hits and Misses count Get lookups; Evictions counts documents
	// dropped to the byte bound, Deletes explicit removals.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Deletes   int64 `json:"deletes"`
	// Demotions counts hydrated views dropped under byte pressure
	// (columnar backend only); Rehydrations counts demoted documents
	// rebuilt on Get.
	Demotions    int64 `json:"demotions"`
	Rehydrations int64 `json:"rehydrations"`
}

// NewRegistry creates a registry of `shards` shards bounded to maxBytes
// of estimated resident document memory in total. cache may be nil;
// when set, evicted and deleted documents have their result-cache
// entries invalidated eagerly.
func NewRegistry(shards int, maxBytes int64, cache *xpath.ResultCache) *Registry {
	if shards < 1 {
		shards = 1
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxResidentBytes
	}
	r := &Registry{
		shards:   make([]*regShard, shards),
		maxBytes: (maxBytes + int64(shards) - 1) / int64(shards),
		cache:    cache,
	}
	for i := range r.shards {
		r.shards[i] = &regShard{
			docs:  make(map[uint64]*list.Element),
			order: list.New(),
		}
	}
	return r
}

func (r *Registry) shard(fp uint64) *regShard {
	// The fingerprint is an FNV hash; its low bits are already mixed.
	return r.shards[fp%uint64(len(r.shards))]
}

// FormatFingerprint renders a fingerprint as the fixed-width hex handle
// used on the wire.
func FormatFingerprint(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ParseFingerprint parses the wire handle back to a fingerprint: 1 to 16
// hex digits and nothing else (no sign, prefix, separator or space), so
// no junk handle can address another document.
func ParseFingerprint(s string) (uint64, error) { return parseFingerprint(s) }

// parseFingerprint is ParseFingerprint over either form of the text, so
// the eval handler parses the decoded request bytes without a string.
// It accepts what strconv.ParseUint(s, 16, 64) accepts in at most 16
// characters: one to sixteen hex digits.
func parseFingerprint[S string | []byte](s S) (uint64, error) {
	var fp uint64
	ok := len(s) > 0 && len(s) <= 16
	for i := 0; ok && i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			fp = fp<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			fp = fp<<4 | uint64(c-'a'+10)
		case 'A' <= c && c <= 'F':
			fp = fp<<4 | uint64(c-'A'+10)
		default:
			ok = false
		}
	}
	if !ok {
		return 0, fmt.Errorf("malformed fingerprint %q", s)
	}
	return fp, nil
}

// Load parses one XML document from src into the named storage backend
// ("" = pointer) and admits it. Content already resident (same
// fingerprint, regardless of backend) dedupes: the existing document is
// kept and refreshed in LRU order. Admission may demote or evict
// least-recently-used documents of the same shard to stay under the
// byte bound; a document larger than a whole shard's budget is
// rejected.
func (r *Registry) Load(src io.Reader, backend string) (DocInfo, error) {
	doc, err := xpath.ParseDocumentBackend(src, backend)
	if err != nil {
		return DocInfo{}, err
	}
	return r.Add(doc)
}

// Add admits an already-parsed document (Load's seam, and the preload
// path of cmd/xpathd). The document's own storage backend decides the
// byte charge.
func (r *Registry) Add(doc *xpath.Document) (DocInfo, error) {
	fp := doc.Fingerprint()
	bytes := doc.ResidentBytes()
	if bytes > r.maxBytes {
		return DocInfo{}, fmt.Errorf("%w: %d resident bytes (%s backend) exceeds the shard budget (%d)", errDocTooLarge, bytes, doc.Backend(), r.maxBytes)
	}
	// Build the index before publishing so concurrent first evals never
	// duplicate the O(|D|) build.
	doc.Index()
	s := r.shard(fp)
	s.mu.Lock()
	if el, ok := s.docs[fp]; ok {
		s.order.MoveToFront(el)
		s.dedups++
		e := el.Value.(*regEntry)
		info := e.info()
		s.mu.Unlock()
		return info, nil
	}
	e := &regEntry{doc: doc, col: doc.Columnar(), storeBytes: doc.StoreSizeBytes(), fp: fp, bytes: bytes, nodes: doc.Size(), loaded: time.Now()}
	el := s.order.PushFront(e)
	s.docs[fp] = el
	s.bytes += bytes
	s.loads++
	invalidate := s.fitLocked(r.maxBytes)
	info := e.info()
	s.mu.Unlock()
	r.invalidateAll(invalidate)
	return info, nil
}

// fitLocked brings the shard under budget: first demote hydrated
// columnar views coldest-first (the store stays resident, so no cache
// invalidation is owed), then evict whole documents LRU. The entry at
// the front (just admitted or just used) is left hydrated. Returns the
// fingerprints of evicted documents.
func (s *regShard) fitLocked(maxBytes int64) []uint64 {
	for el := s.order.Back(); s.bytes > maxBytes && el != nil && el != s.order.Front(); el = el.Prev() {
		e := el.Value.(*regEntry)
		if e.doc == nil || e.col == nil {
			continue // demoted already, or a pointer view that is its store
		}
		if delta := e.bytes - e.storeBytes; delta > 0 {
			// Drop the hydrated view; the columnar store stays.
			e.doc = nil
			e.bytes = e.storeBytes
			s.bytes -= delta
			s.demotions++
		}
	}
	var invalidate []uint64
	for s.bytes > maxBytes && s.order.Len() > 1 {
		last := s.order.Back()
		dropped := last.Value.(*regEntry)
		s.removeLocked(last)
		s.evictions++
		invalidate = append(invalidate, dropped.fp)
	}
	return invalidate
}

// Get returns the resident document for a fingerprint, refreshing its
// LRU position and hit count. A demoted document is rehydrated from its
// store — same content, same Ord numbering, so cached results keyed by
// its fingerprint remain valid.
func (r *Registry) Get(fp uint64) (*xpath.Document, bool) {
	s := r.shard(fp)
	s.mu.Lock()
	el, ok := s.docs[fp]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.order.MoveToFront(el)
	s.hits++
	e := el.Value.(*regEntry)
	e.hits++
	doc := e.doc
	if doc != nil {
		s.mu.Unlock()
		return doc, true
	}
	doc = e.col.Document()
	doc.Index()
	s.rehydrations++
	s.bytes += doc.ResidentBytes() - e.bytes
	e.bytes = doc.ResidentBytes()
	e.doc = doc
	// The rehydrated view counts against the shard budget like a fresh
	// admission: colder entries are demoted or evicted, never this one
	// (it is at the front).
	invalidate := s.fitLocked(r.maxBytes)
	s.mu.Unlock()
	r.invalidateAll(invalidate)
	return doc, true
}

// Delete removes a resident document and invalidates its result-cache
// entries. It reports whether the fingerprint was resident.
func (r *Registry) Delete(fp uint64) bool {
	s := r.shard(fp)
	s.mu.Lock()
	el, ok := s.docs[fp]
	if ok {
		s.removeLocked(el)
		s.deletes++
	}
	s.mu.Unlock()
	if ok {
		r.invalidateAll([]uint64{fp})
	}
	return ok
}

// List returns every resident document, most recently used first within
// each shard.
func (r *Registry) List() []DocInfo {
	var out []DocInfo
	for _, s := range r.shards {
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*regEntry).info())
		}
		s.mu.Unlock()
	}
	return out
}

// Stats sums the shard counters.
func (r *Registry) Stats() RegistryStats {
	var st RegistryStats
	for _, s := range r.shards {
		s.mu.Lock()
		st.Docs += s.order.Len()
		st.Bytes += s.bytes
		st.Loads += s.loads
		st.Dedups += s.dedups
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Deletes += s.deletes
		st.Demotions += s.demotions
		st.Rehydrations += s.rehydrations
		s.mu.Unlock()
	}
	return st
}

// registerGauges exposes the registry's state on m as gauges read at
// scrape time: exact on every scrape, and no request pays to push them.
func (r *Registry) registerGauges(m *xpath.Metrics) {
	m.GaugeFunc("registry.docs", func() int64 { return int64(r.Stats().Docs) })
	m.GaugeFunc("registry.bytes", func() int64 { return r.Stats().Bytes })
	m.GaugeFunc("registry.loads_total", func() int64 { return r.Stats().Loads })
	m.GaugeFunc("registry.evictions_total", func() int64 { return r.Stats().Evictions })
	m.GaugeFunc("registry.demotions_total", func() int64 { return r.Stats().Demotions })
	m.GaugeFunc("registry.rehydrations_total", func() int64 { return r.Stats().Rehydrations })
}

func (s *regShard) removeLocked(el *list.Element) {
	e := el.Value.(*regEntry)
	s.order.Remove(el)
	delete(s.docs, e.fp)
	s.bytes -= e.bytes
}

func (r *Registry) invalidateAll(fps []uint64) {
	if r.cache == nil {
		return
	}
	for _, fp := range fps {
		r.cache.InvalidateDocument(fp)
	}
}

func (e *regEntry) info() DocInfo {
	return DocInfo{
		Fingerprint: FormatFingerprint(e.fp),
		Nodes:       e.nodes,
		Bytes:       e.bytes,
		Backend:     e.backend(),
		StoreBytes:  e.storeBytes,
		Hydrated:    e.doc != nil,
		Hits:        e.hits,
		LoadedUnix:  e.loaded.UnixNano(),
	}
}

func (e *regEntry) backend() string {
	if e.col != nil {
		return xpath.BackendColumnar
	}
	return xpath.BackendPointer
}

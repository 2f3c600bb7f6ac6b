package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	xpath "xpathcomplexity"
)

func mustParse(t *testing.T, xml string) *xpath.Document {
	t.Helper()
	d, err := xpath.ParseDocumentString(xml)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

// docOfSize builds a document whose estimated footprint grows with n.
func docOfSize(t *testing.T, tag string, n int) *xpath.Document {
	t.Helper()
	var b strings.Builder
	b.WriteString("<" + tag + ">")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="%d">payload-%d</item>`, i, i)
	}
	b.WriteString("</" + tag + ">")
	return mustParse(t, b.String())
}

func TestFingerprintRoundTrip(t *testing.T) {
	for _, fp := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		s := FormatFingerprint(fp)
		if len(s) != 16 {
			t.Errorf("FormatFingerprint(%d) = %q, want 16 hex chars", fp, s)
		}
		got, err := ParseFingerprint(s)
		if err != nil || got != fp {
			t.Errorf("round trip %d -> %q -> %d, %v", fp, s, got, err)
		}
	}
	for _, bad := range []string{"", "zz", "not-hex!", strings.Repeat("f", 17)} {
		if _, err := ParseFingerprint(bad); err == nil {
			t.Errorf("ParseFingerprint(%q): want error", bad)
		}
	}
}

func TestRegistryDedupAndLRU(t *testing.T) {
	// One shard with room for roughly two mid-sized documents makes the
	// eviction order observable.
	d1 := docOfSize(t, "a", 50)
	budget := 2*d1.ResidentBytes() + d1.ResidentBytes()/2
	r := NewRegistry(1, budget, nil)

	i1, err := r.Add(d1)
	if err != nil {
		t.Fatal(err)
	}
	// Identical content (fresh parse) dedupes to the resident tree.
	if i1b, err := r.Add(mustParse(t, d1.XMLString())); err != nil || i1b.Fingerprint != i1.Fingerprint {
		t.Fatalf("dedup: %+v, %v", i1b, err)
	}
	if st := r.Stats(); st.Loads != 1 || st.Dedups != 1 {
		t.Fatalf("after dedup: %+v", st)
	}

	d2 := docOfSize(t, "b", 50)
	if _, err := r.Add(d2); err != nil {
		t.Fatal(err)
	}
	// Touch d1 so d2 is the LRU victim when d3 arrives.
	if _, ok := r.Get(d1.Fingerprint()); !ok {
		t.Fatal("d1 not resident")
	}
	d3 := docOfSize(t, "c", 50)
	if _, err := r.Add(d3); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(d2.Fingerprint()); ok {
		t.Error("d2 should have been evicted (LRU)")
	}
	if _, ok := r.Get(d1.Fingerprint()); !ok {
		t.Error("d1 (recently used) should have survived")
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Errorf("expected evictions: %+v", st)
	}
	if st.Bytes > budget {
		t.Errorf("resident bytes %d exceed budget %d", st.Bytes, budget)
	}

	// A document larger than the whole shard budget is rejected.
	if _, err := r.Add(docOfSize(t, "huge", 2000)); !isOverBudget(err) {
		t.Errorf("oversize add: want errDocTooLarge, got %v", err)
	}
}

func TestRegistryEvictionInvalidatesCache(t *testing.T) {
	cache := xpath.NewResultCache(0, 0)
	d1 := docOfSize(t, "a", 40)
	r := NewRegistry(1, d1.ResidentBytes()+d1.ResidentBytes()/2, cache)
	if _, err := r.Add(d1); err != nil {
		t.Fatal(err)
	}
	// Cache a result for d1.
	q := xpath.MustCompile("//item")
	if _, err := q.EvalOptions(xpath.RootContext(d1), xpath.EvalOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Size == 0 {
		t.Fatal("no cached entry to invalidate")
	}
	// Adding d2 evicts d1 and must drop its cached results.
	if _, err := r.Add(docOfSize(t, "b", 40)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Invalidations == 0 {
		t.Errorf("eviction did not invalidate the cache: %+v", st)
	}
}

// columnarDocOfSize is docOfSize on the columnar backend, the encoding
// whose hydrated view can be demoted under byte pressure.
func columnarDocOfSize(t *testing.T, tag string, n int) *xpath.Document {
	t.Helper()
	var b strings.Builder
	b.WriteString("<" + tag + ">")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="%d">payload-%d</item>`, i, i)
	}
	b.WriteString("</" + tag + ">")
	d, err := xpath.ParseDocumentBackend(strings.NewReader(b.String()), xpath.BackendColumnar)
	if err != nil {
		t.Fatalf("parse columnar: %v", err)
	}
	return d
}

// Under byte pressure the registry demotes cold columnar entries —
// dropping the hydrated view, keeping the store — before evicting
// anything, and rehydrates transparently on Get with cached results
// surviving the round trip.
func TestRegistryDemotionAndRehydration(t *testing.T) {
	cache := xpath.NewResultCache(0, 0)
	d1 := columnarDocOfSize(t, "a", 60)
	d2 := columnarDocOfSize(t, "b", 60)
	r1, s1 := d1.ResidentBytes(), d1.StoreSizeBytes()
	if r1 <= s1 {
		t.Fatalf("columnar view adds no bytes: resident %d, store %d", r1, s1)
	}
	// Room for both stores plus one hydrated view, not two.
	budget := d2.ResidentBytes() + s1 + (r1-s1)/2
	r := NewRegistry(1, budget, cache)

	if _, err := r.Add(d1); err != nil {
		t.Fatal(err)
	}
	q := xpath.MustCompile("count(//item)")
	want, err := q.EvalOptions(xpath.RootContext(d1), xpath.EvalOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(d2); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.Demotions != 1 || st.Evictions != 0 {
		t.Fatalf("adding d2 should demote d1, not evict: %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, budget)
	}
	if inv := cache.Stats().Invalidations; inv != 0 {
		t.Fatalf("demotion must not invalidate the cache: %d invalidations", inv)
	}
	var demoted DocInfo
	for _, info := range r.List() {
		if info.Fingerprint == FormatFingerprint(d1.Fingerprint()) {
			demoted = info
		}
	}
	if demoted.Hydrated || demoted.Bytes != demoted.StoreBytes || demoted.Backend != xpath.BackendColumnar {
		t.Fatalf("demoted entry not store-only: %+v", demoted)
	}

	got, ok := r.Get(d1.Fingerprint())
	if !ok {
		t.Fatal("demoted document not resident")
	}
	if got == d1 {
		t.Fatal("Get returned the dropped view instance")
	}
	if st := r.Stats(); st.Rehydrations != 1 {
		t.Fatalf("stats after rehydration: %+v", st)
	}
	for _, info := range r.List() {
		if info.Fingerprint == FormatFingerprint(d1.Fingerprint()) && !info.Hydrated {
			t.Fatalf("entry still demoted after Get: %+v", info)
		}
	}
	// The rehydrated view keeps identical Ord numbering, so the result
	// cached before demotion still hits — and agrees.
	hits := cache.Stats().Hits
	v, err := q.EvalOptions(xpath.RootContext(got), xpath.EvalOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != hits+1 {
		t.Fatal("cached result did not survive the demote/rehydrate round trip")
	}
	if fmt.Sprint(v) != fmt.Sprint(want) {
		t.Fatalf("rehydrated eval = %v, want %v", v, want)
	}
}

// Rehydrating a demoted document on Get charges its view against the
// shard budget like an admission: colder views are demoted again, so
// repeated Gets of demoted entries never leave the shard over budget.
func TestRegistryRehydrationStaysInBudget(t *testing.T) {
	docs := []*xpath.Document{
		columnarDocOfSize(t, "a", 60),
		columnarDocOfSize(t, "b", 60),
		columnarDocOfSize(t, "c", 60),
	}
	// Room for every store plus one hydrated view, not two.
	var budget int64
	for _, d := range docs {
		budget += d.StoreSizeBytes()
	}
	view := docs[0].ResidentBytes() - docs[0].StoreSizeBytes()
	budget += view + view/2
	r := NewRegistry(1, budget, xpath.NewResultCache(0, 0))
	for _, d := range docs {
		if _, err := r.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Demotions != 2 || st.Bytes > budget {
		t.Fatalf("after adds: %+v, budget %d", st, budget)
	}
	for i := 0; i < 9; i++ {
		fp := docs[i%len(docs)].Fingerprint()
		if _, ok := r.Get(fp); !ok {
			t.Fatalf("get %d: document not resident", i)
		}
		st := r.Stats()
		if st.Bytes > budget {
			t.Fatalf("get %d: resident bytes %d exceed budget %d: %+v", i, st.Bytes, budget, st)
		}
		if st.Evictions != 0 || st.Docs != len(docs) {
			t.Fatalf("get %d: rehydration evicted a document: %+v", i, st)
		}
		for _, info := range r.List() {
			if info.Fingerprint == FormatFingerprint(fp) && !info.Hydrated {
				t.Fatalf("get %d: fetched entry demoted again: %+v", i, info)
			}
		}
	}
}

func TestRegistryDeleteAndList(t *testing.T) {
	r := NewRegistry(4, 0, nil)
	d := docOfSize(t, "a", 10)
	info, err := r.Add(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.List(); len(got) != 1 || got[0].Fingerprint != info.Fingerprint {
		t.Fatalf("list: %+v", got)
	}
	if !r.Delete(d.Fingerprint()) {
		t.Fatal("delete reported not resident")
	}
	if r.Delete(d.Fingerprint()) {
		t.Fatal("second delete reported resident")
	}
	if got := r.List(); len(got) != 0 {
		t.Fatalf("list after delete: %+v", got)
	}
	if st := r.Stats(); st.Docs != 0 || st.Bytes != 0 || st.Deletes != 1 {
		t.Fatalf("stats after delete: %+v", st)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines
// under -race: loads of a few distinct documents, gets, deletes.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(4, 1<<20, xpath.NewResultCache(0, 0))
	docs := make([]*xpath.Document, 4)
	for i := range docs {
		docs[i] = docOfSize(t, fmt.Sprintf("t%d", i), 10+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := docs[(g+i)%len(docs)]
				switch i % 5 {
				case 0:
					if _, err := r.Add(d); err != nil {
						t.Errorf("add: %v", err)
					}
				case 4:
					r.Delete(d.Fingerprint())
				default:
					r.Get(d.Fingerprint())
				}
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if st.Docs < 0 || st.Bytes < 0 {
		t.Fatalf("inconsistent stats: %+v", st)
	}
}

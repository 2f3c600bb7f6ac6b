package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

type spanKind uint8

const (
	spanEval spanKind = iota + 1
	spanLoad
	spanDelete
)

var spanNames = map[spanKind]string{
	spanEval: "client.eval", spanLoad: "client.load", spanDelete: "client.delete",
}

// reqSpan is one client request span with the handler's child span
// folded in after the run (same id).
type reqSpan struct {
	id           int64
	start, end   int64 // ns since the tracer's epoch
	hStart, hEnd int64 // the handler's child span; 0 until joined
	wallUs       int64 // the eval response's wall_us
	bytes        int64 // response body bytes the handler wrote
	kind         spanKind
}

type handlerSpan struct {
	id, start, end, bytes int64
}

// rungSpan is one timed call into a layer during the ladder replay.
type rungSpan struct {
	draw       int64 // index of the replayed draw
	rung       int   // index into rungNames
	start, end int64
}

// tracer keeps every span of a traced run in memory outside the Go
// heap and writes them out when the run ends.
type tracer struct {
	epoch   time.Time
	clients [][]reqSpan
	nreq    []int

	mu       sync.Mutex
	handlers []handlerSpan
	nhandler int

	rungs []rungSpan
	nrung int
}

func newTracer(clients, capacity int) (*tracer, error) {
	t := &tracer{epoch: time.Now(), clients: make([][]reqSpan, clients), nreq: make([]int, clients)}
	var err error
	for i := range t.clients {
		if t.clients[i], err = offHeap[reqSpan](capacity); err != nil {
			return nil, err
		}
	}
	if t.handlers, err = offHeap[handlerSpan](clients * capacity); err != nil {
		return nil, err
	}
	if t.rungs, err = offHeap[rungSpan](1 << 16); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// clientSpan records a finished request of client c. Spans past the
// capacity are dropped.
func (t *tracer) clientSpan(c int, id int64, kind spanKind, start, end time.Time) {
	if t.nreq[c] == len(t.clients[c]) {
		return
	}
	t.clients[c][t.nreq[c]] = reqSpan{id: id, kind: kind, start: t.since(start), end: t.since(end)}
	t.nreq[c]++
}

// evalResponse attaches an eval response's wall_us to the client's
// latest span.
func (t *tracer) evalResponse(c int, wallUs int64) {
	if n := t.nreq[c]; n > 0 {
		t.clients[c][n-1].wallUs = wallUs
	}
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrap returns h with a child span recorded around every request that
// carries a span id.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		t.mu.Lock()
		if t.nhandler < len(t.handlers) {
			t.handlers[t.nhandler] = handlerSpan{id: id, start: t.since(start), end: t.since(end), bytes: cw.n}
			t.nhandler++
		}
		t.mu.Unlock()
	})
}

// join folds each handler span into its client span. It runs after the
// server has shut down.
func (t *tracer) join() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.handlers[:t.nhandler] {
		c, seq := int(h.id>>40), int(h.id&(1<<40-1))
		if c < len(t.clients) && seq >= 1 && seq <= t.nreq[c] {
			s := &t.clients[c][seq-1]
			s.hStart, s.hEnd, s.bytes = h.start, h.end, h.bytes
		}
	}
}

// rung records one timed call of the ladder replay.
func (t *tracer) rung(draw, rung int, start, end time.Time) {
	if t.nrung < len(t.rungs) {
		t.rungs[t.nrung] = rungSpan{draw: int64(draw), rung: rung, start: t.since(start), end: t.since(end)}
		t.nrung++
	}
}

// write stores every span as one JSON object per line. Request spans
// carry the request id as "trace"; the handler span shares it with
// "parent" naming the client span. Rung spans carry the replayed draw's
// index as "trace".
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for c := range t.clients {
		for _, s := range t.clients[c][:t.nreq[c]] {
			name := spanNames[s.kind]
			fmt.Fprintf(w, `{"trace":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.id, name, s.start, s.end)
			if s.hEnd != 0 {
				fmt.Fprintf(w, `{"trace":%d,"name":"server.handler","parent":%q,"start_ns":%d,"end_ns":%d,"bytes":%d}`+"\n",
					s.id, name, s.hStart, s.hEnd, s.bytes)
			}
		}
	}
	for _, r := range t.rungs[:t.nrung] {
		fmt.Fprintf(w, `{"trace":%d,"name":"rung.%s","start_ns":%d,"end_ns":%d}`+"\n", r.draw, rungNames[r.rung], r.start, r.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

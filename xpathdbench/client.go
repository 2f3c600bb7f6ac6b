package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// sample is one timed operation.
type sample struct {
	latNs  uint32 // client-observed latency
	doneMs uint32 // completion time, ms into the timed phase
}

// idHeader carries a request's span id from the client to the traced
// handler, so the two spans of one request share it.
const idHeader = "X-Bench-Span"

// client is one closed-loop client on its own keep-alive connection.
// It speaks HTTP/1.1 on the connection from its own goroutine: the
// net/http client's transport would add two goroutine hand-offs and
// their allocations to every request, on the same two cores the daemon
// runs on.
type client struct {
	id   int
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte // request head and body, reused
	rng  *rand.Rand

	// samples holds one entry per timed operation.
	samples []sample
	ops     int
	// cycle counts this client's churn cycles, warm-up included.
	cycle int

	// Traffic this client issued during the timed phase, for the
	// independent-path totals.
	requests, queries, loads, deletes int64
	famCount                          [numFamilies]int64

	failed int64 // operations with an HTTP or transport error
	wrong  int64 // answers that disagree with the oracle
	errMsg string

	// tracer, when set, records one span per request.
	tracer *tracer
	seq    int64
}

func newClient(id int, addr string, rng *rand.Rand, latCap int, t *tracer) (*client, error) {
	samples, err := offHeap[sample](latCap)
	if err != nil {
		return nil, err
	}
	return &client{id: id, addr: addr, rng: rng, samples: samples, tracer: t}, nil
}

// close drops the client's connection.
func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// fail records a failed operation; the first message is kept.
func (c *client) fail(err error) {
	c.failed++
	if c.errMsg == "" {
		c.errMsg = err.Error()
	}
}

// mismatch records a wrong answer; the first message is kept.
func (c *client) mismatch(format string, args ...any) {
	c.wrong++
	if c.errMsg == "" {
		c.errMsg = fmt.Sprintf(format, args...)
	}
}

// do sends one request on the client's connection, dialing it first
// if needed, and reads the whole response body. After an error the
// connection is dropped, and the next request dials a fresh one.
func (c *client) do(method, path string, body []byte, kind spanKind) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	var id int64
	if c.tracer != nil {
		c.seq++
		id = int64(c.id)<<40 | c.seq
	}
	req := append(c.req[:0], method...)
	req = append(req, ' ')
	req = append(req, path...)
	req = append(req, " HTTP/1.1\r\nHost: xpathd\r\nContent-Length: "...)
	req = strconv.AppendInt(req, int64(len(body)), 10)
	if id != 0 {
		req = append(req, "\r\n"+idHeader+": "...)
		req = strconv.AppendInt(req, id, 10)
	}
	req = append(req, "\r\n\r\n"...)
	req = append(req, body...)
	c.req = req
	c.requests++
	start := time.Now()
	status, data, err := c.roundTrip(req)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	if c.tracer != nil {
		c.tracer.clientSpan(c.id, id, kind, start, time.Now())
	}
	return status, data, nil
}

func (c *client) roundTrip(req []byte) (int, []byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, data, nil
}

type wireResult struct {
	Query   string `json:"query"`
	Kind    string `json:"kind"`
	Value   string `json:"value"`
	Card    int    `json:"card"`
	Err     string `json:"err"`
	ErrKind string `json:"err_kind"`
}

type wireEval struct {
	Results []wireResult `json:"results"`
	WallUs  int64        `json:"wall_us"`
}

type wireDoc struct {
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
}

// evalRequest sends one /v1/eval batch and returns its results.
func (c *client) evalRequest(fp string, queries []string) ([]wireResult, error) {
	body, err := json.Marshal(struct {
		Doc     string   `json:"doc"`
		Queries []string `json:"queries"`
	}{fp, queries})
	if err != nil {
		return nil, err
	}
	c.queries += int64(len(queries))
	status, data, err := c.do(http.MethodPost, "/v1/eval", body, spanEval)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("eval: status %d: %s", status, strings.TrimSpace(string(data)))
	}
	var resp wireEval
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("eval: decoding response: %w", err)
	}
	if len(resp.Results) != len(queries) {
		return nil, fmt.Errorf("eval: %d results for %d queries", len(resp.Results), len(queries))
	}
	if c.tracer != nil {
		c.tracer.evalResponse(c.id, resp.WallUs)
	}
	return resp.Results, nil
}

// load posts a document and checks the node count the daemon reports.
func (c *client) load(xml, backend string, wantNodes int) (string, error) {
	c.loads++
	status, data, err := c.do(http.MethodPost, "/v1/documents?backend="+backend, []byte(xml), spanLoad)
	if err != nil {
		return "", fmt.Errorf("load: %w", err)
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("load: status %d: %s", status, strings.TrimSpace(string(data)))
	}
	var info wireDoc
	if err := json.Unmarshal(data, &info); err != nil {
		return "", fmt.Errorf("load: decoding response: %w", err)
	}
	if info.Nodes != wantNodes {
		c.mismatch("load: daemon reports %d nodes, the oracle counts %d", info.Nodes, wantNodes)
	}
	return info.Fingerprint, nil
}

// drop deletes a resident document.
func (c *client) drop(fp string) error {
	c.deletes++
	status, data, err := c.do(http.MethodDelete, "/v1/documents/"+fp, nil, spanDelete)
	if err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("delete: status %d: %s", status, strings.TrimSpace(string(data)))
	}
	return nil
}

// check compares one wire result with the oracle's answer.
func check(r wireResult, want answer) error {
	if r.Err != "" {
		return fmt.Errorf("query %q failed (%s): %s", r.Query, r.ErrKind, r.Err)
	}
	if want.nodes {
		if r.Kind != "node-set" || r.Card != want.card {
			return fmt.Errorf("query %q: got %s %q (card %d), want %s", r.Query, r.Kind, r.Value, r.Card, want)
		}
		return nil
	}
	got, err := strconv.ParseFloat(r.Value, 64)
	if r.Kind != "number" || err != nil || got != want.num {
		return fmt.Errorf("query %q: got %s %q, want %s", r.Query, r.Kind, r.Value, want)
	}
	return nil
}

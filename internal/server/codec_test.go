package server

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The /v1/eval wire structs as encoding/json sees them. The handler
// decodes and encodes without them (codec.go); the tests use them to
// build and read requests, and FuzzEvalCodec holds the codec to their
// encoding/json form byte for byte.

// evalRequest is the /v1/eval body.
type evalRequest struct {
	Doc     string   `json:"doc"`
	Queries []string `json:"queries"`
	Engine  string   `json:"engine,omitempty"`
}

// evalResult is one query's outcome in the /v1/eval response.
type evalResult struct {
	Query   string `json:"query"`
	Kind    string `json:"kind,omitempty"`
	Value   string `json:"value,omitempty"`
	Card    int    `json:"card"`
	Ords    []int  `json:"ords,omitempty"`
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
}

// evalResponse is the /v1/eval response body.
type evalResponse struct {
	Doc     string       `json:"doc"`
	Engine  string       `json:"engine"`
	Results []evalResult `json:"results"`
	WallUs  int64        `json:"wall_us"`
}

// oracleDecode is the decoding the codec replaces: encoding/json's
// Decoder reading one value into a fresh evalRequest.
func oracleDecode(body []byte) (evalRequest, error) {
	var req evalRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// codecDecode runs the codec's decoder over body on a codec that has
// already decoded prev, so stale state from a pooled codec would show.
func codecDecode(prev, body []byte) (evalRequest, error) {
	c := new(evalCodec)
	c.body = append(c.body[:0], prev...)
	_ = c.decode()
	c.body = append(c.body[:0], body...)
	err := c.decode()
	req := evalRequest{Doc: string(c.docBytes()), Queries: c.queries, Engine: string(c.engineBytes())}
	return req, err
}

// checkDecode fails when the codec and encoding/json disagree on body.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, werr := oracleDecode(body)
	got, gerr := codecDecode([]byte(`{"doc":"stale","queries":["a","b","c","d"],"engine":"vm"}`), body)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("body %q: encoding/json err = %v, codec err = %v", body, werr, gerr)
	}
	if werr != nil {
		return
	}
	if got.Doc != want.Doc || got.Engine != want.Engine || !slices.Equal(got.Queries, want.Queries) {
		t.Fatalf("body %q:\n encoding/json %+q\n codec         %+q", body, want, got)
	}
}

// checkEncode fails when the codec's bytes for resp differ from
// json.Encoder's.
func checkEncode(t *testing.T, resp evalResponse) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	c := new(evalCodec)
	c.beginResponse([]byte(resp.Doc), resp.Engine)
	for i, r := range resp.Results {
		c.appendResult(&wireResult{
			query: r.Query, kind: r.Kind, value: r.Value, card: r.Card,
			ords: r.Ords, err: r.Err, errKind: r.ErrKind,
		}, i == 0)
	}
	c.endResponse(resp.WallUs)
	if !bytes.Equal(c.out, want.Bytes()) {
		t.Fatalf("response %+q:\n encoding/json %q\n codec         %q", resp, want.Bytes(), c.out)
	}
}

// decodeSeeds are request bodies on the edges of the JSON grammar and of
// encoding/json's struct decoding.
var decodeSeeds = []string{
	`{"doc":"00000000000000ff","queries":["//a[b]"]}`,
	`{"doc":"ff","queries":["//a","count(//b)"],"engine":"vm"}`,
	// escapes, surrogate pairs and invalid UTF-8
	`{"doc":"\u0066f","queries":["\"\\\/\b\f\n\r\t","\ud83d\ude00","\ud83d","\ude00x","\ud83d\u0041","\ud83d\n"]}`,
	"{\"doc\":\"a\xffb\",\"queries\":[\"\xed\xa0\x80\",\"\xc3\"]}",
	`{"queries":["\u00zz"]}`,
	`{"queries":["\x"]}`,
	`{"queries":["\'"]}`,
	"{\"queries\":[\"a\x01\"]}",
	// HTML characters and the JavaScript line terminators
	"{\"queries\":[\"<a>&amp;\u2028\u2029\"]}",
	// case-variant and duplicate keys, null values
	`{"DOC":"a","Queries":["x"],"ENGINE":"cvt"}`,
	"{\"doc\":\"a\",\"qUeRie\u017f\":[\"x\"]}",
	"{\"\u212a\":1,\"doc\u212a\":2}",
	`{"doc":"a","doc":"b","doc":null}`,
	`{"queries":["a","b"],"queries":[null]}`,
	`{"queries":["a","b","c"],"queries":["x"],"queries":["y",null,null,null]}`,
	`{"queries":["a"],"queries":[],"queries":[null,null]}`,
	`{"queries":["a"],"queries":null,"queries":[null]}`,
	`{"doc":null,"queries":null,"engine":null}`,
	`null`, `nullx`, ` null `, `nul`, `{}`, `[]`, `"doc"`, `1`, `true`, ``, `   `,
	// unknown keys and trailing bytes
	`{"doc":"a","x":{"y":[1,-2.5e+3,true,false,null,"s",{}]},"queries":["q"]}`,
	`{"doc":"a","queries":["q"]} trailing`,
	`{"doc":"a","queries":["q"]}{"doc":"b"}`,
	`{"doc":"a","queries":["q"],}`,
	`{"doc":"a" "queries":["q"]}`,
	`{"doc":1}`, `{"queries":"q"}`, `{"queries":[1]}`, `{"queries":[["q"]]}`, `{"engine":{}}`,
	`{"x":01}`, `{"x":-}`, `{"x":1.}`, `{"x":1e}`, `{"x":.5}`, `{"x":+1}`, `{"x":tru}`,
	`{"x":[1,]}`, `{"x":{"a"}}`, `{"x":{1:2}}`, `{"doc":"a"`, `{"doc":"a`, `{"doc`,
	" \t\r\n{ \"doc\" : \"a\" , \"queries\" : [ \"q\" ] } ",
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

func TestEvalCodecDecode(t *testing.T) {
	for _, body := range decodeSeeds {
		checkDecode(t, []byte(body))
	}
}

func TestEvalCodecEncode(t *testing.T) {
	checkEncode(t, evalResponse{Doc: "00000000000000ff", Engine: "auto", Results: []evalResult{
		{Query: "//a[b]", Kind: "node-set", Value: "3 nodes", Card: 3, Ords: []int{2, 5, 9}},
		{Query: "count(//b)", Kind: "number", Value: "3", Card: -1},
		{Query: "//a[", Card: -1, Err: "xpath: <unexpected> & \"eof\"\u2028\u2029\x00\x1f\x7f\xff", ErrKind: "compile"},
		{Query: "", Card: 0, Ords: []int{}},
	}, WallUs: 12})
	// The node-set form renders "<card> nodes" itself.
	c := new(evalCodec)
	c.appendResult(&wireResult{query: "//a", kind: "node-set", countValue: true, card: 12}, true)
	if want := `{"query":"//a","kind":"node-set","value":"12 nodes","card":12}`; string(c.out) != want {
		t.Errorf("node-set value: %s, want %s", c.out, want)
	}
}

// FuzzEvalCodec holds the eval codec to encoding/json: the decoder
// accepts and rejects exactly what json.Decoder.Decode does on the
// request struct, with the same fields, and the encoder's bytes for any
// response equal json.Encoder's.
func FuzzEvalCodec(f *testing.F) {
	for _, body := range decodeSeeds {
		if len(body) > 1024 {
			continue // the nesting-bound bodies: TestEvalCodecDecode covers them, and they slow mutation to a crawl
		}
		f.Add([]byte(body), "//a[b]", "a\u2028<b>&\xff", 3)
	}
	f.Add([]byte(`{"doc":"1"}`), "\xed\xa0\x80", "\"\\\x00\x1f", -1)
	f.Fuzz(func(t *testing.T, body []byte, s1, s2 string, n int) {
		checkDecode(t, body)
		// Every string field of the response takes fuzzed text; the
		// body doubles as a string so invalid UTF-8 reaches the encoder.
		checkEncode(t, evalResponse{Doc: string(body), Engine: s1, Results: []evalResult{
			{Query: s1, Kind: s2, Value: s1 + s2, Card: n, Ords: []int{n, -n, 0}},
			{Query: s2, Card: -1, Err: string(body), ErrKind: s1},
		}, WallUs: int64(n)})
	})
}

// TestParseFingerprintBytes holds the handle parser to the strconv form
// it replaced: strconv.ParseUint(s, 16, 64) in at most 16 characters.
func TestParseFingerprintBytes(t *testing.T) {
	for _, s := range []string{"0", "ff", "FF", "00000000000000ff", "ffffffffffffffff", "", "+1", "-1", "0x1", "1_0", " 1", "g", "10000000000000000", "\xff"} {
		want, werr := strconv.ParseUint(s, 16, 64)
		if len(s) > 16 {
			werr = strconv.ErrRange
		}
		got, gerr := parseFingerprint([]byte(s))
		if (werr == nil) != (gerr == nil) || (werr == nil && got != want) {
			t.Errorf("%q: strconv (%d, %v), parseFingerprint (%d, %v)", s, want, werr, got, gerr)
		}
	}
}

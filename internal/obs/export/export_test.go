package export

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"xpathcomplexity/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenSnapshot builds a fixed registry exercising every metric kind,
// the name sanitizer (dots, dashes, leading digits) and the histogram
// bucket math (bucket 0, interior buckets, a wide top bucket).
func goldenSnapshot() obs.Snapshot {
	m := obs.NewMetrics()
	m.Counter("eval.canceled").Add(3)
	m.Counter("engine.cvt.ops").Add(1234)
	m.Counter("engine.vm.evals").Add(7)
	m.Counter("2weird-name.ok").Add(1)
	m.Gauge("plan_cache.size").Set(12)
	m.Gauge("index.builds").Set(2)
	h := m.Histogram("corelinear.frontier")
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 100, 100, 100} {
		h.Observe(v)
	}
	return m.Snapshot()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs/export/ -update` to create it)", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, goldenSnapshot(), Options{}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.prom", []byte(b.String()))
}

func TestJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", []byte(b.String()))
}

// TestPrometheusValidExposition validates every emitted line against
// the text exposition grammar: comments, or `name[{labels}] value`.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9]+(\.[0-9]+)?)$`)

func TestPrometheusValidExposition(t *testing.T) {
	out := PrometheusString(goldenSnapshot())
	if out == "" {
		t.Fatal("empty exposition")
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("exposition must end with a newline")
	}
}

// TestPrometheusHistogramCumulative checks the bucket series is
// cumulative and capped by the +Inf bucket == count.
func TestPrometheusHistogramCumulative(t *testing.T) {
	out := PrometheusString(goldenSnapshot())
	var last int64 = -1
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "xpath_corelinear_frontier_bucket") {
			continue
		}
		buckets++
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket series not cumulative: %d after %d (%q)", v, last, line)
		}
		last = v
	}
	if buckets == 0 {
		t.Fatal("no bucket lines emitted")
	}
	if last != 9 { // 9 observations in goldenSnapshot
		t.Errorf("+Inf bucket = %d, want 9", last)
	}
}

func TestSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"eval.canceled", "eval_canceled"},
		{"engine.cvt.ops", "engine_cvt_ops"},
		{"already_ok:colon", "already_ok:colon"},
		{"2starts-with.digit", "_2starts_with_digit"},
		{"spaces and/slashes", "spaces_and_slashes"},
		{"", "_"},
		{"ünïcode", "__n__code"}, // each invalid byte becomes one underscore
	}
	for _, tc := range cases {
		if got := Sanitize(tc.in); got != tc.want {
			t.Errorf("Sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if again := Sanitize(Sanitize(tc.in)); again != Sanitize(tc.in) {
			t.Errorf("Sanitize not idempotent on %q: %q -> %q", tc.in, Sanitize(tc.in), again)
		}
	}
}

// TestNamespaceOptions covers the prefix modes.
func TestNamespaceOptions(t *testing.T) {
	s := goldenSnapshot()
	var b strings.Builder
	WritePrometheus(&b, s, Options{Namespace: "custom.ns"})
	if !strings.Contains(b.String(), "custom_ns_eval_canceled_total") {
		t.Errorf("custom namespace not applied:\n%s", b.String())
	}
	b.Reset()
	WritePrometheus(&b, s, Options{Namespace: "-"})
	if !strings.Contains(b.String(), "\neval_canceled_total 3\n") &&
		!strings.HasPrefix(b.String(), "eval_canceled_total") {
		// the sample line must appear unprefixed
		if !strings.Contains(b.String(), "eval_canceled_total 3") {
			t.Errorf("bare namespace not applied:\n%s", b.String())
		}
	}
}

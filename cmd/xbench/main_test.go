package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		// Drain to EOF: one Read returns only the first chunk the pipe
		// holds, and the experiments print in many writes.
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestTablePrinter(t *testing.T) {
	out := captureStdout(t, func() {
		tb := newTable("col", "longer-column")
		tb.add("a", 1)
		tb.add("bbbb", 22)
		tb.print()
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "col") || !strings.Contains(lines[0], "longer-column") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator wrong: %q", lines[1])
	}
	// Column alignment: "col" is padded to width 4 ("bbbb").
	if !strings.HasPrefix(lines[2], "  a     1") {
		t.Errorf("row alignment wrong: %q", lines[2])
	}
}

// Every experiment runs end to end without panicking (smoke; the
// assertions about the numbers live in EXPERIMENTS.md and the unit
// tests). Runs in a temp dir: the guard/alloc/cache experiments write
// their BENCH_*.json artifact to the working directory, and the
// checked-in copies live at the repo root, not in this package.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	// The experiments time their workloads with testing.Benchmark; one
	// iteration each is enough to run every code path, where the default
	// 1s benchtime would spend minutes measuring.
	benchtime := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", benchtime)
	for _, e := range experiments {
		if e.name == "par" || e.name == "t59" || e.name == "f1" || e.name == "t32" {
			continue // the slowest ones; covered by the xbench runs in EXPERIMENTS.md
		}
		if e.name == "profile" {
			continue // writes BENCH_OBS.json; covered by TestProfileExperiment
		}
		e := e
		t.Run(e.name, func(t *testing.T) {
			_ = captureStdout(t, func() { e.run(1) })
		})
	}
}

// The profile experiment must write a well-formed BENCH_OBS.json whose
// measurements exhibit the separation the observability layer exists to
// show: naive subexpression visits growing at least 10x faster than
// cvt's across the EXP-OBS document family, with no run hitting its
// budget and every run's metrics reconciling with its operation count.
func TestProfileExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("profile experiment is slow; skipped in -short mode")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	out := captureStdout(t, func() { expProfile(1) })
	if !strings.Contains(out, "wrote BENCH_OBS.json") {
		t.Fatalf("missing artifact confirmation in output:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_OBS.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report obsReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("BENCH_OBS.json is not valid JSON: %v", err)
	}
	if len(report.Rows) != 8 {
		t.Fatalf("report has %d rows, want 8 (4 sizes x 2 engines)", len(report.Rows))
	}
	growth := map[string][2]int64{} // engine -> {first visits, last visits}
	for _, r := range report.Rows {
		if r.HitBudget {
			t.Errorf("%s at %d nodes hit the budget", r.Engine, r.Nodes)
		}
		if r.Visits <= 0 || r.Ops <= 0 {
			t.Errorf("%s at %d nodes: visits=%d ops=%d, want positive", r.Engine, r.Nodes, r.Visits, r.Ops)
		}
		// The engine counter in the snapshot is the same total the run's
		// evalctx.Counter reported.
		if got := r.Metrics.Counters["engine."+r.Engine+".ops"]; got != r.Ops {
			t.Errorf("%s at %d nodes: metrics engine ops %d != counter ops %d", r.Engine, r.Nodes, got, r.Ops)
		}
		g, ok := growth[r.Engine]
		if !ok {
			g[0] = r.Visits
		}
		g[1] = r.Visits
		growth[r.Engine] = g
	}
	naive := float64(growth["naive"][1]) / float64(growth["naive"][0])
	cvt := float64(growth["cvt"][1]) / float64(growth["cvt"][0])
	if naive < 10*cvt {
		t.Fatalf("naive visit growth %.1fx is not >= 10x cvt growth %.1fx", naive, cvt)
	}
}

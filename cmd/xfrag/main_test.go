package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, f func() error) (string, error) {
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
		// holds.
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestClassifyOutput(t *testing.T) {
	out, err := capture(t, func() error { return classify("//a[not(b)]", false) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Core XPath", "P-complete"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestClassifyVerbose(t *testing.T) {
	out, err := capture(t, func() error { return classify("//a[position() = 1][count(b) > 2]", true) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"membership:", "features:", "negation depth", "max predicate seq:   2",
		"pXPath-forbidden:    count", "recommended engine",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose output missing %q:\n%s", want, out)
		}
	}
}

func TestClassifyParseError(t *testing.T) {
	if _, err := capture(t, func() error { return classify("//a[", false) }); err == nil {
		t.Fatal("parse error not reported")
	}
}

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlight/internal/dataset"
	"mlight/internal/trace"
)

func tinyArgs(extra ...string) []string {
	base := []string{
		"-n", "1500", "-peers", "16", "-theta", "20", "-epsilon", "14",
		"-depth", "16", "-queries", "3",
	}
	return append(base, extra...)
}

func TestRunFig6Tiny(t *testing.T) {
	if err := run2(tinyArgs("-figs", "fig6")); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run2(tinyArgs("-figs", "fig7", "-csvdir", dir)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig7a.csv", "fig7b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
	}
}

func TestRunWithDatasetFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, dataset.Generate(1200, 3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run2(tinyArgs("-figs", "fig6", "-dataset", path)); err != nil {
		t.Fatal(err)
	}
}

// TestRunTraceSection is the trace smoke test: the -trace flag must produce
// a file that passes the trace_event schema, and -tracetree a non-empty span
// tree rooted at the query.
func TestRunTraceSection(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "trace.json")
	treePath := filepath.Join(dir, "trace.txt")
	if err := run2(tinyArgs("-figs", "trace", "-trace", jsonPath, "-tracetree", treePath)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateTraceEvent(data); err != nil {
		t.Errorf("emitted trace fails schema: %v", err)
	}
	tree, err := os.ReadFile(treePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tree), "query range") {
		t.Errorf("span tree has no query root:\n%.400s", tree)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run2([]string{"-bad-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run2(tinyArgs("-dataset", "/does/not/exist.csv")); err == nil {
		t.Error("missing dataset file accepted")
	}
	err := run2(tinyArgs("-figs", "fig6,bogus"))
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "fig7") {
		t.Errorf("unknown section: got %v, want an error naming it and the valid sections", err)
	}
}

// run2 runs the CLI with output discarded.
func run2(args []string) error {
	return run(args, io.Discard)
}

package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
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
	if err := run2(tinyArgs("-figs", "fig7", "-out", dir)); err != nil {
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

// TestExplicitFlagBeatsQuick: -quick used to overwrite -n with its 10,000
// records, which at θ = 50 grow 463 leaf buckets; 500 records stay under 50.
func TestExplicitFlagBeatsQuick(t *testing.T) {
	dir := t.TempDir()
	if err := run2([]string{"-quick", "-n", "500", "-figs", "fig6", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fig6a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[1:] {
		if leaves, err := strconv.Atoi(row[0]); err != nil || leaves > 50 {
			t.Errorf("tree of %s leaf buckets (%v): not 500 records at θ = 50", row[0], err)
		}
	}
}

// TestExplicitFlagBeatsSectionPreset: the resilience section used to assign
// its 24 peers and 4,000 records over the flags. Without -out it must also
// leave the working directory alone.
func TestExplicitFlagBeatsSectionPreset(t *testing.T) {
	cwd, dir := t.TempDir(), t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	args := []string{"-figs", "resilience", "-n", "500", "-peers", "8"}
	if err := run2(args); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(cwd); err != nil || len(left) != 0 {
		t.Errorf("a run without -out left %v in the working directory (%v)", left, err)
	}
	if err := run2(append(args, "-out", dir)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_resilience.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		DataSize int `json:"data_size"`
		Peers    int `json:"peers"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.DataSize != 500 || got.Peers != 8 {
		t.Errorf("ran with data_size %d, peers %d; the flags said 500 and 8", got.DataSize, got.Peers)
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
	if err := run2(tinyArgs("-figs", "fig6", "-hopdelay", "0")); err == nil {
		t.Error("zero -hopdelay accepted")
	}
}

// run2 runs the CLI with output discarded.
func run2(args []string) error {
	return run(args, io.Discard)
}

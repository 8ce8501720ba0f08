package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestListPasses pins the -list surface: exactly the invariant passes the
// tool promises, in reporting order, each documented.
func TestListPasses(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-list"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("run(-list) = %d, %v", code, err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("-list line without a description: %q", line)
			continue
		}
		names = append(names, fields[0])
	}
	want := []string{"determinism", "droppederr", "decoratorcomplete", "hotpath"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("-list names = %v, want %v", names, want)
	}
}

// TestCleanTreeExitsZero runs the full pass set over this repository from
// the command's own entry point: the tree must stay clean, which is the
// same gate CI enforces.
func TestCleanTreeExitsZero(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-C", "../..", "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("lint over the repository exited %d:\n%s", code, out.String())
	}
}

// TestJSONOutput pins the -json contract: a valid (possibly empty) array of
// {file, line, col, pass, message} objects and nothing else on stdout.
func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-json", "-C", "../..", "./internal/analysis"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Pass    string `json:"pass"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostics array: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Errorf("expected a clean package, got %d findings", len(diags))
	}
}

// TestUnknownPassRejected pins the -passes validation, and that the
// directive-editing -fix mode is gone rather than silently accepted.
func TestUnknownPassRejected(t *testing.T) {
	for _, args := range [][]string{{"-passes", "nosuch"}, {"-fix", "./..."}} {
		var out bytes.Buffer
		if code, err := run(args, &out); err == nil || code != 2 {
			t.Errorf("run(%q) = %d, %v; want 2 and an error", args, code, err)
		}
	}
}

// TestStaleWaiverReported pins that a waiver for a pass the tool does not
// have is a finding on its line even when -passes selected something else:
// a deleted pass cannot leave its waivers behind unnoticed.
func TestStaleWaiverReported(t *testing.T) {
	dir := t.TempDir()
	src := "package stale\n\n//lint:allow lockorder shard locks nest in ascending order\nfunc F() {}\n"
	for name, data := range map[string]string{
		"go.mod":   "module stale\n\ngo 1.22\n",
		"stale.go": src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	code, err := run([]string{"-C", dir, "-passes", "determinism", "./..."}, &out)
	if err != nil || code != 1 {
		t.Fatalf("run = %d, %v; want 1:\n%s", code, err, out.String())
	}
	if want := `stale.go:3:1: [allow] unknown pass "lockorder"`; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListPasses pins the -list surface: every invariant pass is
// registered and documented.
func TestListPasses(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-list"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("run(-list) = %d, %v", code, err)
	}
	for _, pass := range []string{
		"determinism", "droppederr", "decoratorcomplete",
		"goroutineleak", "lockorder", "hotpath",
	} {
		if !strings.Contains(out.String(), pass) {
			t.Errorf("-list output missing pass %q:\n%s", pass, out.String())
		}
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

// TestUnknownPassRejected pins the -passes validation.
func TestUnknownPassRejected(t *testing.T) {
	var out bytes.Buffer
	if code, err := run([]string{"-passes", "nosuch"}, &out); err == nil || code != 2 {
		t.Fatalf("run(-passes nosuch) = %d, %v; want 2 and an error", code, err)
	}
}

// writeFixture materializes a one-package module for -fix tests and
// returns the path of its single source file.
func writeFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixme\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "fixme.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

const fixFixture = `package fixme

import "time"

// Stamp keeps its directive: the waiver suppresses a live determinism
// finding and carries a reason.
func Stamp() int64 {
	//lint:allow determinism demo timestamp, not replayed
	return time.Now().UnixNano()
}

// Stale is covered by a reasoned directive that suppresses nothing.
//lint:allow determinism nothing here reads the clock
func Stale() int { return 1 }

func Trailing() int {
	return 2 //lint:allow droppederr
}
`

// TestFixRewritesDirectives pins the -fix contract: unused reasoned
// directives are deleted (whole line when alone on it), reasonless ones
// become TODO comments, used reasoned ones survive, and the resolved
// hygiene findings are reported as fixes instead of diagnostics.
func TestFixRewritesDirectives(t *testing.T) {
	file := writeFixture(t, fixFixture)
	var out bytes.Buffer
	code, err := run([]string{"-C", filepath.Dir(file), "-fix", "./..."}, &out)
	if err != nil {
		t.Fatalf("run(-fix): %v", err)
	}
	if code != 0 {
		t.Fatalf("run(-fix) exited %d:\n%s", code, out.String())
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	src := string(got)
	if !strings.Contains(src, "//lint:allow determinism demo timestamp, not replayed") {
		t.Errorf("used directive was removed:\n%s", src)
	}
	if strings.Contains(src, "nothing here reads the clock") {
		t.Errorf("unused directive survived -fix:\n%s", src)
	}
	if !strings.Contains(src, "suppresses nothing.\nfunc Stale") {
		t.Errorf("directive line was not removed whole:\n%s", src)
	}
	if !strings.Contains(src, "return 2 // TODO(mlight-lint): add a reason to restore this suppression: lint:allow droppederr") {
		t.Errorf("reasonless directive was not rewritten into a TODO:\n%s", src)
	}
	for _, report := range []string{"deleted unused lint:allow determinism", "rewrote reasonless lint:allow droppederr"} {
		if !strings.Contains(out.String(), report) {
			t.Errorf("fix report missing %q:\n%s", report, out.String())
		}
	}

	// A second run has nothing left to fix and stays clean: -fix is
	// idempotent and leaves a zero-finding tree behind.
	var again bytes.Buffer
	code, err = run([]string{"-C", filepath.Dir(file), "-fix", "./..."}, &again)
	if err != nil || code != 0 {
		t.Fatalf("second run(-fix) = %d, %v:\n%s", code, err, again.String())
	}
	rerun, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(rerun) != src {
		t.Errorf("-fix is not idempotent:\nfirst:\n%s\nsecond:\n%s", src, rerun)
	}
}

// TestFixScopedToSelectedPasses pins that -fix -passes only judges
// directives for the selected passes: a determinism waiver cannot be
// declared unused by a run that never executed the determinism pass.
func TestFixScopedToSelectedPasses(t *testing.T) {
	file := writeFixture(t, fixFixture)
	var out bytes.Buffer
	code, err := run([]string{"-C", filepath.Dir(file), "-fix", "-passes", "lockorder", "./..."}, &out)
	if err != nil || code != 0 {
		t.Fatalf("run(-fix -passes lockorder) = %d, %v:\n%s", code, err, out.String())
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != fixFixture {
		t.Errorf("-fix with an unrelated pass selection edited the file:\n%s", got)
	}
}

package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestGolden drives every pass over the golden packages under testdata/src.
// Expected findings are written in the sources as analysistest-style
// comments — `// want "regex"` on the offending line, with several quoted
// regexes for lines carrying several findings, and `// want:prev "regex"`
// attributing to the line above (for diagnostics positioned on directive
// comments, which cannot host a second comment). Every diagnostic must be
// wanted and every want must be matched, so the corpus pins both the
// positives and the deliberate negatives (seeded rand, handled errors,
// pointer passing, allow suppression).
func TestGolden(t *testing.T) {
	stdlib, err := ListExports("../..", []string{"fmt", "hash/maphash", "math/rand", "time"})
	if err != nil {
		t.Fatalf("listing stdlib export data: %v", err)
	}
	dhtDir := filepath.Join("testdata", "src", "dht")
	cases := []struct {
		name  string
		path  string
		extra map[string]string
	}{
		{"determinism", "example.com/determinism", nil},
		{"allowlisted", "example.com/cmd/demo", nil},
		{"droppederr", "example.com/droppederr", nil},
		{"dht", "example.com/dht", nil},
		{"wire", "example.com/wire", map[string]string{"example.com/dht": dhtDir}},
		{"hotpath", "example.com/hotpath", nil},
		{"hotpathbroken", "example.com/hotpathbroken", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.name)
			pkg, err := LoadDir(dir, tc.path, tc.extra, stdlib)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			if pkg == nil {
				t.Fatalf("no files in %s", dir)
			}
			diags := Run(pkg, Passes())
			wants, err := parseWants(dir)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstWants(t, diags, wants)
		})
	}
}

// want is one expected diagnostic parsed from a golden source comment.
type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want(:prev)?((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)`)
var wantArgRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// parseWants scans every .go file under dir for want comments.
func parseWants(dir string) ([]*want, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wantLine := i + 1
			if m[1] == ":prev" {
				wantLine--
			}
			for _, q := range wantArgRE.FindAllString(m[2], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want %s: %v", e.Name(), i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pat, err)
				}
				out = append(out, &want{file: e.Name(), line: wantLine, re: re, raw: pat})
			}
		}
	}
	return out, nil
}

// checkAgainstWants pairs each diagnostic with an unconsumed want on its
// line and reports both unexpected diagnostics and unmatched wants.
func checkAgainstWants(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		text := fmt.Sprintf("[%s] %s", d.Pass, d.Message)
		base := filepath.Base(d.File)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != base || w.line != d.Line {
				continue
			}
			if w.re.MatchString(text) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d: %s", base, d.Line, text)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("want %q at %s:%d matched no diagnostic", w.raw, w.file, w.line)
		}
	}
}

// TestPathMatches pins the DefaultDeterminismAllow fragment semantics that
// pathMatches promises: whole path, leading segment, trailing segment,
// interior segment — but never a bare substring.
func TestPathMatches(t *testing.T) {
	cases := []struct {
		path, frag string
		want       bool
	}{
		{"internal/experiments", "internal/experiments", true},
		{"mlight/internal/experiments", "internal/experiments", true},
		{"mlight/internal/experiments/sub", "internal/experiments", true},
		{"cmd/x", "cmd", true},
		{"mlight/cmd/mlight-bench", "cmd", true},
		{"example.com/cmd/demo", "cmd", true},
		{"mlight/internal/core", "cmd", false},
		{"mlight/cmdutil", "cmd", false},
		{"mycmd/x", "cmd", false},
	}
	for _, c := range cases {
		if got := pathMatches(c.path, c.frag); got != c.want {
			t.Errorf("pathMatches(%q, %q) = %v, want %v", c.path, c.frag, got, c.want)
		}
	}
}

// TestPassesAreRegistered pins the pass set: names are unique, documented,
// and include every invariant the lint tool promises.
func TestPassesAreRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Passes() {
		if p.Name() == "" || p.Doc() == "" {
			t.Errorf("pass %T has empty name or doc", p)
		}
		if seen[p.Name()] {
			t.Errorf("duplicate pass name %q", p.Name())
		}
		seen[p.Name()] = true
	}
	for _, name := range []string{"determinism", "droppederr", "decoratorcomplete", "hotpath"} {
		if !seen[name] {
			t.Errorf("pass %q missing from Passes()", name)
		}
	}
}

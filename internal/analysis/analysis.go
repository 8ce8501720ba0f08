// Package analysis implements mlight-lint, a multi-pass static analyzer
// that machine-checks the repository's correctness conventions — the
// invariants the compiler cannot see but every PR so far has had to audit
// by hand:
//
//   - determinism: no wall-clock reads, global (unseeded) math/rand use,
//     or hash/maphash hashing (whose seeds are per-process and cannot be
//     pinned — internal/hashseed is the sanctioned substitute) outside the
//     experiment/driver packages, so simulations replay identically for a
//     given seed (pass "determinism");
//   - no silently dropped RPC or DHT errors — the class of bug behind the
//     silent replica loss fixed in the fault-tolerance PR
//     (pass "droppederr");
//   - every DHT decorator forwards the optional capability interfaces
//     (Batcher, BatchWriter, SpanGetter) its inner substrate may have, so
//     wrapping never silently disables batching or trace attribution
//     (pass "decoratorcomplete");
//   - functions marked //lint:hotpath stay allocation-free under the
//     compiler's escape analysis, making the scale PR's zero-alloc claims
//     a compile-time gate (pass "hotpath").
//
// Goroutine leaks and lock misuse are left to the run-time checks:
// dhttest.VerifyNoLeaks in every package that spawns goroutines, and the
// race detector. The analyzer is built purely on the standard library's
// go/ast, go/parser, go/types, and go/importer (no golang.org/x/tools
// dependency), honoring the repository's stdlib-only rule. It runs as
// `go run ./cmd/mlight-lint ./...` and exits nonzero on findings.
//
// # Suppression
//
// A finding is suppressed by a directive comment
//
//	//lint:allow <pass> <reason>
//
// placed on the flagged line or on the line immediately above it (the last
// line of a declaration's doc comment works). The reason is mandatory: a
// directive without one is itself reported, as is a directive that
// suppresses nothing or names a pass the analyzer does not have, so the
// suppression inventory stays honest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Package is one typechecked package under analysis.
type Package struct {
	Path  string // import path ("<path>_test" for external test packages)
	Dir   string // directory holding the source files
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Diagnostic is one finding, positioned at the offending syntax node.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Pass    string         `json:"pass"`
	Message string         `json:"message"`
}

// String renders the canonical "file:line:col: [pass] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Pass, d.Message)
}

// Pass is one invariant checker.
type Pass interface {
	// Name is the identifier used in diagnostics and allow directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run reports every violation in pkg. Suppression is applied by the
	// driver, not the pass.
	Run(pkg *Package) []Diagnostic
}

// DefaultDeterminismAllow exempts the experiment drivers and the command
// mains — the only places wall time and convenience randomness are part of
// the job (measuring real elapsed time, driving a cluster interactively).
var DefaultDeterminismAllow = []string{"internal/experiments", "cmd"}

// DefaultDroppedErrCalls are the operations whose errors the repository has
// been burned by dropping: transport RPCs (Call/Send and the kademlia
// overlay's deadline wrapper timedCall), transport lifecycle (a dropped
// Close error hides a leaked listener or an unflushed connection), the DHT
// substrate interface, the batch planes, the retry executor, and the
// durability plane (a dropped WAL Append, Sync, or journal Record error
// silently voids the crash-recovery guarantee; a dropped Restore error
// silently boots from an empty store).
var DefaultDroppedErrCalls = []string{
	"Call", "Send", "timedCall", "Close",
	"Put", "Get", "Remove", "Apply", "Owner",
	"PutBatch", "ApplyBatch", "GetBatch",
	"Do", "DoTraced",
	"Append", "Sync", "Restore", "Record",
}

// DefaultDecoratorPackages are the packages holding DHT decorators: the
// dht package itself, its test-double kit, and the byte-codec adapter.
var DefaultDecoratorPackages = []string{"dht", "dhttest", "wire"}

// pathMatches reports whether the import path matches the fragment: the
// fragment equals the path, one of its path segments' prefixes, or a suffix
// of it — "cmd" matches both "mlight/cmd/mlight-bench" and "cmd/x".
func pathMatches(path, frag string) bool {
	return path == frag ||
		strings.HasPrefix(path, frag+"/") ||
		strings.HasSuffix(path, "/"+frag) ||
		strings.Contains(path, "/"+frag+"/")
}

// Passes returns the full pass set in reporting order.
func Passes() []Pass {
	return []Pass{
		determinismPass{}, droppedErrPass{}, decoratorCompletePass{}, hotPathPass{},
	}
}

// AllowName is the pseudo-pass under which directive hygiene problems
// (missing reasons, suppressions that suppress nothing, unknown passes)
// are reported.
const AllowName = "allow"

var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_]+)(?:\s+(.*))?$`)

// directive is one parsed //lint:allow comment.
type directive struct {
	pos    token.Position
	pass   string
	reason string
	used   bool
}

// collectDirectives parses every //lint:allow directive in pkg.
func collectDirectives(pkg *Package) []*directive {
	var ds []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				ds = append(ds, &directive{
					pos:    pkg.Fset.Position(c.Pos()),
					pass:   m[1],
					reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return ds
}

// Run executes the given passes over pkg, applies //lint:allow suppression,
// and reports directive-hygiene problems. A directive naming a pass that
// exists but was not selected is left alone — it cannot be judged unused —
// while one naming no pass at all is reported whatever was selected.
// Diagnostics come back sorted by position.
func Run(pkg *Package, passes []Pass) []Diagnostic {
	ds := collectDirectives(pkg)
	known := map[string]bool{AllowName: true}
	for _, p := range Passes() {
		known[p.Name()] = true
	}
	selected := map[string]bool{AllowName: true}
	var out []Diagnostic
	for _, p := range passes {
		selected[p.Name()] = true
		for _, diag := range p.Run(pkg) {
			if d := matchDirective(ds, diag); d != nil {
				d.used = true
				continue
			}
			out = append(out, diag)
		}
	}
	for _, d := range ds {
		switch {
		case !known[d.pass]:
			out = append(out, diagAt(d.pos, AllowName,
				fmt.Sprintf("unknown pass %q", d.pass)))
		case !selected[d.pass]:
			// A pass that did not run cannot judge its waivers.
		case d.reason == "":
			out = append(out, diagAt(d.pos, AllowName,
				fmt.Sprintf("allow directive for %q is missing a reason", d.pass)))
		case !d.used:
			out = append(out, diagAt(d.pos, AllowName,
				fmt.Sprintf("allow directive for %q suppresses nothing", d.pass)))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Pass < b.Pass
	})
	return out
}

// matchDirective finds a directive covering diag: same pass, same file, on
// the diagnosed line or the line immediately above it. Directives without a
// reason never suppress, so a reason cannot be omitted accidentally.
func matchDirective(ds []*directive, diag Diagnostic) *directive {
	for _, d := range ds {
		if d.pass != diag.Pass || d.reason == "" || d.pos.Filename != diag.File {
			continue
		}
		if d.pos.Line == diag.Line || d.pos.Line == diag.Line-1 {
			return d
		}
	}
	return nil
}

func diagAt(pos token.Position, pass, msg string) Diagnostic {
	return Diagnostic{
		Pos:     pos,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Pass:    pass,
		Message: msg,
	}
}

func (p *Package) diag(pos token.Pos, pass, format string, args ...any) Diagnostic {
	return diagAt(p.Fset.Position(pos), pass, fmt.Sprintf(format, args...))
}

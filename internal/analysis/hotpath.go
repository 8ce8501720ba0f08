package analysis

import (
	"go/ast"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// The hotpath pass turns the repository's zero-allocation guarantees from
// benchmark assertions into a compile-time gate. A function whose doc
// comment carries the marker line
//
//	//lint:hotpath
//
// is verified allocation-free by running the compiler's own escape
// analysis — `go build -gcflags=-m` in the package directory — and
// cross-referencing every "escapes to heap"/"moved to heap" diagnostic
// against the marked functions' line ranges. An escape inside a marked
// function is a finding at the escaping expression's position, so a cold
// error path (the fmt.Errorf in a fast path's failure arm) is waived
// exactly where it allocates with `//lint:allow hotpath <reason>`.
//
// What the gate does and does not see: escape analysis reports every value
// the compiler moves to the heap, which covers the composite-literal,
// closure-capture, and interface-boxing regressions that silently void a
// zero-alloc claim. It does not model append growth beyond capacity or
// runtime-internal allocations (map growth, channel buffers), so the
// dynamic testing.AllocsPerRun gates in internal/experiments remain the
// complementary check: this pass pins the steady-state alloc-free shape at
// compile time, the benchmarks pin the amortized behavior at run time.
//
// The pass skips test files and test-variant packages (the compiler run
// covers the package proper); a marker in a test file or on anything but a
// function declaration is a hygiene finding. Packages with no markers cost
// nothing — the compiler only runs when there is something to verify.
type hotPathPass struct{}

func (hotPathPass) Name() string { return "hotpath" }
func (hotPathPass) Doc() string {
	return "functions marked //lint:hotpath must be allocation-free under compiler escape analysis"
}

// hotpathMarker matches the marker line inside a doc comment.
var hotpathMarker = regexp.MustCompile(`^//\s*lint:hotpath\s*$`)

// escapeLine parses one -gcflags=-m diagnostic.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// hotMark is one marked function.
type hotMark struct {
	name      string
	fsetFile  string // file name as the FileSet knows it (for waiver matching)
	absFile   string // absolute path (for compiler-output matching)
	startLine int
	endLine   int
}

func (h hotPathPass) Run(pkg *Package) []Diagnostic {
	if strings.HasSuffix(pkg.Path, "_test") || strings.HasSuffix(pkg.Path, ".test") {
		return nil
	}
	var out []Diagnostic
	var marks []*hotMark
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		isTestFile := strings.HasSuffix(fname, "_test.go")
		// Doc-comment markers on function declarations are the real marks;
		// any other marker placement is a hygiene problem.
		docs := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				docs[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			var marker *ast.Comment
			for _, c := range cg.List {
				if hotpathMarker.MatchString(c.Text) {
					marker = c
					break
				}
			}
			if marker == nil {
				continue
			}
			fd := docs[cg]
			switch {
			case fd == nil:
				out = append(out, pkg.diag(marker.Pos(), h.Name(),
					"//lint:hotpath marker must be the doc comment of a function declaration"))
			case isTestFile:
				out = append(out, pkg.diag(marker.Pos(), h.Name(),
					"//lint:hotpath marker in test file has no effect: escape analysis runs on the package proper"))
			case fd.Body == nil:
				out = append(out, pkg.diag(marker.Pos(), h.Name(),
					"//lint:hotpath marker on bodyless declaration %s cannot be verified", fd.Name.Name))
			default:
				abs, err := filepath.Abs(fname)
				if err != nil {
					abs = fname
				}
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = recvTypeName(fd.Recv.List[0].Type) + "." + name
				}
				marks = append(marks, &hotMark{
					name:      name,
					fsetFile:  fname,
					absFile:   abs,
					startLine: pkg.Fset.Position(fd.Pos()).Line,
					endLine:   pkg.Fset.Position(fd.End()).Line,
				})
			}
		}
	}
	if len(marks) == 0 {
		return out
	}
	out = append(out, h.verify(pkg, marks)...)
	return out
}

func recvTypeName(t ast.Expr) string {
	switch e := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	}
	return "?"
}

// verify runs the compiler's escape analysis over the package directory
// and maps its heap-move diagnostics into the marked functions.
func (h hotPathPass) verify(pkg *Package, marks []*hotMark) []Diagnostic {
	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = pkg.Dir
	raw, err := cmd.CombinedOutput()
	if err != nil {
		// The compiler did not get to escape analysis (broken package,
		// missing go.mod). Attribute the failure to the first mark.
		first := marks[0]
		msg := strings.TrimSpace(string(raw))
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i]
		}
		return []Diagnostic{{
			File: first.fsetFile,
			Line: first.startLine,
			Col:  1,
			Pass: h.Name(),
			Message: "cannot verify //lint:hotpath marks: go build -gcflags=-m failed: " +
				msg,
		}}
	}
	var out []Diagnostic
	for _, line := range strings.Split(string(raw), "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, mk := range marks {
			if !sameFile(m[1], mk.absFile) || lineNo < mk.startLine || lineNo > mk.endLine {
				continue
			}
			out = append(out, Diagnostic{
				File:    mk.fsetFile,
				Line:    lineNo,
				Col:     col,
				Pass:    h.Name(),
				Message: "allocation in hotpath function " + mk.name + ": " + msg,
			})
			break
		}
	}
	return out
}

// sameFile reports whether name, a file as the compiler's -m output gives
// it, is the file at the absolute path abs. The build cache replays that
// output as it was first written, relative to the directory the package was
// first compiled from — the package directory, the module root, anywhere —
// so a relative name is matched against the end of abs, not joined to the
// package directory.
func sameFile(name, abs string) bool {
	if filepath.IsAbs(name) {
		return filepath.Clean(name) == abs
	}
	rel := filepath.Clean(name)
	for up := ".." + string(filepath.Separator); strings.HasPrefix(rel, up); {
		rel = rel[len(up):]
	}
	return abs == rel || strings.HasSuffix(abs, string(filepath.Separator)+rel)
}

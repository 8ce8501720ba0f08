package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The lockorder pass builds the per-package mutex-acquisition graph from
// structural Lock/Unlock detection and reports the hazards the race
// detector only catches when the schedule cooperates:
//
//   - acquisition cycles: lock class B taken while A is held in one
//     function, A taken while B is held in another — the classic ABBA
//     deadlock, detected across the whole package even though each
//     function is analyzed intraprocedurally;
//   - nested acquisition of one class: for a plain Mutex a self-deadlock
//     (Go mutexes are not reentrant); for a striped class (a lock reached
//     through an index expression, like the 256-way shard arrays in simnet
//     and dht.Local) a reminder that shards must be acquired in
//     ascending shard-index order — the only discipline that makes
//     multi-shard holds safe, and one the analysis cannot verify from
//     syntax, so every such site must carry a waiver citing the ordering
//     argument;
//   - blocking while holding: an RPC (Call/timedCall/Send) or a channel
//     operation executed with a lock must-held on every path — the shape
//     that turns one slow peer into a pile-up behind a stuck mutex.
//
// Lock identity is a class, not an instance: field locks collapse to
// "Type.field" (every tcpPeer.mu is one class), named variables to the
// variable object. Classes over-approximate instances, which is the safe
// direction for ordering (a false cycle is waivable; a missed one is a
// deadlock).
//
// The dataflow runs on the shared CFG with two facts per block — may-held
// (union join) feeds the acquisition graph so no edge is missed, and
// must-held (intersection join) gates the held-across findings so a lock
// released on one branch does not generate a false positive. Deferred
// unlocks do not release during the body: the lock genuinely is held at
// every statement after `defer mu.Unlock()`, which is exactly what the
// held-across findings must see. Function literals are separate analysis
// scopes (their bodies run on nobody's schedule in particular), and `go`
// and `defer` subtrees are skipped during transfer.
type lockOrderPass struct{}

func (lockOrderPass) Name() string { return "lockorder" }
func (lockOrderPass) Doc() string {
	return "mutex acquisition cycles, nested striped-shard locks, and locks held across RPCs/channel ops"
}

// lockBlockingCalls are the method names treated as blocking RPCs for the
// held-across findings: the transport plane's Call/Send and the kademlia
// overlay's deadline wrapper.
var lockBlockingCalls = map[string]bool{"Call": true, "timedCall": true, "Send": true}

// lockClass identifies one lock for ordering purposes.
type lockClass struct {
	id      string // identity key (position-qualified for locals)
	display string // message rendering
	striped bool   // reached through an index expression (shard arrays)
}

// lockEdge is one acquisition-graph edge: to was acquired while from held.
type lockEdge struct {
	pos      token.Pos
	from, to *lockClass
}

func (lockOrderPass) Run(pkg *Package, cfg *Config) []Diagnostic {
	a := &lockOrderAnalysis{
		pkg:   pkg,
		edges: map[string]map[string]*lockEdge{},
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					a.analyzeFunc(fn.Body)
				}
			case *ast.FuncLit:
				// Each literal is its own analysis scope; the walk continues
				// so literals nested inside it get their own too (transfer
				// never descends into them, so nothing is double-counted).
				a.analyzeFunc(fn.Body)
			}
			return true
		})
	}
	a.reportCycles()
	sort.Slice(a.out, func(i, j int) bool { return a.out[i].Pos.Offset < a.out[j].Pos.Offset })
	return a.out
}

type lockOrderAnalysis struct {
	pkg   *Package
	edges map[string]map[string]*lockEdge // from id → to id → first edge
	out   []Diagnostic
}

func (a *lockOrderAnalysis) report(pos token.Pos, format string, args ...any) {
	a.out = append(a.out, a.pkg.diag(pos, "lockorder", format, args...))
}

// lockFacts carries both dataflow facts for one program point.
type lockFacts struct {
	may  map[string]*lockClass
	must map[string]*lockClass
}

func copyClasses(m map[string]*lockClass) map[string]*lockClass {
	out := make(map[string]*lockClass, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// analyzeFunc runs the fixpoint over one function body and emits findings
// with the converged facts. Nested function literals found during the walk
// are analyzed as their own scopes.
func (a *lockOrderAnalysis) analyzeFunc(body *ast.BlockStmt) {
	c := BuildCFG(body)
	preds := make(map[*Block][]*Block)
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	in := make(map[*Block]*lockFacts)
	out := make(map[*Block]*lockFacts)
	in[c.Entry] = &lockFacts{may: map[string]*lockClass{}, must: map[string]*lockClass{}}

	changed := true
	for changed {
		changed = false
		for _, b := range c.Blocks {
			if !b.Reachable() {
				continue
			}
			if b != c.Entry {
				joined := joinFacts(preds[b], out)
				if joined == nil {
					continue // no predecessor facts yet
				}
				in[b] = joined
			}
			f := &lockFacts{may: copyClasses(in[b].may), must: copyClasses(in[b].must)}
			for _, n := range b.Nodes {
				a.transfer(n, f, nil)
			}
			if !factsEqual(out[b], f) {
				out[b] = f
				changed = true
			}
		}
	}

	// Emit pass: replay each block's transfer with the converged entry
	// facts, this time reporting.
	for _, b := range c.Blocks {
		if !b.Reachable() || in[b] == nil {
			continue
		}
		f := &lockFacts{may: copyClasses(in[b].may), must: copyClasses(in[b].must)}
		for _, n := range b.Nodes {
			a.transfer(n, f, a.emit)
		}
	}
}

// joinFacts merges predecessor out-facts: union for may, intersection for
// must. Predecessors not yet computed are skipped (loop back edges on the
// first sweep); nil when none are available.
func joinFacts(preds []*Block, out map[*Block]*lockFacts) *lockFacts {
	var f *lockFacts
	for _, p := range preds {
		po := out[p]
		if po == nil {
			continue
		}
		if f == nil {
			f = &lockFacts{may: copyClasses(po.may), must: copyClasses(po.must)}
			continue
		}
		for id, c := range po.may {
			f.may[id] = c
		}
		for id := range f.must {
			if _, ok := po.must[id]; !ok {
				delete(f.must, id)
			}
		}
	}
	return f
}

func factsEqual(a, b *lockFacts) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameKeys(a.may, b.may) && sameKeys(a.must, b.must)
}

func sameKeys(x, y map[string]*lockClass) bool {
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if _, ok := y[k]; !ok {
			return false
		}
	}
	return true
}

// lockEvent is one emit-pass callback: kind is "acquire", "rpc", or a
// channel-op description.
type lockEvent struct {
	kind  string
	pos   token.Pos
	class *lockClass // acquire only
	what  string     // rpc/chanop rendering
}

// transfer walks one CFG node in syntactic order, updating facts and (when
// emit is non-nil) reporting events. go/defer statements and nested
// function literals are opaque: their bodies run on another goroutine or
// at return, not at this program point.
func (a *lockOrderAnalysis) transfer(n ast.Node, f *lockFacts, emit func(*lockFacts, lockEvent)) {
	var walk func(ast.Node) bool
	walk = func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if c := a.classOf(sel.X); c != nil {
					if emit != nil {
						emit(f, lockEvent{kind: "acquire", pos: st.Pos(), class: c})
					}
					f.may[c.id] = c
					f.must[c.id] = c
					return false
				}
			case "Unlock", "RUnlock":
				if c := a.classOf(sel.X); c != nil {
					delete(f.may, c.id)
					delete(f.must, c.id)
					return false
				}
			default:
				if lockBlockingCalls[sel.Sel.Name] && emit != nil {
					emit(f, lockEvent{kind: "rpc", pos: st.Pos(), what: sel.Sel.Name})
				}
			}
			return true
		case *ast.SendStmt:
			if emit != nil {
				emit(f, lockEvent{kind: "chanop", pos: st.Pos(), what: "channel send"})
			}
			return true
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && emit != nil {
				emit(f, lockEvent{kind: "chanop", pos: st.Pos(), what: "channel receive"})
			}
			return true
		}
		return true
	}
	ast.Inspect(n, walk)
}

// emit converts one transfer event into acquisition-graph edges and
// held-across findings.
func (a *lockOrderAnalysis) emit(f *lockFacts, e lockEvent) {
	switch e.kind {
	case "acquire":
		for _, held := range sortedClasses(f.may) {
			if held.id == e.class.id {
				if e.class.striped {
					a.report(e.pos, "nested acquisition of striped lock class %s: shards must be locked in ascending index order",
						e.class.display)
				} else {
					a.report(e.pos, "nested acquisition of lock class %s: possible self-deadlock (Go mutexes are not reentrant)",
						e.class.display)
				}
				continue
			}
			tos := a.edges[held.id]
			if tos == nil {
				tos = map[string]*lockEdge{}
				a.edges[held.id] = tos
			}
			if tos[e.class.id] == nil {
				tos[e.class.id] = &lockEdge{pos: e.pos, from: held, to: e.class}
			}
		}
	case "rpc":
		for _, held := range sortedClasses(f.must) {
			a.report(e.pos, "lock %s held across blocking call %s", held.display, e.what)
		}
	case "chanop":
		for _, held := range sortedClasses(f.must) {
			a.report(e.pos, "lock %s held across %s", held.display, e.what)
		}
	}
}

func sortedClasses(m map[string]*lockClass) []*lockClass {
	out := make([]*lockClass, 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// classOf resolves the expression a Lock method is called on to a lock
// class, or nil when it is not a mutex-shaped type.
func (a *lockOrderAnalysis) classOf(x ast.Expr) *lockClass {
	x = ast.Unparen(x)
	t := exprType(a.pkg, x)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if !isLockType(t) {
		return nil
	}
	switch e := x.(type) {
	case *ast.Ident:
		obj := a.pkg.Info.Uses[e]
		if obj == nil {
			obj = a.pkg.Info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		if obj.Parent() == a.pkg.Types.Scope() {
			return &lockClass{id: "pkg." + obj.Name(), display: obj.Name()}
		}
		return &lockClass{
			id:      fmt.Sprintf("%s@%d", obj.Name(), obj.Pos()),
			display: obj.Name(),
		}
	case *ast.SelectorExpr:
		recv := exprType(a.pkg, e.X)
		name := namedTypeName(recv)
		striped := containsIndexExpr(e.X)
		display := name + "." + e.Sel.Name
		if striped {
			display += "[*]"
		}
		return &lockClass{id: display, display: display, striped: striped}
	case *ast.IndexExpr:
		// A bare indexed mutex: mus[i].Lock() on []sync.Mutex.
		base := types.ExprString(e.X) + "[*]"
		return &lockClass{id: base, display: base, striped: true}
	}
	display := types.ExprString(x)
	return &lockClass{id: display, display: display}
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(interface{ Obj() *types.TypeName }); ok {
		return n.Obj().Name()
	}
	s := t.String()
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

func containsIndexExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IndexExpr:
			found = true
		case *ast.CallExpr, *ast.FuncLit:
			return false
		}
		return !found
	})
	return found
}

// reportCycles finds acquisition-order cycles in the package-wide graph
// and reports each once, at the edge that closes it.
func (a *lockOrderAnalysis) reportCycles() {
	seen := map[string]bool{}
	froms := make([]string, 0, len(a.edges))
	for from := range a.edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		tos := make([]string, 0, len(a.edges[from]))
		for to := range a.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			e := a.edges[from][to]
			path := a.findPath(to, from)
			if path == nil {
				continue
			}
			// Canonical cycle key: the sorted participant set. The path is
			// inclusive of both endpoints and ends back at `from`, so drop
			// that repeat — otherwise the same cycle walked from its other
			// edge gets a different key and is reported twice.
			members := append([]string{from}, path[:len(path)-1]...)
			sort.Strings(members)
			key := strings.Join(members, "|")
			if seen[key] {
				continue
			}
			seen[key] = true
			names := []string{e.from.display, e.to.display}
			for _, id := range path[1:] {
				names = append(names, a.displayOf(id))
			}
			a.report(e.pos, "lock acquisition cycle: %s", strings.Join(names, " → "))
		}
	}
}

// findPath returns the node sequence from src to dst (inclusive of both)
// following acquisition edges, or nil.
func (a *lockOrderAnalysis) findPath(src, dst string) []string {
	seen := map[string]bool{}
	var dfs func(string) []string
	dfs = func(n string) []string {
		if n == dst {
			return []string{n}
		}
		if seen[n] {
			return nil
		}
		seen[n] = true
		tos := make([]string, 0, len(a.edges[n]))
		for to := range a.edges[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if rest := dfs(to); rest != nil {
				return append([]string{n}, rest...)
			}
		}
		return nil
	}
	return dfs(src)
}

func (a *lockOrderAnalysis) displayOf(id string) string {
	for _, tos := range a.edges {
		for _, e := range tos {
			if e.from.id == id {
				return e.from.display
			}
			if e.to.id == id {
				return e.to.display
			}
		}
	}
	return id
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// decoratorCompletePass enforces complete decorator pass-through: every
// struct in a decorator package (Config.DecoratorPackages — the dht
// package, its dhttest kit, and the wire adapter) that wraps a DHT
// substrate field must also implement each optional capability interface
// declared alongside that substrate interface — Batcher, BatchWriter,
// SpanGetter, and Doer — or carry an allow directive.
//
// Why: capability discovery is by type assertion (`d.(dht.Batcher)`), so a
// decorator that forgets one method silently downgrades the whole stack —
// batched round-trips degrade to per-key calls, trace spans detach, an op
// that would have travelled as one small RPC becomes a read-modify-write of
// the whole bucket — with no compile error and no test failure in the
// decorator itself. Every PR
// so far has hand-audited this matrix; the pass makes it mechanical.
//
// The check is go/types-driven: a "substrate field" is a field whose type
// is a named interface containing Put, Get, and Remove; the capability
// interfaces are looked up by name in that interface's declaring package,
// so the pass works for the real dht package and the golden-test stand-ins
// alike. Types declared in _test.go files are skipped — test doubles
// legitimately implement the minimal surface (and dhttest.Flaky, a
// non-test type that deliberately narrows the stack, carries the allow
// directive this pass demands).
type decoratorCompletePass struct{}

func (decoratorCompletePass) Name() string { return "decoratorcomplete" }

func (decoratorCompletePass) Doc() string {
	return "flag DHT decorators that do not forward the optional capability interfaces"
}

// capabilityNames are the optional interfaces a decorator must forward.
var capabilityNames = []string{"Batcher", "BatchWriter", "SpanGetter", "Doer"}

// substrateMethods identify a DHT substrate interface structurally.
var substrateMethods = []string{"Put", "Get", "Remove"}

func (decoratorCompletePass) Run(pkg *Package, cfg *Config) []Diagnostic {
	inScope := false
	for _, seg := range cfg.decoratorPackages() {
		base := pkg.Path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		if base == seg {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				out = append(out, checkDecorator(pkg, ts, obj)...)
			}
		}
	}
	return out
}

func checkDecorator(pkg *Package, ts *ast.TypeSpec, obj *types.TypeName) []Diagnostic {
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	contract := substratePackage(st)
	if contract == nil {
		return nil
	}
	var out []Diagnostic
	wrapper := obj.Type()
	ptr := types.NewPointer(wrapper)
	for _, name := range capabilityNames {
		capObj, ok := contract.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := capObj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if types.Implements(wrapper, iface) || types.Implements(ptr, iface) {
			continue
		}
		out = append(out, pkg.diag(ts.Pos(), "decoratorcomplete",
			"%s wraps a %s.DHT substrate but does not implement %s.%s; forward it to the inner substrate or //lint:allow decoratorcomplete <reason>",
			obj.Name(), contract.Name(), contract.Name(), name))
	}
	return out
}

// substratePackage returns the package declaring the DHT substrate
// interface wrapped by a field of st, or nil if st wraps none.
func substratePackage(st *types.Struct) *types.Package {
	for i := 0; i < st.NumFields(); i++ {
		named, ok := st.Field(i).Type().(*types.Named)
		if !ok {
			if alias, ok2 := st.Field(i).Type().(*types.Alias); ok2 {
				named, ok = types.Unalias(alias).(*types.Named)
			}
			if !ok {
				continue
			}
		}
		iface, ok := named.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if isSubstrate(iface) && named.Obj().Pkg() != nil {
			return named.Obj().Pkg()
		}
	}
	return nil
}

func isSubstrate(iface *types.Interface) bool {
	for _, m := range substrateMethods {
		found := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

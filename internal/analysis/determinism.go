package analysis

import (
	"go/ast"
	"go/types"
)

// determinismPass flags the three ways nondeterminism leaks into
// simulation code: reading the wall clock (time.Now / time.Since /
// time.Until), drawing from math/rand's global, process-seeded source
// (rand.Intn, rand.Float64, rand.Shuffle, …), and hashing through
// hash/maphash, whose seeds cannot be fixed across processes (maphash.Seed
// is opaque and only obtainable from the random MakeSeed, so every run
// hashes differently). All three make a run unreproducible: logical
// clocks, injected seeded *rand.Rand values, and internal/hashseed's
// fixed-seed FNV/Fmix helpers are the sanctioned substitutes, so
// seq/concurrent equivalence tests and the experiment tables replay
// bit-identically for a given seed.
//
// Constructing an explicitly seeded generator — rand.New(rand.NewSource(
// seed)) — is the approved pattern and is not flagged. Packages whose job
// is wall-clock measurement (internal/experiments) or interactive driving
// (cmd/*) are exempt via DefaultDeterminismAllow; the maphash
// check additionally skips internal/hashseed itself, the one place allowed
// to wrap process-seeded hashing if it ever chooses to.
type determinismPass struct{}

func (determinismPass) Name() string { return "determinism" }

func (determinismPass) Doc() string {
	return "flag wall-clock reads, global math/rand use, and hash/maphash outside experiment/driver packages"
}

// wallClockFuncs are the package time functions that read the wall clock.
// Timer construction (NewTicker, After) is deliberately out of scope: the
// repository's only timers live in explicitly wall-clock components.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededConstructors are the math/rand entry points that build an explicit
// generator from a caller-supplied seed or source; everything else at
// package level draws from the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, // math/rand
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 sources
}

func (determinismPass) Run(pkg *Package) []Diagnostic {
	for _, frag := range DefaultDeterminismAllow {
		if pathMatches(pkg.Path, frag) {
			return nil
		}
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
					out = append(out, pkg.diag(call.Pos(), "determinism",
						"wall-clock read time.%s breaks replayability; use the logical clock or inject the timestamp (or //lint:allow determinism <reason>)",
						fn.Name()))
				}
			case "hash/maphash":
				if pathMatches(pkg.Path, "internal/hashseed") {
					return true
				}
				name := "maphash." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = "maphash.Hash." + fn.Name()
				}
				out = append(out, pkg.diag(call.Pos(), "determinism",
					"%s hashes with a per-process random seed and breaks replayability; use mlight/internal/hashseed for stable seeded hashing",
					name))
			case "math/rand", "math/rand/v2":
				if fn.Type().(*types.Signature).Recv() != nil {
					return true // methods on an explicit *rand.Rand are fine
				}
				if seededConstructors[fn.Name()] {
					return true
				}
				out = append(out, pkg.diag(call.Pos(), "determinism",
					"global rand.%s draws from a process-wide source; inject a seeded *rand.Rand (rand.New(rand.NewSource(seed))) instead",
					fn.Name()))
			}
			return true
		})
	}
	return out
}

// calleeFunc resolves the called function or method, looking through
// parentheses and selector expressions. It returns nil for calls whose
// callee is not a named function (conversions, function-typed variables).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

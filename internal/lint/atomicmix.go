package lint

import (
	"go/ast"
	"go/types"
)

// AtomicMix bans the sync/atomic package-level helpers (atomic.AddInt64
// &c.). A variable they reach is plain everywhere else, so one forgotten
// plain access races with every atomic one, and -race only notices when a
// run interleaves them. The typed atomics (atomic.Int64 &c.) make that
// mixed access unrepresentable, so they are the only sanctioned form.
var AtomicMix = &Analyzer{
	Name: "atomic-mix",
	Doc:  "use the typed sync/atomic values, never the package-level helpers",
	Run:  runAtomicMix,
}

func runAtomicMix(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				out = append(out, p.findingf("atomic-mix", call.Pos(),
					"atomic.%s: use a typed atomic (atomic.Int64, atomic.Pointer, ...) so no plain access to the variable can exist", fn.Name()))
			}
			return true
		})
	}
	return out
}

package lint

import (
	"go/ast"
	"go/types"
)

// RequestLeak enforces the nonblocking-communication protocol's first
// obligation (paper §IV, PAPERS.md Sala et al. §3): every request a
// rank posts must eventually be completed — Wait/Test/Free — or handed
// to something that will complete it. A forgotten request pins its
// buffer and a matching slot forever; with the runtime's pooled
// requests it also starves the free-list. Three shapes are reported:
//
//  1. A post whose result is discarded outright (`c.Isend(buf, d, t)`
//     as a statement): nobody can ever complete it. A fire-and-forget
//     message says so with SendDetached, whose request the runtime owns.
//  2. A post stored in a local that, on *some* path to return, is
//     neither completed nor escapes (backward may-analysis over the
//     CFG). `defer r.Wait()` counts as completion at the registration
//     point — registration guarantees the call on every exit.
//  3. A post (or tracked local) passed to an in-module function whose
//     parameter provably ignores it — the call-graph summary knows the
//     callee drops the request on the floor, so the pass is not an
//     escape.
//
// Escapes are conservative: storing into a field/slice/map, returning,
// sending on a channel, capture by a closure, or passing to any
// function without a drop summary all end tracking (someone else owns
// completion now).
var RequestLeak = &Analyzer{
	Name:      "request-leak",
	Doc:       "a posted nonblocking request must reach Wait/Test/Free (or escape) on every path",
	RunModule: runRequestLeak,
}

// postMethodNames are the nonblocking posts: methods returning a
// *Request the caller must complete.
var postMethodNames = map[string]bool{
	"Isend": true, "Irecv": true, "IrecvAdopt": true, "IrecvBytes": true,
	"Ibarrier": true, "Ibcast": true, "Iallreduce": true,
}

// completeMethodNames complete (or take over) a posted request. DDF is
// here because handing a request's DDF to an await transfers completion
// to the enclosing finish scope (the paper's Fig. 3 idiom).
var completeMethodNames = map[string]bool{
	"Wait": true, "WaitErr": true, "WaitTimeout": true, "WaitStatus": true,
	"Test": true, "TestStatus": true, "Free": true, "Cancel": true, "Done": true,
	"DDF": true,
}

// isRequestType reports whether t is (a pointer to) a named type
// called Request — matched by name so fixture packages and the three
// in-module request families (mpi, hcmpi, sim) all qualify.
func isRequestType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "Request"
}

// postCallOf resolves call to a nonblocking post: a method named like
// a post whose single result is a request.
func postCallOf(p *Package, call *ast.CallExpr) (*types.Func, bool) {
	fn := calleeFunc(p, call)
	if fn == nil {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	if !postMethodNames[fn.Name()] {
		// Get (the one-sided read) is too common a name to match on any
		// receiver but a Win.
		recv := namedOf(sig.Recv().Type())
		if fn.Name() != "Get" || recv == nil || recv.Obj().Name() != "Win" {
			return nil, false
		}
	}
	if sig.Results().Len() != 1 || !isRequestType(sig.Results().At(0).Type()) {
		return nil, false
	}
	return fn, true
}

// parentsOf indexes each node's syntactic parent within root.
func parentsOf(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingStmtParent climbs out of parentheses.
func unparenParent(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = parents[pe]
			continue
		}
		return p
	}
}

func runRequestLeak(pkgs []*Package) []Finding {
	g, _ := factsFor(pkgs)
	drops := dropParams(g)
	var out []Finding
	for _, n := range g.SortedNodes() {
		if n.Body != nil {
			out = append(out, leakScanBody(n, drops)...)
		}
	}
	return dedupe(out)
}

// dropParams computes, over the whole call graph, the request-typed
// parameters that provably ignore their request: no uses at all, uses
// only as `_ = r`, or uses only as arguments to other dropping
// parameters (greatest fixpoint, so mutually-recursive droppers stay
// droppers). Passing a request to such a parameter does not count as
// an escape.
func dropParams(g *CallGraph) map[*types.Var]bool {
	type candidate struct {
		used bool
		deps []*types.Var
	}
	cands := map[*types.Var]*candidate{}
	for _, n := range g.Nodes {
		if n.Fn == nil || n.Decl == nil {
			continue
		}
		sig := n.Fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			v := sig.Params().At(i)
			t := v.Type()
			if s, ok := t.Underlying().(*types.Slice); ok {
				t = s.Elem()
			}
			if isRequestType(t) {
				cands[v] = &candidate{}
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		p := n.Pkg
		parents := parentsOf(n.Body)
		ast.Inspect(n.Body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := p.Info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			c, ok := cands[v]
			if !ok {
				return true
			}
			switch parent := unparenParent(parents, id).(type) {
			case *ast.AssignStmt:
				// `_ = r` discards; anything else is a real use.
				if len(parent.Lhs) == 1 && len(parent.Rhs) == 1 {
					if lhs, ok := parent.Lhs[0].(*ast.Ident); ok && lhs.Name == "_" {
						return true
					}
				}
				c.used = true
			case *ast.CallExpr:
				if w, ok := argParamG(p, parent, id); ok {
					if _, isCand := cands[w]; isCand {
						c.deps = append(c.deps, w)
						return true
					}
				}
				c.used = true
			default:
				c.used = true
			}
			return true
		})
	}
	drops := map[*types.Var]bool{}
	for v, c := range cands {
		if !c.used {
			drops[v] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for v, c := range cands {
			if !drops[v] {
				continue
			}
			for _, w := range c.deps {
				if !drops[w] {
					delete(drops, v)
					changed = true
					break
				}
			}
		}
	}
	return drops
}

// leakScanBody analyzes one function body.
func leakScanBody(n *CGNode, drops map[*types.Var]bool) []Finding {
	p := n.Pkg
	parents := parentsOf(n.Body)
	cfg := BuildCFG(n.Body)

	// Pass 1: find every post in this body (nested literals are their
	// own call-graph nodes) and classify its result context.
	type trackedPost struct {
		v    *types.Var
		call *ast.CallExpr
		name string
	}
	var posts []trackedPost
	tracked := map[*types.Var]bool{}
	var out []Finding
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := postCallOf(p, call)
		if !ok {
			return true
		}
		switch parent := unparenParent(parents, call).(type) {
		case *ast.ExprStmt:
			out = append(out, p.findingf("request-leak", call.Pos(),
				"%s result discarded: the posted request can never be completed — Wait/Test it, store it, or use SendDetached for a fire-and-forget send", fn.Name()))
		case *ast.GoStmt:
			if parent.Call == call {
				out = append(out, p.findingf("request-leak", call.Pos(),
					"%s posted under `go`: the request value is discarded and can never be completed", fn.Name()))
			}
		case *ast.SelectorExpr:
			// Chained completion `post().Wait()` is fine; any other
			// selector (method value, field) escapes conservatively.
		case *ast.AssignStmt:
			for i, rhs := range parent.Rhs {
				if ast.Unparen(rhs) != call || i >= len(parent.Lhs) {
					continue
				}
				id, ok := ast.Unparen(parent.Lhs[i]).(*ast.Ident)
				if !ok {
					break // stored into a field/slice: escapes
				}
				if id.Name == "_" {
					out = append(out, p.findingf("request-leak", call.Pos(),
						"%s result assigned to _: the posted request can never be completed", fn.Name()))
					break
				}
				if v := localVarOf(p, id); v != nil {
					posts = append(posts, trackedPost{v: v, call: call, name: fn.Name()})
					tracked[v] = true
				}
			}
		case *ast.ValueSpec:
			for i, val := range parent.Values {
				if ast.Unparen(val) != call || i >= len(parent.Names) {
					continue
				}
				if v := localVarOf(p, parent.Names[i]); v != nil {
					posts = append(posts, trackedPost{v: v, call: call, name: fn.Name()})
					tracked[v] = true
				}
			}
		case *ast.CallExpr:
			if w, ok := argParamG(p, parent, call); ok && drops[w] {
				out = append(out, p.findingf("request-leak", call.Pos(),
					"%s request passed to a function that ignores its request parameter: it is never completed", fn.Name()))
			}
			// Otherwise: the callee owns completion now.
		default:
			// return, send, composite literal, ... — escapes.
		}
		return true
	})

	// Vars captured by a closure are untrackable here: the closure may
	// complete them.
	for _, f := range funcLits(n.Body) {
		ast.Inspect(f.Body, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok && tracked[v] {
					delete(tracked, v)
				}
			}
			return true
		})
	}
	if len(tracked) == 0 {
		return out
	}

	// Pass 2: backward may-analysis. A fact v means "there is a path
	// from here to the exit on which v is never completed". Boundary:
	// past the exit nothing completes anything.
	boundary := emptyFacts()
	for v := range tracked {
		boundary = boundary.With(v)
	}
	transferNode := func(node ast.Node, facts factSet) factSet {
		kills, gens := leakUses(p, parents, node, tracked, drops)
		for _, v := range kills {
			facts = facts.Without(v)
		}
		for _, v := range gens {
			facts = facts.With(v)
		}
		return facts
	}
	transfer := func(b *CFGBlock, in factSet) factSet {
		return foldBlock(b, in, false, transferNode)
	}
	in, _ := solveDF(cfg, dfProblem{forward: false, boundary: boundary, transfer: transfer})

	for _, post := range posts {
		if !tracked[post.v] {
			continue
		}
		node := enclosingCFGNode(cfg, parents, post.call)
		if node == nil {
			continue
		}
		facts, ok := factsAt(cfg, in, node, false, transferNode)
		if !ok {
			continue
		}
		if facts.Has(post.v) {
			out = append(out, p.findingf("request-leak", post.call.Pos(),
				"request %s from %s may leak: a path to return misses Wait/Test/Free and the request does not escape", post.v.Name(), post.name))
		}
	}
	return out
}

// argParamG is argParam without needing the graph: it maps an argument
// of a static call to the callee's parameter variable directly from
// type info.
func argParamG(p *Package, call *ast.CallExpr, arg ast.Expr) (*types.Var, bool) {
	fn := calleeFunc(p, call)
	if fn == nil {
		return nil, false
	}
	idx := -1
	for i, a := range call.Args {
		if ast.Unparen(a) == ast.Unparen(arg) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, false
	}
	sig := origin(fn).Type().(*types.Signature)
	np := sig.Params().Len()
	if np == 0 {
		return nil, false
	}
	if idx >= np-1 && sig.Variadic() {
		return sig.Params().At(np - 1), true
	}
	if idx < np {
		return sig.Params().At(idx), true
	}
	return nil, false
}

// localVarOf resolves id to the local variable it defines or names.
func localVarOf(p *Package, id *ast.Ident) *types.Var {
	if v, ok := p.Info.Defs[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	if v, ok := p.Info.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

// funcLits collects the top-level function literals of a body (nested
// ones belong to their enclosing literal's scan).
func funcLits(body ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.FuncLit); ok {
			out = append(out, f)
			return false
		}
		return true
	})
	return out
}

// enclosingCFGNode climbs from an expression to the node the CFG
// builder appended to a block.
func enclosingCFGNode(cfg *CFG, parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for n != nil {
		if cfg.BlockOf(n) != nil {
			return n
		}
		n = parents[n]
	}
	return nil
}

// leakUses classifies one CFG node's uses of tracked request vars:
// kills (completed or escaped) and gens (rebound, so any pending value
// from above is lost here).
func leakUses(p *Package, parents map[ast.Node]ast.Node, node ast.Node,
	tracked map[*types.Var]bool, drops map[*types.Var]bool) (kills, gens []*types.Var) {
	used := map[*types.Var]bool{}
	assigned := map[*types.Var]bool{}
	ast.Inspect(node, func(inner ast.Node) bool {
		if _, ok := inner.(*ast.FuncLit); ok {
			return false
		}
		id, ok := inner.(*ast.Ident)
		if !ok {
			return true
		}
		v := localVarOf(p, id)
		if v == nil || !tracked[v] {
			return true
		}
		switch parent := unparenParent(parents, id).(type) {
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if ast.Unparen(lhs) == id {
					assigned[v] = true
					return true
				}
			}
			used[v] = true // RHS: aliased or stored — escapes
		case *ast.ValueSpec:
			for _, name := range parent.Names {
				if name == id {
					assigned[v] = true
					return true
				}
			}
			used[v] = true
		case *ast.SelectorExpr:
			if parent.X != id && ast.Unparen(parent.X) != id {
				return true
			}
			gp := unparenParent(parents, parent)
			if call, ok := gp.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == parent {
				if completeMethodNames[parent.Sel.Name] {
					used[v] = true // completed
				}
				// Non-completing method (Payload, ...) is neutral.
				return true
			}
			used[v] = true // method value / field: escapes
		case *ast.CallExpr:
			if w, ok := argParamG(p, parent, id); ok && drops[w] {
				return true // dropped by the callee: still pending
			}
			used[v] = true // callee owns completion (or is opaque)
		case *ast.BinaryExpr:
			// Comparisons (r != nil) neither complete nor escape.
		case *ast.CaseClause:
		default:
			used[v] = true // return, send, &r, composite, ... — escapes
		}
		return true
	})
	for v := range used {
		kills = append(kills, v)
	}
	for v := range assigned {
		if !used[v] {
			gens = append(gens, v)
		}
	}
	return kills, gens
}

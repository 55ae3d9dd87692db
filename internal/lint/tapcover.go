package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// TapCover enforces the "every decision is observable" invariant: each
// coordination decision site must have a flight-recorder tap close enough
// that the decision cannot execute without appearing in the flight log.
// Without this, a new policy (a fresh Tune emitter, a new shed knob) can
// silently bypass the record/replay verification that pins coordination
// behavior.
//
// Decision sites are:
//
//   - composite literals of core.Message with Kind KindTune, KindTrigger,
//     or KindShed (emission of a coordination action);
//   - writes to the actuation state listed in tapDecisionFields (credit
//     weights, breaker state, shed rates, IXP thread/poll provisioning);
//   - writes to any struct field annotated //lint:decision.
//
// A site is covered when the enclosing function, or one of its direct
// same-package callees, calls Record on a *Recorder. Uncovered sites are
// walked up through same-package callers: if every caller path passes
// through a tapping function the site is covered; otherwise the analyzer
// reports at the entry points that can reach the decision untapped.
// Sanctioned untapped sites carry //lint:allow tapcover(reason).
var TapCover = &Analyzer{
	Name: "tapcover",
	Doc: "Reports coordination decision sites (Tune/Trigger/Shed emission, weight, breaker, shed-rate, " +
		"and IXP provisioning writes) that can execute without a flight-recorder tap on the call path.",
	SkipTestFiles: true,
	RunProgram:    runTapCover,
}

// tapDecisionFields is the actuation-state table: writes to these fields
// are coordination decisions. Additions ride along with new subsystems via
// //lint:decision annotations; this table pins the ones the paper's
// coordination loop already actuates.
var tapDecisionFields = map[string]string{
	"repro/internal/xen.Domain.weight":      "credit-weight application",
	"repro/internal/overload.Breaker.state": "breaker transition",
	"repro/internal/overload.Shedder.rate":  "shed-rate change",
	"repro/internal/ixp.FlowQueue.threads":  "queue worker-thread provisioning",
	"repro/internal/ixp.FlowQueue.poll":     "flow poll-interval change",
}

// tapMessageKinds are the core.Message kinds whose emission is a
// coordination decision. Heartbeats and acks are bookkeeping, not decisions.
var tapMessageKinds = map[string]string{
	"KindTune":    "Tune emission",
	"KindTrigger": "Trigger emission",
	"KindShed":    "Shed emission",
}

type tapSite struct {
	pos  token.Pos
	desc string
}

func runTapCover(pass *ProgramPass) error {
	g := pass.Graph

	// //lint:decision-annotated fields join the built-in table.
	fields := make(map[string]string, len(tapDecisionFields))
	for k, v := range tapDecisionFields {
		fields[k] = v
	}
	collectDecisionFields(pass, fields)

	taps := make(map[string]bool)
	nodeTaps := func(name string) bool {
		if v, ok := taps[name]; ok {
			return v
		}
		v := scanTaps(g.Node(name))
		taps[name] = v
		return v
	}
	// covered reports whether fn taps itself or in a direct callee of the
	// same package — close enough that the decision cannot run untapped.
	covered := func(name string) bool {
		n := g.Node(name)
		if n == nil || n.Body() == nil {
			return false
		}
		if nodeTaps(name) {
			return true
		}
		for _, e := range n.Edges {
			c := g.Node(e.Callee)
			if c != nil && c.Pkg == n.Pkg && nodeTaps(e.Callee) {
				return true
			}
		}
		return false
	}

	reported := make(map[string]bool)
	for _, name := range g.Names() {
		n := g.Node(name)
		if n.Body() == nil || n.Pkg == nil {
			continue
		}
		sites := scanDecisionSites(pass, n, fields)
		if len(sites) == 0 || covered(name) {
			continue
		}
		for _, site := range sites {
			if pass.InTestFile(site.pos) || pass.Allowed(site.pos) {
				continue
			}
			walkUncovered(pass, g, nodeTaps, reported, name, site)
		}
	}
	return nil
}

// walkUncovered ascends from the decision-holding function through
// same-package callers, reporting at every entry point whose path down to
// the decision never taps. A function is an entry point when it has no
// non-test same-package callers, or when it is called from another package
// (a cross-package caller can always reach the decision directly, so a
// same-package caller cycle cannot hide it). The direct-callee grace
// applies only at the decision site itself (the recordWeight-helper
// idiom); an ancestor shields a path only by tapping in its own body,
// otherwise an unrelated tap two hops away (e.g. Route's quarantine
// recording) would hide a silent decision below it. Calls from _test.go
// are not escape routes: every exported API has test callers, and a test
// harness reaching a decision does not log it in production runs.
func walkUncovered(pass *ProgramPass, g *CallGraph, tapsSelf func(string) bool, reported map[string]bool, fname string, site tapSite) {
	visited := map[string]bool{}
	var rec func(name string, viaPos token.Pos)
	rec = func(name string, viaPos token.Pos) {
		if visited[name] {
			return
		}
		visited[name] = true
		n := g.Node(name)
		var inPkg []CallerRef
		external := false
		for _, cr := range g.Callers(name) {
			c := g.Node(cr.Caller)
			if c == nil || c.Body() == nil || pass.InTestFile(cr.Pos) {
				continue
			}
			if n != nil && c.Pkg == n.Pkg {
				inPkg = append(inPkg, cr)
			} else {
				external = true
			}
		}
		if len(inPkg) == 0 || external {
			emitUncovered(pass, reported, name, fname, site, viaPos)
			if len(inPkg) == 0 {
				return
			}
		}
		for _, cr := range inPkg {
			if tapsSelf(cr.Caller) {
				continue
			}
			rec(cr.Caller, cr.Pos)
		}
	}
	rec(fname, site.pos)
}

func emitUncovered(pass *ProgramPass, reported map[string]bool, entry, fname string, site tapSite, viaPos token.Pos) {
	if pass.InTestFile(viaPos) || pass.Allowed(viaPos) {
		return
	}
	key := fmt.Sprintf("%v:%v:%s", viaPos, site.pos, entry)
	if reported[key] {
		return
	}
	reported[key] = true
	if entry == fname {
		pass.Reportf(site.pos,
			"%s has no flight-recorder tap in %s or a direct callee; record a flight event or annotate //lint:allow tapcover(reason)",
			site.desc, shortNodeName(fname))
		return
	}
	pass.Reportf(viaPos,
		"call path from %s reaches %s in %s (%s) with no flight-recorder tap; tap the decision or annotate //lint:allow tapcover(reason)",
		shortNodeName(entry), site.desc, shortNodeName(fname), pass.Fset.Position(site.pos))
}

// collectDecisionFields adds //lint:decision-annotated struct fields to the
// decision table as "pkgpath.Type.field".
func collectDecisionFields(pass *ProgramPass, fields map[string]string) {
	for _, p := range pass.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				ts, ok := x.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !decisionDirective(field) {
						continue
					}
					for _, name := range field.Names {
						key := p.Pkg.Path() + "." + ts.Name.Name + "." + name.Name
						fields[key] = "decision-annotated write to " + ts.Name.Name + "." + name.Name
					}
				}
				return true
			})
		}
	}
}

// scanTaps reports whether the node's body calls Record on a value whose
// named type is Recorder (the flight recorder, or a fixture stand-in).
func scanTaps(n *FuncNode) bool {
	if n == nil || n.Body() == nil || n.Pkg == nil {
		return false
	}
	info := n.Pkg.Info
	found := false
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Record" {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return true
		}
		if namedTypeName(selection.Recv()) == "Recorder" {
			found = true
			return false
		}
		return true
	})
	return found
}

func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// scanDecisionSites finds the coordination decision sites in one body:
// decision-field writes and coordination Message literals. Nested literals
// are their own nodes and excluded.
func scanDecisionSites(pass *ProgramPass, n *FuncNode, fields map[string]string) []tapSite {
	info := n.Pkg.Info
	var sites []tapSite
	addWrite := func(e ast.Expr, pos token.Pos) {
		if desc, ok := fields[fieldKey(info, e)]; ok {
			sites = append(sites, tapSite{pos: pos, desc: desc})
		}
	}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				addWrite(lhs, x.TokPos)
			}
		case *ast.IncDecStmt:
			addWrite(x.X, x.TokPos)
		case *ast.CompositeLit:
			if desc, ok := coordMessageKind(info, x); ok {
				sites = append(sites, tapSite{pos: x.Pos(), desc: desc})
			}
		}
		return true
	})
	return sites
}

// fieldKey resolves an assignment destination to "pkgpath.Type.field",
// unwrapping index expressions (sh.rate[i] writes field rate), or "".
func fieldKey(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	for {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// coordMessageKind reports whether a composite literal builds a
// coordination core.Message (Kind Tune/Trigger/Shed).
func coordMessageKind(info *types.Info, cl *ast.CompositeLit) (string, bool) {
	t := typeOf(info, cl)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Message" || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "repro/internal/core" {
		return "", false
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Kind" {
			continue
		}
		var obj types.Object
		switch v := ast.Unparen(kv.Value).(type) {
		case *ast.Ident:
			obj = info.Uses[v]
		case *ast.SelectorExpr:
			obj = info.Uses[v.Sel]
		}
		if obj == nil {
			return "", false
		}
		if desc, ok := tapMessageKinds[obj.Name()]; ok {
			return desc, true
		}
		return "", false
	}
	return "", false
}

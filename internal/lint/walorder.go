package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// analyzerWALOrder verifies the durability contract at the service's
// journaling sites: a request must be applied to the engine, appended
// to the WAL, and only then answered (apply -> append -> reply).
// Replying before the append acknowledges state the log cannot replay
// after a crash. The analyzer abstractly interprets journal-aware
// functions — those whose (inlined) bodies append to a WAL or guard on
// a nil journal — tracking an (applied, appended-since-apply) state
// through straight-line code, branches, and bounded callee inlining.
//
// Exemptions, so the real commit paths stay quiet:
//   - replies inside an error branch of a failed apply (nothing was
//     applied, the error reply is the protocol);
//   - replies under a nil-journal guard (no WAL configured, nothing to
//     append);
//   - functions with no append effect at all (e.g. the federation
//     front door, which has no WAL by design) are never checked.
var analyzerWALOrder = &Analyzer{
	Name: "walorder",
	Doc: "verify apply->append->reply ordering at journaling sites: an applied request must " +
		"be appended to the WAL before its reply is sent (error-branch and nil-journal " +
		"replies exempt)",
	RunModule: func(p *ModulePass) {
		m := p.Mod
		guardedSet := map[*types.Named]bool{}
		for _, g := range guardedTypes(m) {
			guardedSet[g.Origin()] = true
		}
		w := &walChecker{
			m:        m,
			p:        p,
			guarded:  guardedSet,
			eff:      map[*FuncNode]walEffects{},
			visiting: map[*FuncNode]bool{},
			reported: map[token.Pos]bool{},
		}
		for _, n := range m.nodes {
			if n.body() == nil {
				continue
			}
			e := w.effects(n)
			if e.appendE || e.nilguard {
				w.checkFn(n, 0, walState{}, false)
			}
		}
	},
}

// walEffects is a function's flat (order-free) effect summary, used to
// gate which functions get the ordered walk and to summarize callees
// past the inlining depth.
type walEffects struct {
	apply    bool
	appendE  bool
	reply    bool
	nilguard bool
}

// walState is the abstract state threaded through a function body.
type walState struct {
	applied  bool // a guarded-type mutation has happened
	appended bool // a WAL append has happened since the last apply
}

type walChecker struct {
	m        *Module
	p        *ModulePass
	guarded  map[*types.Named]bool
	eff      map[*FuncNode]walEffects
	visiting map[*FuncNode]bool
	reported map[token.Pos]bool
}

// effects computes the flat transitive effect summary of n.
func (w *walChecker) effects(n *FuncNode) walEffects {
	if e, ok := w.eff[n]; ok {
		return e
	}
	if w.visiting[n] {
		return walEffects{}
	}
	w.visiting[n] = true
	defer delete(w.visiting, n)
	var e walEffects
	if body := n.body(); body != nil {
		ast.Inspect(body, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.GoStmt:
				return false // other goroutine
			case *ast.SendStmt:
				if isReplySend(s) {
					e.reply = true
				}
			case *ast.IfStmt:
				if isNilJournalGuard(s.Cond) {
					e.nilguard = true
				}
			case *ast.CallExpr:
				if w.isApplyCall(n, s) {
					e.apply = true
				}
				if w.isAppendCall(n, s) {
					e.appendE = true
				}
				if callee, _ := w.m.resolveCallee(n.Pkg, s); callee != nil {
					if cn := w.m.node(callee); cn != nil {
						ce := w.effects(cn)
						e.apply = e.apply || ce.apply
						e.appendE = e.appendE || ce.appendE
						e.reply = e.reply || ce.reply
					}
				}
			}
			return true
		})
	}
	w.eff[n] = e
	return e
}

// isReplySend matches sends on channels named like reply channels.
func isReplySend(s *ast.SendStmt) bool {
	return strings.Contains(strings.ToLower(types.ExprString(s.Chan)), "reply")
}

// namesJournal reports whether an identifier chain names a journal:
// "journal" matches anywhere, but "wal" only as a complete camelCase
// or snake_case token — otherwise newAlloc and withdrawals read as
// WALs and every scheduler function looks journal-aware.
func namesJournal(text string) bool {
	if strings.Contains(strings.ToLower(text), "journal") {
		return true
	}
	for _, tok := range identTokens(text) {
		if tok == "wal" {
			return true
		}
	}
	return false
}

// identTokens splits an expression string into lowercase word tokens
// on non-alphanumeric boundaries and camelCase humps (both aB and ABc
// shapes).
func identTokens(text string) []string {
	var toks []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			toks = append(toks, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
	}
	runes := []rune(text)
	for i, r := range runes {
		switch {
		case !unicode.IsLetter(r) && !unicode.IsDigit(r):
			flush()
		case unicode.IsUpper(r) && i > 0 && unicode.IsLower(runes[i-1]),
			unicode.IsUpper(r) && i > 0 && unicode.IsUpper(runes[i-1]) && i+1 < len(runes) && unicode.IsLower(runes[i+1]):
			flush()
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return toks
}

// walPackage reports whether an import path has a wal or journal path
// segment.
func walPackage(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "wal" || strings.Contains(seg, "journal") {
			return true
		}
	}
	return false
}

// isNilJournalGuard matches `if x.journal == nil` / `if wal == nil`.
func isNilJournalGuard(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if namesJournal(types.ExprString(side)) {
			return true
		}
	}
	return false
}

// isErrGuard matches `if err != nil` (any expression naming an err).
func isErrGuard(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	nilSide := false
	errSide := false
	for _, side := range []ast.Expr{be.X, be.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && id.Name == "nil" {
			nilSide = true
			continue
		}
		if strings.Contains(strings.ToLower(types.ExprString(side)), "err") {
			errSide = true
		}
	}
	return nilSide && errSide
}

// isApplyCall matches calls to receiver-mutating methods of guarded
// types: the request being applied to the single-owner engine state.
// A call through an interface (the service loop's stepper) applies
// when any module method it may dispatch to is such a method.
func (w *walChecker) isApplyCall(n *FuncNode, call *ast.CallExpr) bool {
	callee, iface := w.m.resolveCallee(n.Pkg, call)
	if callee == nil {
		return false
	}
	if iface {
		for _, impl := range w.m.implementers(callee) {
			if w.appliesGuarded(impl.Obj) {
				return true
			}
		}
		return false
	}
	return w.appliesGuarded(callee)
}

// appliesGuarded reports whether fn is a receiver-mutating method of a
// guarded type.
func (w *walChecker) appliesGuarded(fn *types.Func) bool {
	rb := receiverBase(fn)
	if rb == nil || !w.guarded[rb.Origin()] {
		return false
	}
	cn := w.m.node(fn)
	return cn != nil && cn.mutatesReceiver()
}

// isAppendCall matches WAL appends. A name containing "append" is not
// enough on its own — the scheduler has plenty of innocent appendFoo
// helpers (appendCand, AppendUsableTypes, ...) whose transitive
// reachability would otherwise make every front door look
// journal-aware. The call must also carry WAL evidence: the callee
// lives in a wal package, its receiver type is named like a journal,
// or the receiver expression is (s.journal.Append). A non-pure method
// invoked on a journal-named value counts even without "append" in
// the name.
func (w *walChecker) isAppendCall(n *FuncNode, call *ast.CallExpr) bool {
	callee, _ := w.m.resolveCallee(n.Pkg, call)
	if callee == nil {
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && namesJournal(types.ExprString(sel.X)) {
		if s, ok := n.Pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && !pureMethods[callee.Name()] {
			return true
		}
	}
	if !strings.Contains(strings.ToLower(callee.Name()), "append") {
		return false
	}
	if pkg := callee.Pkg(); pkg != nil && walPackage(pkg.Path()) {
		return true
	}
	if rb := receiverBase(callee); rb != nil && namesJournal(rb.Obj().Name()) {
		return true
	}
	return false
}

// checkFn interprets n's body from state st. exempt suppresses reply
// diagnostics (error-branch / nil-journal contexts).
func (w *walChecker) checkFn(n *FuncNode, depth int, st walState, exempt bool) walState {
	if body := n.body(); body != nil && depth <= 3 {
		st, _ = w.walkStmts(n, body.List, depth, st, exempt)
		return st
	}
	// Past the inlining depth: apply the flat summary in the
	// conservative order apply-then-append.
	e := w.effects(n)
	if e.apply {
		st.applied, st.appended = true, false
	}
	if e.appendE {
		st.appended = true
	}
	return st
}

// walkStmts interprets a statement list; the bool result reports
// whether the list definitely terminates (ends in return).
func (w *walChecker) walkStmts(n *FuncNode, list []ast.Stmt, depth int, st walState, exempt bool) (walState, bool) {
	terminated := false
	for _, stmt := range list {
		if terminated {
			break
		}
		switch s := stmt.(type) {
		case *ast.SendStmt:
			if isReplySend(s) && !exempt && st.applied && !st.appended {
				w.report(n, s.Pos())
			}
			st = w.walkCallsIn(n, s, depth, st, exempt)
		case *ast.ReturnStmt:
			st = w.walkCallsIn(n, s, depth, st, exempt)
			terminated = true
		case *ast.IfStmt:
			if s.Init != nil {
				st = w.walkCallsIn(n, s.Init, depth, st, exempt)
			}
			st = w.walkCallsIn(n, s.Cond, depth, st, exempt)
			branchSt := st
			branchExempt := exempt
			switch {
			case isErrGuard(s.Cond):
				// The guarded operation failed; its error reply is the
				// protocol, and nothing is durably applied.
				branchSt.applied = false
				branchExempt = true
			case isNilJournalGuard(s.Cond):
				branchExempt = true
			}
			thenOut, thenTerm := w.walkStmts(n, s.Body.List, depth, branchSt, branchExempt)
			var elseOut walState
			elseTerm := false
			hasElse := s.Else != nil
			if hasElse {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					elseOut, elseTerm = w.walkStmts(n, e.List, depth, st, exempt)
				case *ast.IfStmt:
					elseOut, elseTerm = w.walkStmts(n, []ast.Stmt{e}, depth, st, exempt)
				}
			} else {
				elseOut = st
			}
			switch {
			case thenTerm && elseTerm:
				terminated = true
			case thenTerm:
				st = elseOut
			case elseTerm:
				st = thenOut
			default:
				st = joinQuiet(thenOut, elseOut)
			}
		case *ast.BlockStmt:
			var term bool
			st, term = w.walkStmts(n, s.List, depth, st, exempt)
			terminated = terminated || term
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Each clause starts from the entry state; clause-internal
			// ordering is still checked. The post-switch state joins
			// to quiet.
			for _, clause := range clauseBodies(s) {
				w.walkStmts(n, clause, depth, st, exempt)
			}
		case *ast.ForStmt:
			w.walkStmts(n, s.Body.List, depth, st, exempt)
		case *ast.RangeStmt:
			w.walkStmts(n, s.Body.List, depth, st, exempt)
		case *ast.DeferStmt:
			st = w.walkCallsIn(n, s.Call, depth, st, exempt)
		case *ast.GoStmt:
			// Other goroutine: no effect on this request's ordering.
		default:
			st = w.walkCallsIn(n, stmt, depth, st, exempt)
		}
	}
	return st, terminated
}

// clauseBodies extracts the statement lists of switch/select clauses.
func clauseBodies(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	var body *ast.BlockStmt
	switch x := s.(type) {
	case *ast.SwitchStmt:
		body = x.Body
	case *ast.TypeSwitchStmt:
		body = x.Body
	case *ast.SelectStmt:
		body = x.Body
	}
	if body == nil {
		return nil
	}
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			out = append(out, cc.Body)
		case *ast.CommClause:
			out = append(out, cc.Body)
		}
	}
	return out
}

// walkCallsIn processes the calls (and reply sends in nested
// literals are ignored — other goroutine semantics are out of scope)
// inside one statement or expression, in source order.
func (w *walChecker) walkCallsIn(n *FuncNode, node ast.Node, depth int, st walState, exempt bool) walState {
	ast.Inspect(node, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			st = w.applyCallEffect(n, s, depth, st, exempt)
		}
		return true
	})
	return st
}

// applyCallEffect updates the state for one call expression.
func (w *walChecker) applyCallEffect(n *FuncNode, call *ast.CallExpr, depth int, st walState, exempt bool) walState {
	if w.isApplyCall(n, call) {
		st.applied, st.appended = true, false
		return st
	}
	if w.isAppendCall(n, call) {
		st.appended = true
		return st
	}
	callee, _ := w.m.resolveCallee(n.Pkg, call)
	if callee == nil {
		return st
	}
	cn := w.m.node(callee)
	if cn == nil || cn.body() == nil {
		return st
	}
	e := w.effects(cn)
	if !e.apply && !e.appendE && !e.reply && !e.nilguard {
		return st // pure helper: nothing to interpret
	}
	if depth >= 3 {
		if e.reply && st.applied && !st.appended && !exempt {
			w.report(n, call.Pos())
		}
		if e.apply {
			st.applied, st.appended = true, false
		}
		if e.appendE {
			st.appended = true
		}
		return st
	}
	return w.checkFn(cn, depth+1, st, exempt)
}

// joinQuiet merges branch states toward silence: disagreement resolves
// to the state that cannot produce a diagnostic, trading recall for a
// zero-false-positive default on branchy commit paths.
func joinQuiet(a, b walState) walState {
	return walState{
		applied:  a.applied && b.applied,
		appended: a.appended || b.appended,
	}
}

func (w *walChecker) report(n *FuncNode, pos token.Pos) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.p.Reportf(n.Pkg, pos,
		"reply sent before WAL append for an applied request in %s; the contract is apply -> append -> reply "+
			"so a crash after the reply can always replay the acknowledged state", n.Name())
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline enforces the serving stack's mutex contracts:
//
//   - a field annotated //dlr:guarded-by <mu> may only be accessed
//     while <mu> on the same struct value is held (Lock/RLock seen on
//     the path, a deferred Unlock, or a //dlr:locked annotation on the
//     enclosing method); writing under an RLock is a finding;
//   - acquiring a mutex listed in the package's //dlr:lock-order while
//     holding one that appears later in the list is a finding;
//   - blocking operations under any held mutex — a bare channel send,
//     a send in a select without default, or a call in the
//     lockBlockingSinks table (network writes) — are findings.
//
// The analysis is a conservative intra-procedural walk: branches are
// analyzed with copies of the held set and merged by intersection of
// the non-terminating paths; loop bodies are analyzed once against the
// loop-entry state; function literals are independent scopes with an
// empty held set, except immediately-invoked literals (which run
// inline and inherit the locks) and goroutine bodies (which run
// elsewhere and inherit nothing).
var LockDiscipline = &Analyzer{
	Name: "lock-discipline",
	Doc:  "checks //dlr:guarded-by access, //dlr:lock-order acquisition, and blocking calls under locks",
	Run:  runLocks,
}

// lockBlockingSinks are calls that can block indefinitely (network
// writes park on the kernel send buffer until the peer drains it).
// Keyed by types.Func.FullName.
var lockBlockingSinks = map[string]bool{
	"(net.Conn).Write":                     true,
	"(*net.TCPConn).Write":                 true,
	"(*net.UnixConn).Write":                true,
	"repro/internal/wire.Write":            true,
	"repro/internal/wire.WriteMux":         true,
	"(repro/internal/device.Channel).Send": true,
}

// lockState is what the walker knows about one held mutex.
type lockState struct {
	rlock    bool // held via RLock: guarded reads ok, writes are not
	deferred bool // an Unlock is deferred, so it stays held to the end
}

type funcLocks struct {
	pass    *Pass
	order   map[string]int // declared //dlr:lock-order ranks, may be nil
	visited map[*ast.FuncLit]bool
}

func runLocks(pass *Pass) {
	fl := &funcLocks{
		pass:    pass,
		order:   pass.Reg.LockOrder(pass.Pkg.Path),
		visited: map[*ast.FuncLit]bool{},
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := map[string]lockState{}
			for _, mu := range pass.Reg.LockedMus(pass.Pkg.Info.Defs[fd.Name]) {
				key := mu
				if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					key = fd.Recv.List[0].Names[0].Name + "." + mu
				}
				held[key] = lockState{deferred: true}
			}
			fl.block(fd.Body.List, held)
		}
	}
}

func cloneHeld(held map[string]lockState) map[string]lockState {
	c := make(map[string]lockState, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// intersectHeld merges branch outcomes: a mutex is held after the
// branch only if every surviving path holds it; a read-only hold on
// any path makes the merged hold read-only.
func intersectHeld(sets []map[string]lockState) map[string]lockState {
	if len(sets) == 0 {
		return map[string]lockState{}
	}
	out := cloneHeld(sets[0])
	for _, s := range sets[1:] {
		for k, v := range out {
			sv, ok := s[k]
			if !ok {
				delete(out, k)
				continue
			}
			v.rlock = v.rlock || sv.rlock
			v.deferred = v.deferred && sv.deferred
			out[k] = v
		}
	}
	return out
}

// muBase returns the mutex field/var name of a held-set key
// ("ss.wmu" → "wmu", "refreshMu" → "refreshMu").
func muBase(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

// lockCall recognizes X.Lock / X.RLock / X.Unlock / X.RUnlock on a
// sync.Mutex or sync.RWMutex and returns the held-set key for X plus
// the operation kind ("" when the call is not a mutex operation).
func (fl *funcLocks) lockCall(call *ast.CallExpr) (string, string) {
	fn := calleeFunc(fl.pass.Pkg.Info, call)
	if fn == nil {
		return "", ""
	}
	var kind string
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		kind = "lock"
	case "(*sync.RWMutex).RLock":
		kind = "rlock"
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		kind = "unlock"
	case "(*sync.RWMutex).RUnlock":
		kind = "runlock"
	default:
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return types.ExprString(sel.X), kind
}

// acquire records a Lock/RLock, checking the declared lock order
// against everything already held.
func (fl *funcLocks) acquire(key string, pos token.Pos, held map[string]lockState, rlock bool) {
	if fl.order != nil {
		if nr, ok := fl.order[muBase(key)]; ok {
			keys := make([]string, 0, len(held))
			for k := range held {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if hr, ok := fl.order[muBase(k)]; ok && hr > nr {
					fl.pass.Reportf(pos, "acquires %s while holding %s, violating the declared //dlr:lock-order", muBase(key), muBase(k))
				}
			}
		}
	}
	held[key] = lockState{rlock: rlock}
}

func (fl *funcLocks) reportBlocking(pos token.Pos, held map[string]lockState, what string) {
	if len(held) == 0 {
		return
	}
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fl.pass.Reportf(pos, "%s while holding %s can block with the lock held; move it outside the critical section", what, keys[0])
}

func (fl *funcLocks) block(list []ast.Stmt, held map[string]lockState) (map[string]lockState, bool) {
	for _, s := range list {
		var term bool
		held, term = fl.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (fl *funcLocks) stmt(s ast.Stmt, held map[string]lockState) (map[string]lockState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, kind := fl.lockCall(call); kind != "" {
				switch kind {
				case "lock":
					fl.acquire(key, call.Pos(), held, false)
				case "rlock":
					fl.acquire(key, call.Pos(), held, true)
				default: // unlock, runlock
					delete(held, key)
				}
				return held, false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, builtin := fl.pass.Pkg.Info.Uses[id].(*types.Builtin); builtin {
					fl.scanExpr(s.X, held, false)
					return held, true
				}
			}
		}
		fl.scanExpr(s.X, held, false)
		return held, false
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			fl.scanExpr(rhs, held, false)
		}
		for _, lhs := range s.Lhs {
			fl.scanExpr(lhs, held, true)
		}
		return held, false
	case *ast.IncDecStmt:
		fl.scanExpr(s.X, held, true)
		return held, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fl.scanExpr(v, held, false)
					}
				}
			}
		}
		return held, false
	case *ast.SendStmt:
		fl.scanExpr(s.Chan, held, false)
		fl.scanExpr(s.Value, held, false)
		fl.reportBlocking(s.Arrow, held, "channel send")
		return held, false
	case *ast.DeferStmt:
		fl.deferCall(s.Call, held)
		return held, false
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			fl.funcLit(lit, map[string]lockState{})
		} else {
			fl.scanExpr(s.Call.Fun, held, false)
		}
		for _, a := range s.Call.Args {
			fl.scanExpr(a, held, false)
		}
		return held, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fl.scanExpr(r, held, false)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.BlockStmt:
		return fl.block(s.List, held)
	case *ast.LabeledStmt:
		return fl.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = fl.stmt(s.Init, held)
		}
		fl.scanExpr(s.Cond, held, false)
		thenHeld, thenTerm := fl.block(s.Body.List, cloneHeld(held))
		elseHeld, elseTerm := cloneHeld(held), false
		if s.Else != nil {
			elseHeld, elseTerm = fl.stmt(s.Else, cloneHeld(held))
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return intersectHeld([]map[string]lockState{thenHeld, elseHeld}), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = fl.stmt(s.Init, held)
		}
		if s.Cond != nil {
			fl.scanExpr(s.Cond, held, false)
		}
		body, _ := fl.block(s.Body.List, cloneHeld(held))
		if s.Post != nil {
			fl.stmt(s.Post, body)
		}
		return held, false
	case *ast.RangeStmt:
		fl.scanExpr(s.X, held, false)
		fl.block(s.Body.List, cloneHeld(held))
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = fl.stmt(s.Init, held)
		}
		if s.Tag != nil {
			fl.scanExpr(s.Tag, held, false)
		}
		return fl.caseClauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = fl.stmt(s.Init, held)
		}
		return fl.caseClauses(s.Body.List, held)
	case *ast.SelectStmt:
		return fl.selectStmt(s, held)
	}
	return held, false
}

func (fl *funcLocks) caseClauses(list []ast.Stmt, held map[string]lockState) (map[string]lockState, bool) {
	var results []map[string]lockState
	hasDefault := false
	for _, cs := range list {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			fl.scanExpr(e, held, false)
		}
		h, term := fl.block(cc.Body, cloneHeld(held))
		if !term {
			results = append(results, h)
		}
	}
	if !hasDefault {
		results = append(results, cloneHeld(held))
	}
	if len(results) == 0 {
		return held, true
	}
	return intersectHeld(results), false
}

func (fl *funcLocks) selectStmt(s *ast.SelectStmt, held map[string]lockState) (map[string]lockState, bool) {
	hasDefault := false
	for _, cs := range s.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	var results []map[string]lockState
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		h := cloneHeld(held)
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			fl.scanExpr(send.Chan, h, false)
			fl.scanExpr(send.Value, h, false)
			// With a default clause the send is non-blocking (the
			// intake fast path depends on this); without one the
			// select parks with the lock held.
			if !hasDefault {
				fl.reportBlocking(send.Arrow, h, "channel send")
			}
		} else if cc.Comm != nil {
			// Receive: blocking on input is the window loop's idle
			// state, not a finding; still scan for guarded accesses.
			h, _ = fl.stmt(cc.Comm, h)
		}
		h, term := fl.block(cc.Body, h)
		if !term {
			results = append(results, h)
		}
	}
	if len(results) == 0 {
		return held, true
	}
	return intersectHeld(results), false
}

// deferCall handles a defer: a deferred Unlock keeps the mutex held to
// function end; a deferred closure is scanned for Unlocks and analyzed
// as its own scope.
func (fl *funcLocks) deferCall(call *ast.CallExpr, held map[string]lockState) {
	if key, kind := fl.lockCall(call); kind != "" {
		if kind == "unlock" || kind == "runlock" {
			if st, ok := held[key]; ok {
				st.deferred = true
				held[key] = st
			}
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, kind := fl.lockCall(c); kind == "unlock" || kind == "runlock" {
				if st, ok := held[key]; ok {
					st.deferred = true
					held[key] = st
				}
			}
			return true
		})
		fl.funcLit(lit, map[string]lockState{})
		return
	}
	for _, a := range call.Args {
		fl.scanExpr(a, held, false)
	}
}

// funcLit analyzes a function literal exactly once as its own scope.
func (fl *funcLocks) funcLit(lit *ast.FuncLit, held map[string]lockState) {
	if fl.visited[lit] {
		return
	}
	fl.visited[lit] = true
	fl.block(lit.Body.List, held)
}

// scanExpr checks one expression tree for guarded-field accesses and
// blocking calls. write applies to the outermost addressable chain
// (assignment LHS, IncDec operand).
func (fl *funcLocks) scanExpr(e ast.Expr, held map[string]lockState, write bool) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		fl.checkGuarded(x, nil, held, write)
	case *ast.SelectorExpr:
		fl.checkGuarded(x.Sel, x, held, write)
		fl.scanExpr(x.X, held, false)
	case *ast.ParenExpr:
		fl.scanExpr(x.X, held, write)
	case *ast.StarExpr:
		fl.scanExpr(x.X, held, write)
	case *ast.UnaryExpr:
		fl.scanExpr(x.X, held, false)
	case *ast.BinaryExpr:
		fl.scanExpr(x.X, held, false)
		fl.scanExpr(x.Y, held, false)
	case *ast.IndexExpr:
		fl.scanExpr(x.X, held, write)
		fl.scanExpr(x.Index, held, false)
	case *ast.IndexListExpr:
		fl.scanExpr(x.X, held, write)
	case *ast.SliceExpr:
		fl.scanExpr(x.X, held, write)
		fl.scanExpr(x.Low, held, false)
		fl.scanExpr(x.High, held, false)
		fl.scanExpr(x.Max, held, false)
	case *ast.TypeAssertExpr:
		fl.scanExpr(x.X, held, false)
	case *ast.KeyValueExpr:
		fl.scanExpr(x.Value, held, false)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				// Struct-literal keys are field names, not reads; map
				// keys are real expressions.
				if id, isID := kv.Key.(*ast.Ident); !isID || !isFieldIdent(fl.pass, id) {
					fl.scanExpr(kv.Key, held, false)
				}
				fl.scanExpr(kv.Value, held, false)
				continue
			}
			fl.scanExpr(elt, held, false)
		}
	case *ast.FuncLit:
		fl.funcLit(x, map[string]lockState{})
	case *ast.CallExpr:
		if lit, ok := x.Fun.(*ast.FuncLit); ok {
			// An immediately-invoked literal runs inline under the
			// caller's locks.
			fl.funcLit(lit, cloneHeld(held))
		} else {
			fl.scanExpr(x.Fun, held, false)
		}
		for _, a := range x.Args {
			fl.scanExpr(a, held, false)
		}
		if fn := calleeFunc(fl.pass.Pkg.Info, x); fn != nil && lockBlockingSinks[fn.FullName()] {
			fl.reportBlocking(x.Pos(), held, "call to "+fn.FullName())
		}
	}
}

func isFieldIdent(pass *Pass, id *ast.Ident) bool {
	v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
	return ok && v.IsField()
}

func (fl *funcLocks) checkGuarded(id *ast.Ident, sel *ast.SelectorExpr, held map[string]lockState, write bool) {
	obj := fl.pass.Pkg.Info.Uses[id]
	mu, ok := fl.pass.Reg.GuardedBy(obj)
	if !ok {
		return
	}
	key := mu
	if sel != nil {
		key = types.ExprString(sel.X) + "." + mu
	}
	st, ok := held[key]
	if !ok {
		fl.pass.Reportf(id.Pos(), "%s is //dlr:guarded-by %s, which is not held here (lock it, or annotate the enclosing method //dlr:locked %s)", id.Name, mu, mu)
		return
	}
	if write && st.rlock {
		fl.pass.Reportf(id.Pos(), "%s is written while %s is held read-only (RLock); writes need the exclusive lock", id.Name, mu)
	}
}

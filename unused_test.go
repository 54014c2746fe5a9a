package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed names the functions and methods under internal/ that no
// program file calls but that stay on purpose, each with its reason. Keys
// are the package path below internal/, then the receiver type for a
// method, then the name.
var unusedAllowed = map[string]string{
	"chaos.NewKillPlan":                 "kill-only chaos plan, a fixture of the uniproc and kernel kill tests",
	"core.NewTicketLock":                "the ticket lock is ROADMAP item 7's model target",
	"isa.Addi":                          "instruction builder for the vmach and kernel tests that hand-build code",
	"isa.Move":                          "instruction builder the asm tests compare assembler output against",
	"isa.Sc":                            "instruction builder for FuzzStepPredecoded's random programs",
	"obs.ChromeTrace":                   "renders captured events whole, the oracle of the trace tests in cmd/ and both substrates",
	"obs.CycleProfiler.CumCycles":       "profile oracle of the obs and kernel profiler tests",
	"obs.CycleProfiler.FlatCycles":      "profile oracle of the obs and kernel profiler tests",
	"uniproc.LivelockError.Unwrap":      "errors.Is(err, ErrLivelock) reaches it",
	"vmach.Memory.DirtyLines":           "persistence oracle of the vmach and kernel crash tests",
	"vmach.Memory.Persistent":           "the kernel's cold-boot test checks that Lives boots persistent memory",
	"vmach/kernel.LivelockError.Unwrap": "errors.Is(err, ErrLivelock) reaches it",
	"vmach/kernel.crashError.Unwrap":    "errors.Is(err, ErrMachineCrash) reaches it",
}

// TestNoUnusedFunctions fails when a function or method under internal/
// is reachable from no program file: cmd/, examples/, internal/ or the
// benchmark/ module, test files excluded. Matching is by name (see ref),
// so a call through an interface or a selector on any type keeps a
// method alive. Liveness is transitive: a function only dead code calls is dead too.
// It also fails on an allowlist entry that names no function or whose
// function has since gained a caller.
func TestNoUnusedFunctions(t *testing.T) {
	type decl struct {
		key    string
		name   string
		method bool
		refs   []ref
	}
	var decls []decl
	live := map[ref]bool{{"init", false}: true, {"main", false}: true}

	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg, inInternal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
			imports := map[string]bool{}
			for _, im := range f.Imports {
				name := strings.Trim(im.Path.Value, `"`)
				name = name[strings.LastIndex(name, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = true
			}
			refs := func(n ast.Node, f func(ref)) { walkRefs(n, imports, f) }
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !inInternal {
					refs(d, func(r ref) { live[r] = true })
					continue
				}
				key := fd.Name.Name
				if fd.Recv != nil {
					key = recvType(fd.Recv.List[0].Type) + "." + key
					refs(fd.Recv, func(r ref) { live[r] = true })
				}
				dc := decl{key: pkg + "." + key, name: fd.Name.Name, method: fd.Recv != nil}
				refs(fd.Type, func(r ref) { dc.refs = append(dc.refs, r) })
				if fd.Body != nil {
					refs(fd.Body, func(r ref) { dc.refs = append(dc.refs, r) })
				}
				decls = append(decls, dc)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	isLive := func(live map[ref]bool, d decl) bool {
		return live[ref{d.name, true}] || !d.method && live[ref{d.name, false}]
	}

	// reach grows live to a fixpoint: a live name makes every function
	// of that name live, and so every name those functions use.
	reach := func(live map[ref]bool, roots func(decl) bool) {
		for changed := true; changed; {
			changed = false
			for _, d := range decls {
				if !isLive(live, d) && !roots(d) {
					continue
				}
				for _, r := range d.refs {
					if !live[r] {
						live[r] = true
						changed = true
					}
				}
			}
		}
	}
	exists := map[string]bool{}
	for _, d := range decls {
		exists[d.key] = true
	}

	// Without the allowlist as roots, an allowed function must be dead:
	// one that has gained a caller no longer needs its entry.
	bare := make(map[ref]bool, len(live))
	for r := range live {
		bare[r] = true
	}
	reach(bare, func(decl) bool { return false })
	var stale []string
	for _, d := range decls {
		if unusedAllowed[d.key] != "" && isLive(bare, d) {
			stale = append(stale, d.key+": now has a caller")
		}
	}
	for key := range unusedAllowed {
		if !exists[key] {
			stale = append(stale, key+": no such function")
		}
	}

	reach(live, func(d decl) bool { return unusedAllowed[d.key] != "" })
	var dead []string
	for _, d := range decls {
		if !isLive(live, d) && unusedAllowed[d.key] == "" {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(stale)
	sort.Strings(dead)
	for _, s := range stale {
		t.Errorf("stale allowlist entry %s", s)
	}
	for _, key := range dead {
		t.Errorf("internal/%s: no program file calls it; delete it, move it into a _test.go file, or allowlist it with a reason", key)
	}
}

// A ref is one use of a name. A method can only be reached through a
// selector (x.M, T.M) or by satisfying an interface that names it, so
// only a selector use or an interface method keeps a method alive; any
// use keeps a function alive.
type ref struct {
	name string
	sel  bool
}

// walkRefs reports every name n uses. A selector on an imported
// package's name is a qualified identifier, not a method or field use.
func walkRefs(n ast.Node, imports map[string]bool, f func(ref)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] {
				f(ref{x.Sel.Name, false})
				return false
			}
			f(ref{x.Sel.Name, true})
			walkRefs(x.X, imports, f)
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					f(ref{name.Name, true})
				}
			}
		case *ast.Ident:
			f(ref{x.Name, false})
		}
		return true
	})
}

// recvType is the base type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// unreadAllowed names the unexported struct fields under internal/ that no
// program file of their package reads by name but that stay on purpose,
// each with its reason. Keys are the package path below internal/, then
// the struct type, then the field.
var unreadAllowed = map[string]string{}

// TestNoUnreadFields fails when an unexported struct field declared in a
// program file under internal/ is read by no program file of its package
// (test files excluded): a field that is only assigned, incremented or
// set by a composite literal holds state nothing uses. The left side of =
// and op=, the operand of ++ and --, and a composite-literal key are
// writes; every other selector use is a read. Matching is by name within
// the package, so a read of any field or method of that name keeps the
// field; blank fields are skipped. It also fails on an allowlist entry that names no field or whose
// field has since gained a reader.
func TestNoUnreadFields(t *testing.T) {
	type field struct{ key, pkg, name string }
	var fields []field
	read := map[[2]string]bool{} // package, name
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		writes := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if !id.IsExported() && id.Name != "_" {
								fields = append(fields, field{pkg + "." + x.Name.Name + "." + id.Name, pkg, id.Name})
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					if s, ok := l.(*ast.SelectorExpr); ok {
						writes[s] = true
					}
				}
			case *ast.IncDecStmt:
				if s, ok := x.X.(*ast.SelectorExpr); ok {
					writes[s] = true
				}
			case *ast.SelectorExpr:
				if !writes[x] {
					read[[2]string{pkg, x.Sel.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := map[string]bool{}
	var unread []string
	for _, f := range fields {
		exists[f.key] = true
		switch isRead := read[[2]string{f.pkg, f.name}]; {
		case isRead && unreadAllowed[f.key] != "":
			t.Errorf("stale allowlist entry %s: now has a reader", f.key)
		case !isRead && unreadAllowed[f.key] == "":
			unread = append(unread, f.key)
		}
	}
	for key := range unreadAllowed {
		if !exists[key] {
			t.Errorf("stale allowlist entry %s: no such field", key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		t.Errorf("internal/%s: no program file of its package reads it; delete it, or allowlist it with a reason", key)
	}
}

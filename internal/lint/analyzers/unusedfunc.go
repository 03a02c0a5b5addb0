package analyzers

import (
	"go/ast"
	"go/types"

	"agave/internal/lint/analysis"
)

// Unusedfunc reports every function and method declared under an
// internal/ directory that no loaded package references. Test files are
// never loaded, so API that only tests call is flagged: it is surface the
// simulator claims but never runs. Nothing outside the module can import
// internal/, so exported names are held to the rule too. A reference from
// inside the function's own body (recursion) does not count, and generic
// instantiations count as uses of their origin.
//
// Exempt: init, and any method whose receiver (T or *T) implements a
// package-scope interface of a loaded package or its transitive imports
// (or error) that has that method — interface dispatch reaches such a
// method without naming it. An anonymous interface (errors.Is's Unwrap) is
// invisible here and needs an //agave:allow at the declaration.
var Unusedfunc = &analysis.Analyzer{
	Name:   "unusedfunc",
	Doc:    "every function and method declared under internal/ is referenced by some non-test package",
	Run:    runUnusedfunc,
	Finish: finishUnusedfunc,
}

// funcRefs is one package's contribution: the functions it declares under
// internal/ and every function it references outside that function's own
// body.
type funcRefs struct {
	decls []*types.Func
	uses  map[*types.Func]bool
}

func runUnusedfunc(pass *analysis.Pass) (any, error) {
	refs := funcRefs{uses: make(map[*types.Func]bool)}
	internal := underInternal(pass.Pkg.Path())
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = pass.TypesInfo.Defs[fd.Name]
				if fn, ok := self.(*types.Func); ok && internal && !(fd.Recv == nil && fd.Name.Name == "init") {
					refs.decls = append(refs.decls, fn)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && types.Object(fn.Origin()) != self {
						refs.uses[fn.Origin()] = true
					}
				}
				return true
			})
		}
	}
	return refs, nil
}

func finishUnusedfunc(sum *analysis.Summary) error {
	used := make(map[*types.Func]bool)
	for _, res := range sum.Results {
		for fn := range res.Value.(funcRefs).uses {
			used[fn] = true
		}
	}
	ifaces := interfacesByMethod(sum.Results)
	for _, res := range sum.Results {
		for _, fn := range res.Value.(funcRefs).decls {
			if used[fn] || satisfiesInterface(fn, ifaces[fn.Name()]) {
				continue
			}
			if named := receiverNamed(fn); named != nil {
				sum.Reportf(fn.Pos(), "method %s.%s is unused: no non-test package references it", named.Obj().Name(), fn.Name())
			} else {
				sum.Reportf(fn.Pos(), "function %s is unused: no non-test package references it", fn.Name())
			}
		}
	}
	return nil
}

// interfacesByMethod indexes, by method name, error and every non-generic
// package-scope interface declared in a loaded package or anything it
// transitively imports.
func interfacesByMethod(results []analysis.PackageResult) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				add(iface)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, res := range results {
		visit(res.Pkg)
	}
	return byName
}

// satisfiesInterface reports whether fn is a method whose receiver type,
// as T or *T, implements one of ifaces (each of which has fn's name).
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := receiverNamed(fn)
	if named == nil {
		return false
	}
	for _, iface := range ifaces {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// receiverNamed returns the named receiver type of a method, or nil for a
// plain function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

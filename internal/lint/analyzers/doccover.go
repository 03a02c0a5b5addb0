package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"agave/internal/lint/analysis"
)

// Doccover holds three registries to their reference documents, so a new
// entry cannot ship without its documentation:
//
//   - every event kind the scenario codec accepts (the kindNames literal in
//     internal/scenario) is a heading in docs/SCENARIOS.md;
//   - every analyzer registered in internal/lint/analyzers is a heading in
//     docs/LINT.md;
//   - every wire-format field name internal/fleet declares (a json struct
//     tag) is a backticked token in docs/FLEET.md.
//
// Each registry is read from the analyzed source, and each finding sits at
// the declaration that demands the documentation. A missing document is a
// finding at the registry's first entry, not a load error: deleting the
// document fails the gate the same way deleting one heading does.
var Doccover = &analysis.Analyzer{
	Name: "doccover",
	Doc: "every scenario event kind, registered analyzer and internal/fleet json tag is documented " +
		"in docs/SCENARIOS.md, docs/LINT.md and docs/FLEET.md respectively",
	Run: runDoccover,
}

// A docSite is one registry entry: the name a document must carry and the
// declaration that demands it.
type docSite struct {
	pos  token.Pos
	name string
}

// docRegistries lists, per declaring package (an import-path suffix), the
// reference document and how its entries and coverage are read.
var docRegistries = []struct {
	pkg, doc, noun, why string
	sites               func(*analysis.Pass) []docSite
	headings            bool // covered by a heading; otherwise by a backticked token
}{
	{"internal/scenario", "docs/SCENARIOS.md", "event kind", "the codec accepts it", kindSites, true},
	{"internal/lint/analyzers", "docs/LINT.md", "analyzer", "it is registered", analyzerSites, true},
	{"internal/fleet", "docs/FLEET.md", "wire-format field", "it is on the wire", jsonTagSites, false},
}

func runDoccover(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	for _, r := range docRegistries {
		if path != r.pkg && !strings.HasSuffix(path, "/"+r.pkg) {
			continue
		}
		sites := r.sites(pass)
		if len(sites) == 0 {
			continue
		}
		root := moduleRoot(filepath.Dir(pass.Fset.Position(sites[0].pos).Filename))
		if root == "" {
			continue // a bare fixture tree has no reference documents
		}
		data, err := os.ReadFile(filepath.Join(root, r.doc))
		if err != nil {
			pass.Reportf(sites[0].pos, "%s is missing; every %s in %s must be documented there", r.doc, r.noun, r.pkg)
			continue
		}
		text := string(data)
		documented := func(name string) bool { return strings.Contains(text, "`"+name+"`") }
		where := "a backticked token"
		if r.headings {
			documented = headingSet(data)
			where = "a heading"
		}
		for _, s := range sites {
			if !documented(s.name) {
				pass.Reportf(s.pos, "%s %q is not %s in %s (%s; document it)", r.noun, s.name, where, r.doc, r.why)
			}
		}
	}
	return nil, nil
}

// headingSet returns a membership test for the markdown headings of doc.
// Heading markers and backticks are stripped, so "### `faultBinder`"
// documents "faultBinder".
func headingSet(doc []byte) func(string) bool {
	headings := make(map[string]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			headings[strings.Trim(strings.TrimSpace(strings.TrimLeft(line, "#")), "`")] = true
		}
	}
	return func(name string) bool { return headings[name] }
}

// kindSites reads the string elements of the package-level kindNames
// composite literal: the wire spellings ParseKind accepts.
func kindSites(pass *analysis.Pass) []docSite {
	var sites []docSite
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if id.Name != "kindNames" || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.CompositeLit); ok {
						for _, elt := range lit.Elts {
							if name, ok := stringLit(elt); ok {
								sites = append(sites, docSite{elt.Pos(), name})
							}
						}
					}
				}
			}
		}
	}
	return sites
}

// analyzerSites reads the Name field of every analysis.Analyzer composite
// literal the package declares.
func analyzerSites(pass *analysis.Pass) []docSite {
	var sites []docSite
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isAnalyzerType(pass.TypesInfo.TypeOf(lit)) {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Name" {
					continue
				}
				if name, ok := stringLit(kv.Value); ok {
					sites = append(sites, docSite{kv.Value.Pos(), name})
				}
			}
			return true
		})
	}
	return sites
}

// isAnalyzerType reports whether t is the Analyzer type of an
// internal/lint/analysis package.
func isAnalyzerType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Analyzer" || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "internal/lint/analysis" || strings.HasSuffix(path, "/internal/lint/analysis")
}

// jsonTagSites reads every json struct-tag name the package declares,
// skipping untagged fields and the "" and "-" names that put nothing on the
// wire. Test files never reach a pass, so their tags are out of scope.
func jsonTagSites(pass *analysis.Pass) []docSite {
	var sites []docSite
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Tag == nil {
					continue
				}
				tag, err := strconv.Unquote(field.Tag.Value)
				if err != nil {
					continue
				}
				name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				if name != "" && name != "-" {
					sites = append(sites, docSite{field.Tag.Pos(), name})
				}
			}
			return true
		})
	}
	return sites
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

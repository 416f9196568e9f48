package hbb

import (
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references must resolve.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	selChain = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	// testName is a Go test identifier as the docs cite it; a `*` is a
	// wildcard, and a /subtest suffix is not part of the match.
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_*][\w*]*`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
)

// moduleTests returns the test, fuzz, benchmark and example functions
// declared in the module's _test.go files.
func moduleTests(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(p)
		for _, m := range testDecl.FindAllSubmatch(raw, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// testResolves reports whether a cited test name is declared, or, when it
// holds a `*`, whether it matches a declared one.
func testResolves(tests map[string]bool, name string) bool {
	if !strings.Contains(name, "*") {
		return tests[name]
	}
	re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, ".*") + "$")
	for n := range tests {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// moduleDecls indexes what the module declares outside tests: the
// exported top-level names of each package (by package name), and the
// fields, methods and embedded types of each type (by type name; a name
// declared in several packages gets the union).
type moduleDecls struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

func indexModule(t *testing.T) *moduleDecls {
	m := &moduleDecls{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		embeds:  map[string][]string{},
	}
	for _, files := range moduleFiles(t) {
		for _, f := range files {
			names := map[string]bool{} // a main package's names are not referable
			if pkg := f.Name.Name; pkg != "main" {
				if m.pkgs[pkg] == nil {
					m.pkgs[pkg] = names
				}
				names = m.pkgs[pkg]
			}
			for _, decl := range f.Decls {
				m.addDecl(names, decl)
			}
		}
	}
	return m
}

// addDecl records one declaration; names collects its package's names.
func (m *moduleDecls) addDecl(names map[string]bool, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			m.member(typeName(d.Recv.List[0].Type), d.Name.Name)
		} else {
			names[d.Name.Name] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					names[id.Name] = true
				}
			case *ast.TypeSpec:
				names[s.Name.Name] = true
				m.member(s.Name.Name, "")
				var fields *ast.FieldList
				switch ty := s.Type.(type) {
				case *ast.StructType:
					fields = ty.Fields
				case *ast.InterfaceType:
					fields = ty.Methods
				}
				if fields == nil {
					continue
				}
				for _, fld := range fields.List {
					if len(fld.Names) == 0 {
						m.embeds[s.Name.Name] = append(m.embeds[s.Name.Name], typeName(fld.Type))
					}
					for _, id := range fld.Names {
						m.member(s.Name.Name, id.Name)
					}
				}
			}
		}
	}
}

func (m *moduleDecls) member(typ, name string) {
	if m.members[typ] == nil {
		m.members[typ] = map[string]bool{}
	}
	if name != "" {
		m.members[typ][name] = true
	}
}

// typeName strips pointers, type arguments and package qualifiers.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// hasMember reports whether typ declares name or reaches it through an
// embedded type.
func (m *moduleDecls) hasMember(typ, name string, seen map[string]bool) bool {
	if m.members[typ][name] {
		return true
	}
	seen[typ] = true
	for _, e := range m.embeds[typ] {
		if !seen[e] && m.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

// resolves checks one selector chain X.Y[.Z]. Only chains whose X is a
// package or a type of the module are checked, and only through exported
// selectors.
func (m *moduleDecls) resolves(chain []string) bool {
	x, y := chain[0], chain[1]
	if !token.IsExported(y) {
		return true
	}
	if pkg, ok := m.pkgs[x]; ok {
		if !pkg[y] {
			return m.members[x] != nil && m.hasMember(x, y, map[string]bool{})
		}
		if len(chain) > 2 && token.IsExported(chain[2]) && m.members[y] != nil {
			return m.hasMember(y, chain[2], map[string]bool{})
		}
		return true
	}
	if m.members[x] != nil {
		return m.hasMember(x, y, map[string]bool{})
	}
	return true
}

// TestDocReferencesResolve fails for every backticked `X.Y` in the docs
// where X is a package or type of this module and Y, an exported name, is
// not declared there (fields and methods reached through an embedded
// struct count), and for every backticked test name (`TestX`, `FuzzX`,
// `BenchmarkX`, `ExampleX`, a `*` matching any run of characters) that no
// _test.go of the module declares. Fenced code blocks are skipped;
// lowercase selectors such as metric names, and packages outside the
// module, are not checked.
func TestDocReferencesResolve(t *testing.T) {
	m := indexModule(t)
	tests := moduleTests(t)
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, loc := range selChain.FindAllStringIndex(span[1], -1) {
					if loc[0] > 0 && strings.ContainsRune(".)]", rune(span[1][loc[0]-1])) {
						continue
					}
					ref := span[1][loc[0]:loc[1]]
					if !m.resolves(strings.Split(ref, ".")) {
						t.Errorf("%s:%d: `%s` does not resolve in the module", doc, n+1, ref)
					}
				}
				for _, name := range testName.FindAllString(span[1], -1) {
					if !testResolves(tests, name) {
						t.Errorf("%s:%d: test `%s` is not declared in the module", doc, n+1, name)
					}
				}
			}
		}
	}
}

package hbb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusStructs are the module's config structs: every exported field
// must be set by some caller outside tests, or it is a constant in
// disguise. Keys are "import path.Type".
var censusStructs = []string{
	"hbb.Options",
	"hbb.SwarmOptions",
	"hbb/internal/core.Config",
	"hbb/internal/dfs.ServiceConfig",
	"hbb/internal/hdfs.Config",
	"hbb/internal/lustre.Config",
	"hbb/internal/cluster.FleetConfig",
	"hbb/internal/swarm.Config",
	"hbb/internal/memcached/mccluster.Options",
	"hbb/internal/memcached.Config",
	"hbb/internal/memcached/mcclient.ReconnectPolicy",
}

// censusExempt lists fields kept without a non-test setter, and why.
var censusExempt = map[string]string{
	"hbb/internal/lustre.Config.OSTCapacity": "the only Lustre out-of-space fault seam; core and lustre tests set it",
}

// TestSettingsCensus parses every non-test Go file of the module and
// fails for each exported field of a census struct that nothing sets: no
// composite-literal key and no field assignment outside the struct's own
// package's withDefaults and Validate. Assignments count when the
// variable's type is evident in the enclosing function (a parameter,
// receiver, typed var, or a := from a composite literal).
func TestSettingsCensus(t *testing.T) {
	files := moduleFiles(t)

	fields := map[string][]string{} // struct key -> exported field names
	for _, key := range censusStructs {
		pkg, name := splitKey(key)
		for _, f := range files[pkg] {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() {
								fields[key] = append(fields[key], id.Name)
							}
						}
					}
				}
				return false
			})
		}
		if len(fields[key]) == 0 {
			t.Fatalf("census struct %s not found", key)
		}
	}

	set := map[string]bool{} // "struct key.Field"
	for pkg, pkgFiles := range files {
		for _, f := range pkgFiles {
			c := &censusFile{pkg: pkg, imports: importNames(f), fields: fields, set: set}
			for _, decl := range f.Decls {
				c.fn, c.vars = "", map[string]string{}
				if fd, ok := decl.(*ast.FuncDecl); ok {
					c.fn = fd.Name.Name
					c.bindFields(fd.Recv)
					c.bindFields(fd.Type.Params)
				}
				ast.Inspect(decl, c.visit)
			}
		}
	}

	var unset []string
	for key, names := range fields {
		for _, name := range names {
			if k := key + "." + name; !set[k] && censusExempt[k] == "" {
				unset = append(unset, k)
			}
		}
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("%s is set by no caller outside tests: make it a constant or delete it", k)
	}
}

// moduleFiles parses every non-test Go file of the module, keyed by
// import path.
func moduleFiles(t *testing.T) map[string][]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := "hbb"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func splitKey(key string) (pkg, name string) {
	i := strings.LastIndex(key, ".")
	return key[:i], key[i+1:]
}

// importNames maps a file's import names to import paths.
func importNames(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = p
	}
	return m
}

// censusFile walks one file, recording census fields it sets.
type censusFile struct {
	pkg     string
	imports map[string]string
	fields  map[string][]string
	set     map[string]bool
	fn      string            // enclosing function declaration, "" at package level
	vars    map[string]string // variable -> census struct key, per function
}

// structOf resolves a type expression to a census struct key, or "".
func (c *censusFile) structOf(e ast.Expr) string {
	var key string
	switch e := e.(type) {
	case *ast.StarExpr:
		return c.structOf(e.X)
	case *ast.UnaryExpr:
		return c.structOf(e.X)
	case *ast.CompositeLit:
		return c.structOf(e.Type)
	case *ast.Ident:
		key = c.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && c.imports[x.Name] != "" {
			key = c.imports[x.Name] + "." + e.Sel.Name
		}
	}
	if _, ok := c.fields[key]; ok {
		return key
	}
	return ""
}

func (c *censusFile) bindFields(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, fld := range fl.List {
		if key := c.structOf(fld.Type); key != "" {
			for _, id := range fld.Names {
				c.vars[id.Name] = key
			}
		}
	}
}

// mark records a setter unless it is the struct's own defaulting or
// validation.
func (c *censusFile) mark(key, field string) {
	pkg, _ := splitKey(key)
	if pkg == c.pkg && (c.fn == "withDefaults" || c.fn == "Validate") {
		return
	}
	c.set[key+"."+field] = true
}

func (c *censusFile) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		c.bindFields(n.Type.Params)
	case *ast.ValueSpec:
		if key := c.structOf(n.Type); key != "" {
			for _, id := range n.Names {
				c.vars[id.Name] = key
			}
		}
	case *ast.CompositeLit:
		if key := c.structOf(n.Type); key != "" {
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						c.mark(key, id.Name)
					}
				}
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE && len(n.Rhs) == len(n.Lhs) {
				if key := c.structOf(n.Rhs[i]); key != "" {
					c.vars[id.Name] = key
				}
			}
			c.assigned(lhs)
		}
	case *ast.IncDecStmt:
		c.assigned(n.X)
	}
	return true
}

// assigned records x.Field = … when x's census type is known.
func (c *censusFile) assigned(lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if x, ok := sel.X.(*ast.Ident); ok && c.vars[x.Name] != "" {
		c.mark(c.vars[x.Name], sel.Sel.Name)
	}
}

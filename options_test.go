package lonviz

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

// optionType names a struct type by the directory of its package (relative
// to the module root) and its name.
type optionType struct{ dir, name string }

// optionField is one exported field of a …Config or …Options struct.
type optionField struct {
	typ  optionType
	name string
	file string
}

// fieldSet is one place that sets a field: a composite-literal key (typ is
// the literal's type when the source names it), an assignment to x.Field,
// or &x.Field (typ unknown: without type checking, any struct's field of
// that name counts).
type fieldSet struct {
	typ   *optionType
	field string
	file  string
}

// TestEveryOptionHasASetter: every exported field of a …Config or …Options
// struct outside bench/ is set by some file other than the one declaring it
// — a main, a test, an example, the benchmark. A field that nothing sets is
// one value in every run, so it is a constant, not an option; this test
// keeps such fields from accumulating.
func TestEveryOptionHasASetter(t *testing.T) {
	fields, sets := scanOptions(t)
	if len(fields) < 100 {
		t.Fatalf("found only %d exported Config/Options fields; is the walk broken?", len(fields))
	}
	t.Logf("%d exported Config/Options fields outside bench/", len(fields))

	set := map[string][]fieldSet{}
	for _, s := range sets {
		set[s.field] = append(set[s.field], s)
	}
	var unset []string
	for _, f := range fields {
		found := false
		for _, s := range set[f.name] {
			if s.file != f.file && (s.typ == nil || *s.typ == f.typ) {
				found = true
				break
			}
		}
		if !found {
			unset = append(unset, f.file+": "+path.Base(f.typ.dir)+"."+f.typ.name+"."+f.name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no other file: make it a constant or delete it", u)
	}
}

// scanOptions parses every .go file under the module root: it returns the
// exported fields of …Config/…Options structs declared in non-test files
// outside bench/, and every place any file (tests and bench/ included) sets
// a field.
func scanOptions(t *testing.T) ([]optionField, []fieldSet) {
	t.Helper()
	fset := token.NewFileSet()
	var fields []optionField
	var sets []fieldSet
	aliases := map[optionType]optionType{}
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		// imports maps this file's names for the module's packages to
		// their directories.
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(ip, "lonviz/") {
				continue
			}
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = strings.TrimPrefix(ip, "lonviz/")
		}
		// typeOf resolves a type expression to the type it names, if it
		// names one of this module's types.
		typeOf := func(e ast.Expr) *optionType {
			switch x := e.(type) {
			case *ast.Ident:
				return &optionType{dir, x.Name}
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok {
					if d, ok := imports[pkg.Name]; ok {
						return &optionType{d, x.Sel.Name}
					}
				}
			}
			return nil
		}
		declares := !strings.HasSuffix(p, "_test.go") && dir != "bench" && !strings.HasPrefix(dir, "bench/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if x.Assign.IsValid() {
					if to := typeOf(x.Type); to != nil {
						aliases[optionType{dir, x.Name.Name}] = *to
					}
				}
				st, ok := x.Type.(*ast.StructType)
				name := x.Name.Name
				if !ok || !declares || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, optionField{optionType{dir, name}, id.Name, p})
						}
					}
				}
			case *ast.CompositeLit:
				var typ *optionType
				if x.Type != nil {
					if typ = typeOf(x.Type); typ == nil {
						return true // a literal of another module's type
					}
				}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							sets = append(sets, fieldSet{typ, key.Name, p})
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						sets = append(sets, fieldSet{nil, sel.Sel.Name, p})
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := x.X.(*ast.SelectorExpr); ok {
					sets = append(sets, fieldSet{nil, sel.Sel.Name, p})
				}
			case *ast.UnaryExpr:
				if sel, ok := x.X.(*ast.SelectorExpr); ok && x.Op == token.AND {
					sets = append(sets, fieldSet{nil, sel.Sel.Name, p})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sets {
		if s.typ == nil {
			continue
		}
		if to, ok := aliases[*s.typ]; ok {
			sets[i].typ = &to
		}
	}
	return fields, sets
}

package mmogdc

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

// exportedWithoutCallerAllowed names the exported internal/ functions
// that may have no non-test caller. obs.NewManualClock is the fake
// clock the tests of several packages share.
var exportedWithoutCallerAllowed = map[string]bool{
	"obs.NewManualClock": true,
}

// TestExportedFuncsHaveNonTestCallers fails when an exported top-level
// function or method declared under internal/ has a name that no
// non-test .go file in the tree (bench/, cmd/, examples/ and scripts/
// included) uses as an identifier outside the function's own
// declaration. Such a function ships code that only tests run. The
// match is by name alone, so a method shares its callers with every
// other function or field of the same name.
func TestExportedFuncsHaveNonTestCallers(t *testing.T) {
	type decl struct {
		key        string
		name       string
		file       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key = f.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, path, fn.Pos(), fn.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, d := range decls {
		if exportedWithoutCallerAllowed[d.key] {
			continue
		}
		used := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			orphans = append(orphans, d.key+" ("+filepath.ToSlash(d.file)+")")
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("%d exported function(s) under internal/ have no non-test caller; delete them or call them:\n\t%s",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
}

// recvTypeName returns the type name of a method receiver, without
// pointer or type parameters.
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

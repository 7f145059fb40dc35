package mmogdc

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedWithoutCallerAllowed names the exported internal/
// declarations that may have no non-test use. obs.NewManualClock is
// the fake clock the tests of several packages share.
var exportedWithoutCallerAllowed = map[string]bool{
	"obs.NewManualClock": true,
}

// TestExportedFuncsHaveNonTestCallers fails when an exported top-level
// func, method, var, const or type declared under internal/ has no use
// in the non-test .go files of the tree (bench/, cmd/, examples/ and
// scripts/ included) outside its own declaration. Such a declaration
// ships code that only tests run.
//
// Every non-test file is type-checked, and a use is an identifier that
// resolves to the declared object itself, so a method shares no uses
// with another of the same name. Calls through an interface reach the
// concrete method only at run time: a method counts as used when a
// used interface method has its name, and String and Error always
// count, since the standard library calls them.
func TestExportedFuncsHaveNonTestCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by slash-separated directory
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	im := &treeImporter{fset: fset, files: files, info: info,
		std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	for dir := range files {
		if _, err := im.check(dir); err != nil {
			t.Fatal(err)
		}
	}

	// Each exported internal/ declaration, with the span its own
	// identifiers (a recursive call, a receiver) may use it from.
	type decl struct {
		key        string
		obj        types.Object
		start, end token.Pos
	}
	var decls []decl
	for dir, dirFiles := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range dirFiles {
			pkg := f.Name.Name
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					key := pkg + "." + d.Name.Name
					if d.Recv != nil {
						key = pkg + "." + recvTypeName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls = append(decls, decl{key, info.Defs[d.Name], d.Pos(), d.End()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, decl{pkg + "." + s.Name.Name, info.Defs[s.Name], s.Pos(), s.End()})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls = append(decls, decl{pkg + "." + n.Name, info.Defs[n], s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}

	uses := map[types.Object][]token.Pos{}
	usedByInterface := map[string]bool{"String": true, "Error": true}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // the declared method, not a generic instance
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				usedByInterface[fn.Name()] = true
			}
		}
		uses[obj] = append(uses[obj], id.Pos())
	}

	var orphans []string
	for _, d := range decls {
		if exportedWithoutCallerAllowed[d.key] {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && usedByInterface[fn.Name()] {
			continue
		}
		used := false
		for _, p := range uses[d.obj] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			orphans = append(orphans, d.key+" ("+fset.Position(d.start).Filename+")")
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("%d exported declaration(s) under internal/ have no non-test use; delete them or use them:\n\t%s",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
}

// treeImporter type-checks the tree's packages from the parsed files,
// recording every package's uses into one types.Info, and imports the
// standard library from source.
type treeImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package // by directory
}

// Import implements types.Importer: this module's packages (and the
// bench module's, which names this one mmogdc too) come from the tree.
func (im *treeImporter) Import(p string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(p, "mmogdc/"); ok {
		return im.check(dir)
	}
	return im.std.Import(p)
}

func (im *treeImporter) check(dir string) (*types.Package, error) {
	if pkg, ok := im.pkgs[dir]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path.Join("mmogdc", dir), im.fset, im.files[dir], im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[dir] = pkg
	return pkg, nil
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

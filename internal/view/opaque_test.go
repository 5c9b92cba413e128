package view

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestViewOpaqueOutsidePackage type-checks every non-test package of the
// module except this one (the root facade, cmd/, examples/, internal/*) and
// fails on each place that uses a View as the Go map it is: an index, a
// range, len/cap/delete/clear/make, a composite literal, or a maps.* or
// reflect.* call taking one. The representation is this package's to
// change; every other package goes through View's methods.
func TestViewOpaqueOutsidePackage(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var pkgs []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard && p.ImportPath != "coormv2/internal/view" {
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var sites []string
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if kind := mapUse(n, info); kind != "" {
					pos := fset.Position(n.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					sites = append(sites, fmt.Sprintf("%s:%d %s", rel, pos.Line, kind))
				}
				return true
			})
		}
	}
	for _, s := range sites {
		t.Error(s)
	}
	if len(sites) > 0 {
		t.Errorf("%d sites outside package view use a View as a map", len(sites))
	}
}

// mapUse names the map operation n applies to a View, or returns "".
func mapUse(n ast.Node, info *types.Info) string {
	isView := func(e ast.Expr) bool {
		named, ok := types.Unalias(info.Types[e].Type).(*types.Named)
		return ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "coormv2/internal/view" && named.Obj().Name() == "View"
	}
	switch n := n.(type) {
	case *ast.IndexExpr:
		if isView(n.X) {
			return "index"
		}
	case *ast.RangeStmt:
		if isView(n.X) {
			return "range"
		}
	case *ast.CompositeLit:
		if isView(n) {
			return "literal"
		}
	case *ast.CallExpr:
		var kind string
		switch fun := ast.Unparen(n.Fun).(type) {
		case *ast.Ident:
			if b, ok := info.Uses[fun].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "delete", "clear", "make":
					kind = b.Name()
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "maps", "reflect":
					kind = fn.Pkg().Path() + "." + fn.Name()
				}
			}
		}
		if kind == "" {
			return ""
		}
		for _, a := range n.Args {
			if isView(a) {
				return kind
			}
		}
	}
	return ""
}

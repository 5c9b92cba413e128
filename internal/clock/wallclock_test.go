package clock

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wallClockCalls are the package time functions that read or wait on the
// wall clock.
var wallClockCalls = []string{"Now", "Since", "Until", "AfterFunc", "After", "NewTimer", "NewTicker", "Tick", "Sleep"}

// wallClockSite is one allowed use: n calls of time.<call> in function fn
// (Type.Method for a method) of file, relative to the module root.
type wallClockSite struct {
	file, fn, call string
	n              int
	reason         string
}

// allowedWallClock lists every wall-clock read or wait outside this package
// in the module's non-test code (bench/, its own module, is not walked).
// Everything else reads time through a Clock, so it runs the same on the
// simulator and on the real clock.
var allowedWallClock = []wallClockSite{
	{"cmd/coormctl/main.go", "runCmd", "After", 2, "a command-line client waits on the real network"},
	{"cmd/coormctl/main.go", "watchCmd", "After", 1, "a command-line client waits on the real network"},
	{"examples/netdemo/main.go", "run", "Now", 4, "a demo driver on the real network"},
	{"examples/netdemo/main.go", "run", "Sleep", 2, "a demo driver on the real network"},
	{"internal/experiments/netchaos.go", "runNetChaos", "Now", 6, "the net-chaos driver measures real outages on loopback TCP"},
	{"internal/experiments/netchaos.go", "runNetChaos", "Since", 2, "the net-chaos driver measures real outages on loopback TCP"},
	{"internal/experiments/netchaos.go", "runNetChaos", "Sleep", 3, "the net-chaos driver paces real connections"},
	{"internal/netchaos/netchaos.go", "Proxy.pipe", "Sleep", 1, "the proxy's injected delay is its purpose"},
	{"internal/transport/client.go", "dial", "Now", 1, "the backoff jitter's default seed"},
	{"internal/transport/client.go", "Client.handshake", "Now", 1, "a socket deadline"},
	{"internal/transport/server.go", "connWriter.run", "Now", 1, "a socket deadline"},
	{"internal/transport/server.go", "connWriter.drainThenClose", "After", 1, "the bounded drain of a closing socket"},
	{"internal/transport/server.go", "Server.sendRaw", "Now", 1, "a socket deadline"},
}

// TestWallClockSitesListed fails on every wall-clock call in the module's
// non-test code, outside this package and bench/, that allowedWallClock does
// not list, and on every listed site that is gone or whose count changed.
func TestWallClockSitesListed(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	got := map[wallClockSite]int{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch {
			case rel == "bench", rel == "internal/clock", d.Name() == "testdata", rel != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		for site, n := range wallClockUses(t, path) {
			site.file = rel
			got[site] += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allowedWallClock {
		key := wallClockSite{file: a.file, fn: a.fn, call: a.call}
		if got[key] != a.n {
			t.Errorf("%s %s: %d time.%s calls, %d listed", a.file, a.fn, got[key], a.call, a.n)
		}
		delete(got, key)
	}
	var unlisted []string
	for s, n := range got {
		unlisted = append(unlisted, fmt.Sprintf("%s %s: %d time.%s calls", s.file, s.fn, n, s.call))
	}
	slices.Sort(unlisted)
	for _, s := range unlisted {
		t.Errorf("%s not listed: read time through a clock.Clock, or list the site with its reason", s)
	}
}

// wallClockUses counts the wall-clock calls of one file by enclosing
// top-level function (fn and call set, file empty).
func wallClockUses(t *testing.T, path string) map[wallClockSite]int {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			pkg = "time"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	uses := map[wallClockSite]int{}
	if pkg == "" {
		return uses
	}
	for _, decl := range f.Decls {
		fn := "package level"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				fn = typ.(*ast.Ident).Name + "." + fn
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && slices.Contains(wallClockCalls, sel.Sel.Name) {
				uses[wallClockSite{fn: fn, call: sel.Sel.Name}]++
			}
			return true
		})
	}
	return uses
}

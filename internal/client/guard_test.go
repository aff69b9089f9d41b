package client_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// wireSpeakers are the directories that may build a KindRequest envelope
// or test for a KindReply one: this package, the vocabulary, the engines
// and the layers that carry, trace or count envelopes of every kind —
// plus test support and the frozen benchmark/.
var wireSpeakers = map[string]bool{
	"amcast": true, "benchmark": true,
	"internal/client": true, "internal/prototest": true,
	"internal/core": true, "internal/skeen": true, "internal/hierarchical": true,
	"internal/codec": true, "internal/runtime": true, "internal/trace": true, "internal/telemetry": true,
}

// named reports whether e is the identifier name, bare or qualified.
func named(e ast.Expr, name string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.SelectorExpr:
		return e.Sel.Name == name
	}
	return false
}

// TestOneClientOneHost keeps the two ends of the wire from growing second
// implementations. Outside the wire speakers no non-test code writes a
// KindRequest envelope literal or compares a kind with KindReply — clients
// issue and collect through Calls — and runtime.NewNode is called from
// runtime.Host alone, so a node meets its transport in one function.
func TestOneClientOneHost(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
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
		dir := filepath.ToSlash(filepath.Dir(rel))
		speaker := wireSpeakers[dir]
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			host := dir == "internal/runtime" && fn != nil && fn.Recv == nil && fn.Name.Name == "Host"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if !speaker && named(n.Key, "Kind") && named(n.Value, "KindRequest") {
						t.Errorf("%s builds a KindRequest envelope; issue requests through client.Calls", fset.Position(n.Pos()))
					}
				case *ast.BinaryExpr:
					if !speaker && (n.Op == token.EQL || n.Op == token.NEQ) && (named(n.X, "KindReply") || named(n.Y, "KindReply")) {
						t.Errorf("%s tests for KindReply; collect replies through client.Calls", fset.Position(n.Pos()))
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						if !speaker && named(e, "KindReply") {
							t.Errorf("%s switches on KindReply; collect replies through client.Calls", fset.Position(e.Pos()))
						}
					}
				case *ast.CallExpr:
					if !host && dir != "benchmark" && named(n.Fun, "NewNode") {
						if sel, ok := n.Fun.(*ast.SelectorExpr); dir == "internal/runtime" || ok && named(sel.X, "runtime") {
							t.Errorf("%s calls runtime.NewNode; host engines through runtime.Host", fset.Position(n.Pos()))
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

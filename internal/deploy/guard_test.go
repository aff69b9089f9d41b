package deploy_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOneHomeForTheProtocolDecision keeps the protocol switch from
// growing back: outside this package (and the frozen benchmark/), no
// non-test package may import more than one of the three engine
// packages, and none may name an engine's UnmarshalSnapshot except the
// engine's own package.
func TestOneHomeForTheProtocolDecision(t *testing.T) {
	const root = "../.."
	engines := map[string]bool{
		"flexcast/internal/core":         true,
		"flexcast/internal/skeen":        true,
		"flexcast/internal/hierarchical": true,
	}
	imported := make(map[string]map[string]bool) // package dir -> engine packages it imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			hidden := strings.HasPrefix(d.Name(), ".") && rel != "."
			if hidden || rel == "benchmark" || rel == filepath.Join("internal", "deploy") {
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
		dir := filepath.Dir(rel)
		local := make(map[string]string) // file-local name -> engine package path
		for _, imp := range f.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			if !engines[pkg] || "flexcast/"+filepath.ToSlash(dir) == pkg {
				continue
			}
			if imported[dir] == nil {
				imported[dir] = make(map[string]bool)
			}
			imported[dir][pkg] = true
			name := pkg[strings.LastIndexByte(pkg, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "UnmarshalSnapshot" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
				t.Errorf("%s names %s.UnmarshalSnapshot; snapshot decoders are composed in internal/deploy only",
					fset.Position(sel.Pos()), local[x.Name])
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, pkgs := range imported {
		if len(pkgs) > 1 {
			var names []string
			for pkg := range pkgs {
				names = append(names, pkg)
			}
			sort.Strings(names)
			t.Errorf("package %s imports %d protocol engines (%s); resolve the protocol through internal/deploy instead",
				dir, len(pkgs), strings.Join(names, ", "))
		}
	}
}

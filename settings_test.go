package lcigraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoEnvironmentReads: settings travel by value from the one place that
// parses them. Only internal/launch, which owns the rank handoff, may touch
// the process environment; no other library package and not the
// experiments driver may read or write it.
func TestNoEnvironmentReads(t *testing.T) {
	banned := map[string]bool{"Getenv": true, "LookupEnv": true, "Setenv": true, "Environ": true}
	var files []string
	for _, root := range []string{"internal", filepath.Join("cmd", "experiments")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && (path == filepath.Join("internal", "launch") || d.Name() == "testdata"):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) == 0 {
		t.Fatal("no Go files scanned")
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		osName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == osName && banned[sel.Sel.Name] {
				t.Errorf("%s: os.%s outside internal/launch; pass the setting by value",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

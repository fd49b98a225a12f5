package repro

// The documentation gate: CI fails if any package loses its package-level
// documentation, or if a `go test -run` pattern in CI or the Makefile names
// a test that no longer exists. Run directly via `make checkdocs`.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPackageDocs walks every package directory in the module and
// requires at least one non-test file carrying a package doc comment.
func TestPackageDocs(t *testing.T) {
	dirs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	var undocumented []string
	for dir, files := range dirs {
		documented := false
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Errorf("%s: %v", f, err)
				continue
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			undocumented = append(undocumented, dir)
		}
	}

	if len(dirs) < 20 {
		t.Fatalf("doc gate only found %d packages — the walk is broken", len(dirs))
	}
	for _, dir := range undocumented {
		t.Errorf("package %s has no package-level documentation (add a doc comment or a doc.go)", dir)
	}
}

// TestRunPatternsNameDeclaredTests requires every alternative of every
// `go test -run` pattern in the CI workflow and the Makefile to be a
// prefix of a declared Test or Fuzz function (an exact name if anchored
// with $), so a renamed or deleted test cannot silently drop out of an
// explicit CI step.
// A pattern that matches nothing on purpose ('^$', before -bench or
// -fuzz) is skipped.
func TestRunPatternsNameDeclaredTests(t *testing.T) {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range af.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`(?:go|\$\(GO\)) test[^\n]*?\s-run\s+('[^']*'|\S+)`)
	patterns := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range runFlag.FindAllStringSubmatch(string(src), -1) {
			for _, alt := range strings.Split(strings.Trim(m[1], "'"), "|") {
				alt = strings.TrimPrefix(alt, "^")
				exact := strings.HasSuffix(alt, "$")
				if alt = strings.TrimRight(alt, "$"); alt == "" {
					continue
				}
				patterns++
				found := false
				for _, n := range names {
					if n == alt || !exact && strings.HasPrefix(n, alt) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: -run alternative %q names no declared Test or Fuzz function", file, alt)
				}
			}
		}
	}
	if patterns < 10 {
		t.Fatalf("found only %d -run alternatives — the scan is broken", patterns)
	}
}

package safeplan_test

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

// TestFacadeReachability keeps the facade free of entry points nobody is
// shown how to use: every exported function of safeplan.go must be named
// as safeplan.<Name> by a program under examples/, by an Example function
// of the root package's tests, or by code (a fenced block or an inline
// code span) in README.md.
func TestFacadeReachability(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "safeplan.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range facade.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
			names = append(names, fn.Name.Name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no exported functions found in safeplan.go")
	}

	var corpus strings.Builder
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		corpus.Write(src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				corpus.Write(src[fset.Position(fn.Pos()).Offset:fset.Position(fn.End()).Offset])
			}
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range readmeCode(string(readme)) {
		corpus.WriteString(code)
		corpus.WriteByte('\n')
	}

	text := corpus.String()
	for _, name := range names {
		if !regexp.MustCompile(`\bsafeplan\.` + name + `\b`).MatchString(text) {
			t.Errorf("safeplan.%s is named by no example, Example function or README code", name)
		}
	}
}

// readmeCode returns the fenced code blocks and the inline code spans of
// a Markdown document.
func readmeCode(md string) []string {
	var code []string
	inFence := false
	var prose strings.Builder
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			code = append(code, line)
		} else {
			prose.WriteString(line)
			prose.WriteByte('\n')
		}
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		code = append(code, m[1])
	}
	return code
}

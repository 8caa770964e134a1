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
	goSources(t, "examples", func(_ string, src []byte) { corpus.Write(src) })
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

// goSources calls fn with the path and contents of every .go file under
// root, test files included, skipping testdata and hidden directories.
func goSources(t *testing.T, root string, fn func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err == nil {
			fn(path, src)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// internalAllowlist names the exported internal declarations that no
// non-test Go file names but that are kept anyway, one name and its
// reason per line ('#' starts a comment line).
const internalAllowlist = "testdata/internal_reachability_allow.txt"

// TestInternalReachability keeps internal/ free of exported code nothing
// calls: every exported func, method, type, const and var declared in a
// non-test file under internal/ must be named by an identifier in some
// non-test .go file of the module or of perfbench/ (its own declaration
// and method receivers' types do not count), or be listed with a reason
// in internalAllowlist.  An allowlist entry whose name is no longer
// declared, or now has a caller, is stale and fails too.  Matching is by
// name, so a name that another declaration shares counts as called.
func TestInternalReachability(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> "file:line" of each declaration
	uses := map[string]bool{}
	goSources(t, ".", func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		own := receiverTypes(f)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, id := range exportedDecls(f) {
				own[id] = true
				declared[id.Name] = append(declared[id.Name], fset.Position(id.Pos()).String())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name] = true
			}
			return true
		})
	})
	if len(declared) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	n := 0
	for _, where := range declared {
		n += len(where)
	}
	t.Logf("%d exported declarations (%d names) under internal/", n, len(declared))

	allow, err := os.ReadFile(internalAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(allow), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("%s:%d: %s has no reason", internalAllowlist, i+1, name)
		case declared[name] == nil:
			t.Errorf("%s:%d: stale entry: %s is not declared under internal/", internalAllowlist, i+1, name)
		case uses[name]:
			t.Errorf("%s:%d: stale entry: %s now has a caller", internalAllowlist, i+1, name)
		}
		allowed[name] = true
	}

	for name, where := range declared {
		if !uses[name] && !allowed[name] {
			t.Errorf("%s (%s) is exported but named by no non-test Go file; delete it, move it into its package's tests, or allowlist it in %s",
				name, strings.Join(where, ", "), internalAllowlist)
		}
	}
}

// exportedDecls returns the identifiers of the exported top-level funcs,
// methods, types, consts and vars that f declares.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	add := func(id *ast.Ident) {
		if id.IsExported() {
			ids = append(ids, id)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return ids
}

// receiverTypes returns the type names in f's method receivers: a method
// of an otherwise unused type does not make the type used.
func receiverTypes(f *ast.File) map[*ast.Ident]bool {
	recv := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil {
			continue
		}
		ast.Inspect(fn.Recv, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				recv[id] = true
			}
			return true
		})
	}
	return recv
}

// TestGateTargetsExist keeps the Makefile's gates from going quietly
// empty: go test prints "[no tests to run]" and exits 0 when -run or
// -fuzz names no function.  So every |-alternative of each -run pattern
// and every -fuzz target on a `$(GO) test` line must match a Test or
// Fuzz function in at least one of the packages that line lists; -run
// '^$' (benchmarks or fuzzing only) is skipped.
func TestGateTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") || !strings.Contains(line, "$(GO) test") {
			continue
		}
		var pkgs, patterns []string
		fields := strings.Fields(line)
		for k := 0; k < len(fields); k++ {
			switch f := fields[k]; {
			case (f == "-run" || f == "-fuzz") && k+1 < len(fields):
				k++
				if p := strings.ReplaceAll(strings.Trim(fields[k], "'"), "$$", "$"); p != "^$" {
					patterns = append(patterns, p)
				}
			case strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, f)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		funcs := testFuncs(t, pkgs)
		for _, pattern := range patterns {
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: %q: %v", i+1, alt, err)
					continue
				}
				found := false
				for _, name := range funcs {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("Makefile:%d: %q matches no Test or Fuzz function in %v", i+1, alt, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz targets found in the Makefile")
	}
}

// testFuncs returns the names of the Test and Fuzz functions declared in
// the _test.go files of the given package patterns (./dir or ./dir/...).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		dir = filepath.Clean(dir)
		goSources(t, dir, func(path string, src []byte) {
			if !strings.HasSuffix(path, "_test.go") || (!recursive && filepath.Dir(path) != dir) {
				return
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
					(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					names = append(names, fn.Name.Name)
				}
			}
		})
	}
	return names
}

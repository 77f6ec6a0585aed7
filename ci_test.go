package shc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestChaosJobSelectsEverySeededTest keeps CI's chaos job complete: every
// Test function in the job's packages that reads CHAOS_SEED — directly, or
// through a same-package helper such as chaosSeed — must match the job's
// -run regex, or the seed sweep silently never runs it.
func TestChaosJobSelectsEverySeededTest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	run, pkgs := chaosJobSelection(t, string(raw))
	re, err := regexp.Compile(run)
	if err != nil {
		t.Fatalf("chaos job -run regex %q: %v", run, err)
	}
	seeded := 0
	for _, pkg := range pkgs {
		for _, name := range seededTests(t, pkg) {
			seeded++
			if !re.MatchString(name) {
				t.Errorf("%s (%s) reads CHAOS_SEED, but the chaos job's -run regex does not select it", name, pkg)
			}
		}
	}
	if seeded == 0 {
		t.Fatal("no test in the chaos job's packages reads CHAOS_SEED; the guard checked nothing")
	}
}

// chaosJobSelection extracts the -run regex and the package list from the
// go test command of the workflow's chaos job.
func chaosJobSelection(t *testing.T, workflow string) (run string, pkgs []string) {
	t.Helper()
	i := strings.Index(workflow, "\n  chaos:")
	if i < 0 {
		t.Fatal("ci.yml has no chaos job")
	}
	for _, line := range strings.Split(workflow[i:], "\n") {
		if !strings.Contains(line, "go test") || !strings.Contains(line, "-run '") {
			continue
		}
		rest := line[strings.Index(line, "-run '")+len("-run '"):]
		end := strings.IndexByte(rest, '\'')
		if end < 0 {
			t.Fatalf("unterminated -run regex in %q", line)
		}
		run = rest[:end]
		for _, f := range strings.Fields(rest[end+1:]) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			t.Fatalf("chaos job's go test names no package: %q", line)
		}
		return run, pkgs
	}
	t.Fatal("the chaos job has no go test command with a -run regex")
	return "", nil
}

// seededTests names the Test functions in dir's _test.go files that read
// CHAOS_SEED: their body holds the literal, or calls a function of the same
// package whose body does, however deep.
func seededTests(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := make(map[string]*ast.FuncDecl)
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Body != nil {
				funcs[fn.Name.Name] = fn
			}
		}
	}
	reads := make(map[string]bool)
	visiting := make(map[string]bool)
	var readsSeed func(name string) bool
	readsSeed = func(name string) bool {
		if r, done := reads[name]; done || visiting[name] {
			return r
		}
		visiting[name] = true
		found := false
		ast.Inspect(funcs[name].Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BasicLit:
				if x.Kind == token.STRING && x.Value == `"CHAOS_SEED"` {
					found = true
				}
			case *ast.Ident:
				if _, ok := funcs[x.Name]; ok && x.Name != name && readsSeed(x.Name) {
					found = true
				}
			}
			return !found
		})
		reads[name] = found
		return found
	}
	var out []string
	for name, fn := range funcs {
		if strings.HasPrefix(name, "Test") && len(fn.Type.Params.List) == 1 && readsSeed(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against // want "regexp" comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract: every diagnostic
// must be matched by a want on its line, and every want must be matched by
// a diagnostic.
//
// Fixtures live under <testdata>/src/<pkg>/*.go. Their imports are resolved
// from gc export data produced by `go list -export` in the test's directory,
// so fixtures may import the standard library and this module's packages.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ccubing/internal/lint/analysis"
	"ccubing/internal/lint/load"
)

// want is one expectation: a diagnostic on this line matching re.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run applies a to the fixture package at <testdata>/src/<pkg> and reports
// every mismatch between diagnostics and // want comments as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	fset := token.NewFileSet()
	files := parseDir(t, fset, filepath.Join(testdata, "src", pkg))
	wants, err := parseWants(fset, files)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, d := range analyze(t, fset, a, pkg, files) {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
}

// Diagnostics type-checks one in-memory source file and returns the
// analyzer's raw diagnostics, for cases a fixture's // want comments cannot
// express — e.g. findings positioned on a comment line.
func Diagnostics(t *testing.T, a *analysis.Analyzer, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	return analyze(t, fset, a, f.Name.Name, []*ast.File{f})
}

// DirDiagnostics type-checks the non-test files of dir as one package and
// returns the analyzer's raw diagnostics with their positions resolved: the
// entry point for running an analyzer over a copy of a real package.
func DirDiagnostics(t *testing.T, a *analysis.Analyzer, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var out []string
	for _, d := range analyze(t, fset, a, filepath.Base(dir), parseDir(t, fset, dir)) {
		pos := fset.Position(d.Pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message))
	}
	return out
}

// parseDir parses the non-test .go files of dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	filenames, err := load.Dir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	if len(filenames) == 0 {
		t.Fatalf("analysistest: no .go files in %s", dir)
	}
	files, err := load.Parse(fset, filenames)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	return files
}

// analyze type-checks files as package path and returns a's diagnostics.
func analyze(t *testing.T, fset *token.FileSet, a *analysis.Analyzer, path string, files []*ast.File) []analysis.Diagnostic {
	t.Helper()
	imp, err := fixtureImporter(fset, files)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	checked, err := load.CheckFiles(fset, path, files, imp)
	if err != nil {
		t.Fatalf("analysistest: type-checking %s: %v", path, err)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     checked.Files,
		Pkg:       checked.Pkg,
		TypesInfo: checked.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}
	return diags
}

// claim marks the first unmatched want on (file, line) whose regexp matches
// msg, reporting whether one existed.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// fixtureImporter resolves the fixture's imports via go list -export. A
// fixture with no imports needs no subprocess at all.
func fixtureImporter(fset *token.FileSet, files []*ast.File) (types.Importer, error) {
	seen := map[string]bool{}
	var paths []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			if path != "unsafe" && !seen[path] {
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		pkgs, err := load.GoList("", paths...)
		if err != nil {
			return nil, err
		}
		exports = load.Exports(pkgs)
	}
	return load.Importer(fset, exports, nil), nil
}

// wantRE matches the comment marker; the quoted regexps follow.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

func parseWants(fset *token.FileSet, files []*ast.File) ([]*want, error) {
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					if rest[0] != '"' && rest[0] != '`' {
						return nil, fmt.Errorf("%s:%d: malformed want: %s", pos.Filename, pos.Line, c.Text)
					}
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: malformed want %q: %v", pos.Filename, pos.Line, rest, err)
					}
					expr, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants, nil
}

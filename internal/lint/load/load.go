// Package load parses and type-checks packages for the cclint analyzers
// without depending on golang.org/x/tools/go/packages (unavailable offline).
//
// Imports are resolved from compiled gc export data, the same way the
// upstream unitchecker does: a lookup function maps an import path to an
// export-data file and importer.ForCompiler does the decoding. The file map
// comes either from a go vet vetConfig (PackageFile + ImportMap) or, for the
// analyzers' tests, from `go list -e -deps -export -json`, which also builds
// any missing export data into the build cache — including the standard
// library, so it works with no module downloads.
package load

import (
	"bytes"
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

	"ccubing/internal/lint/analysis"
)

// ListPackage mirrors the `go list -json` fields Exports consumes.
type ListPackage struct {
	ImportPath string
	Export     string
}

// GoList runs `go list -e -deps -export -json` on the patterns from dir
// (empty = current directory) and decodes the package stream.
func GoList(dir string, patterns ...string) ([]*ListPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}
	var pkgs []*ListPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Exports collects the import-path → export-data-file map from a go list
// result set.
func Exports(pkgs []*ListPackage) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}

// Importer returns a types.Importer that decodes gc export data. exports
// maps an import path to its export file; aliases (may be nil) maps an
// import path as written in source to the path to load instead (the
// vetConfig ImportMap for vendoring and test variants).
func Importer(fset *token.FileSet, exports, aliases map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if a, ok := aliases[path]; ok {
			path = a
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Package is one parsed, type-checked package ready to analyze.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Check parses filenames and type-checks them as one package. Type errors
// are returned joined but do not discard the (partial) result.
func Check(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	files, err := Parse(fset, filenames)
	if err != nil {
		return nil, err
	}
	return CheckFiles(fset, path, files, imp)
}

// Parse parses each file with comments retained.
func Parse(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckFiles type-checks already-parsed files as one package.
func CheckFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := analysis.NewInfo()
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	pkg, _ := conf.Check(path, fset, files, info)
	res := &Package{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}
	if len(typeErrs) > 0 {
		return res, fmt.Errorf("%s", strings.Join(typeErrs, "\n"))
	}
	return res, nil
}

// Dir lists the non-test .go files of a directory (lexical order), for
// loading fixture packages that bypass the go tool.
func Dir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	return out, nil
}

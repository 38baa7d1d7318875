// Command cclint is the repo's multichecker: it runs the internal/lint
// analyzers (poolescape, storemut, hotpathalloc) over Go packages. It speaks
// the go vet -vettool protocol and nothing else:
// `go vet -vettool=$(pwd)/cclint ./...` invokes the tool once per package,
// test-package variants included, with a vet.cfg file describing sources,
// import maps and export data.
//
// Exit status: 0 clean, 1 findings, 2 operational error (a crashed analyzer
// included). Each finding is printed as file:line:col: message (analyzer).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ccubing/internal/lint/analysis"
	"ccubing/internal/lint/hotpathalloc"
	"ccubing/internal/lint/load"
	"ccubing/internal/lint/poolescape"
	"ccubing/internal/lint/storemut"
)

var analyzers = []*analysis.Analyzer{
	poolescape.Analyzer,
	storemut.Analyzer,
	hotpathalloc.Analyzer,
}

func main() {
	args := os.Args[1:]
	// The go vet handshake probes the tool before using it: -flags asks for
	// the tool's flag schema, -V=full for a cache-busting version string.
	for _, arg := range args {
		switch {
		case arg == "-flags":
			fmt.Println("[]")
			return
		case strings.HasPrefix(arg, "-V"):
			fmt.Printf("cclint version devel buildID=%s\n", selfID())
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=cclint [packages]")
		os.Exit(2)
	}
	os.Exit(unitcheck(args[0], analyzers))
}

// selfID hashes the tool's own binary: go vet folds the -V=full output into
// its action cache key, so a rebuilt cclint invalidates stale results.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// vetConfig mirrors the JSON cmd/go writes to <objdir>/vet.cfg.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes the one package cfgPath describes and returns the exit
// status.
func unitcheck(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return fail(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(fmt.Errorf("%s: %v", cfgPath, err))
	}
	// cmd/go expects the facts file regardless of findings; this suite
	// exchanges no facts, so an empty one satisfies the cache.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return fail(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	files := cfg.GoFiles
	for i, f := range files {
		if !filepath.IsAbs(f) {
			files[i] = filepath.Join(cfg.Dir, f)
		}
	}
	imp := load.Importer(fset, cfg.PackageFile, cfg.ImportMap)
	pkg, err := load.Check(fset, cfg.ImportPath, files, imp)
	if err != nil && pkg == nil {
		return fail(err)
	}
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		return fail(fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err))
	}
	n, err := runAll(pkg, analyzers)
	if err != nil {
		return fail(err)
	}
	if n > 0 {
		return 1
	}
	return 0
}

// runAll applies every analyzer to the package, printing deduplicated
// diagnostics sorted by position, and returns how many were printed. An
// analyzer that fails to run is an error, not a clean package: what the others
// found is still printed.
func runAll(pkg *load.Package, analyzers []*analysis.Analyzer) (int, error) {
	type diag struct {
		pos      token.Position
		msg      string
		analyzer string
	}
	var diags []diag
	var errs []error
	seen := map[string]bool{}
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				// The same finding can surface from several analyzers
				// (e.g. a reasonless //ccubing:allow); print it once.
				key := fmt.Sprintf("%v: %s", p, d.Message)
				if seen[key] {
					return
				}
				seen[key] = true
				diags = append(diags, diag{pos: p, msg: d.Message, analyzer: a.Name})
			},
		}
		if _, err := a.Run(pass); err != nil {
			errs = append(errs, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err))
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].pos.Filename != diags[j].pos.Filename {
			return diags[i].pos.Filename < diags[j].pos.Filename
		}
		if diags[i].pos.Line != diags[j].pos.Line {
			return diags[i].pos.Line < diags[j].pos.Line
		}
		return diags[i].pos.Column < diags[j].pos.Column
	})
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%v: %s (%s)\n", d.pos, d.msg, d.analyzer)
	}
	return len(diags), errors.Join(errs...)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "cclint:", err)
	return 2
}

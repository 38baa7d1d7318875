package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ccubing/internal/lint/analysis"
)

// TestExitStatus pins the driver's contract with go vet: 0 clean, 1 findings,
// 2 when an analyzer failed to run — whatever the others found, a package
// whose analysis crashed is not a clean package.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	if err := os.WriteFile(src, []byte("package p\n\nfunc F() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(vetConfig{ImportPath: "p", Dir: dir, GoFiles: []string{"p.go"}})
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
		t.Fatal(err)
	}

	clean := &analysis.Analyzer{Name: "clean", Run: func(*analysis.Pass) (interface{}, error) { return nil, nil }}
	finds := &analysis.Analyzer{Name: "finds", Run: func(p *analysis.Pass) (interface{}, error) {
		p.Reportf(p.Files[0].Pos(), "a finding")
		return nil, nil
	}}
	crashes := &analysis.Analyzer{Name: "crashes", Run: func(*analysis.Pass) (interface{}, error) {
		return nil, errors.New("analysis failed")
	}}
	for _, c := range []struct {
		name      string
		analyzers []*analysis.Analyzer
		want      int
	}{
		{"clean", []*analysis.Analyzer{clean}, 0},
		{"finding", []*analysis.Analyzer{clean, finds}, 1},
		{"crash alone", []*analysis.Analyzer{clean, crashes}, 2},
		{"crash beside a finding", []*analysis.Analyzer{crashes, finds}, 2},
	} {
		if got := unitcheck(cfgPath, c.analyzers); got != c.want {
			t.Errorf("%s: exit status %d, want %d", c.name, got, c.want)
		}
	}
}

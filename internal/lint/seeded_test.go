// Package lint_test proves that each cclint analyzer earns its place: on a
// copy of the real package it guards, the one violation it exists for is
// found, and the unseeded copy is clean.
package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ccubing/internal/lint/analysis"
	"ccubing/internal/lint/analysistest"
	"ccubing/internal/lint/hotpathalloc"
	"ccubing/internal/lint/load"
	"ccubing/internal/lint/poolescape"
	"ccubing/internal/lint/storemut"
)

// cubestoreCopy copies internal/cubestore's non-test sources into a fresh
// package directory named cubestore.
func cubestoreCopy(t *testing.T) string {
	t.Helper()
	sources, err := load.Dir(filepath.Join("..", "cubestore"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cubestore")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// seedFile inserts seed into the file at path right behind the first
// occurrence of after, or at its end when after is empty.
func seedFile(t *testing.T, path, after, seed string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	at := len(text)
	if after != "" {
		if at = strings.Index(text, after); at < 0 {
			t.Fatalf("%s has no %q to seed behind", path, after)
		}
		at += len(after)
	}
	if err := os.WriteFile(path, []byte(text[:at]+seed+text[at:]), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzersFireOnSeededCubestore(t *testing.T) {
	clean := cubestoreCopy(t)
	for _, c := range []struct {
		a                 *analysis.Analyzer
		file, after, seed string
		want              string // regexp over "file:line: message"
	}{
		{hotpathalloc.Analyzer, "store.go", "func (s *Store) getScratch() *probeScratch {\n",
			"\t_ = fmt.Sprintf(\"seeded\")\n",
			`^store\.go:\d+: .*fmt\.Sprintf`},
		{storemut.Analyzer, "query.go", "",
			"\nfunc seeded(s *Store) { s.nd = 0 }\n",
			`^query\.go:\d+: .*frozen Store\.nd outside a //ccubing:mutates Store file`},
		{poolescape.Analyzer, "store.go", "",
			"\nfunc (s *Store) seeded() *probeScratch {\n\tsc := s.getScratch()\n\ts.putScratch(sc)\n\treturn sc\n}\n",
			`^store\.go:\d+: seeded returns a pooled value it also returns to the pool`},
	} {
		t.Run(c.a.Name, func(t *testing.T) {
			if got := analysistest.DirDiagnostics(t, c.a, clean); len(got) != 0 {
				t.Errorf("unseeded copy: %d findings, want none:\n%s", len(got), strings.Join(got, "\n"))
			}
			seeded := cubestoreCopy(t)
			seedFile(t, filepath.Join(seeded, c.file), c.after, c.seed)
			got := analysistest.DirDiagnostics(t, c.a, seeded)
			if len(got) != 1 || !regexp.MustCompile(c.want).MatchString(got[0]) {
				t.Errorf("seeded copy: findings %q, want exactly one matching %s", got, c.want)
			}
		})
	}
}

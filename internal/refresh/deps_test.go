package refresh

import (
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ccubing/internal/algs"
	"ccubing/internal/engine"
)

// TestImportBoundary pins the refresh's layering: it re-aggregates the cells
// a delta falls in by itself, so its non-test dependencies hold no engine, nor
// the algorithm table, nor the Sec. 6.3 decomposition. The engine packages
// are read off algs.Table, so an engine added there is covered too.
func TestImportBoundary(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH:", err)
	}
	out, err := exec.Command(goTool, "list", "-deps", "ccubing/internal/refresh").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "ccubing/internal/cubestore") {
		t.Fatalf("go list -deps names no cubestore, so it listed something else: %v", deps)
	}
	forbidden := []string{"ccubing/internal/parallel", "ccubing/internal/algs"}
	for _, r := range algs.Table {
		if r.Engine != nil {
			forbidden = append(forbidden, enginePackage(r.Engine))
		}
	}
	if len(forbidden) != 9 {
		t.Fatalf("forbidden packages %v: want parallel, algs and seven engines", forbidden)
	}
	for _, p := range forbidden {
		if slices.Contains(deps, p) {
			t.Errorf("internal/refresh depends on %s", p)
		}
	}
}

// enginePackage returns the import path of the package that declares e's
// Cube function.
func enginePackage(e *engine.Engine) string {
	name := runtime.FuncForPC(reflect.ValueOf(e.Cube).Pointer()).Name() // path/to/pkg.func[.closure]
	slash := strings.LastIndex(name, "/")
	return name[:slash+strings.Index(name[slash:], ".")]
}

package serve

// Shared test fixtures and HTTP helpers for the serving-layer tests.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ccubing"
)

// newMux serves a single in-process cube — the classic ccserve wiring the
// pre-split tests were written against.
func newMux(cube *ccubing.Cube, snapshot string, rate float64) http.Handler {
	l := NewLocal(cube)
	l.SetSnapshot(snapshot)
	return NewServer(l, Config{Rate: rate}).Handler()
}

// testCube materializes a small labeled cube.
func testCube(t *testing.T, minsup int64) (*ccubing.Cube, *ccubing.Dataset) {
	t.Helper()
	rows := [][]string{}
	for _, city := range []string{"oslo", "oslo", "oslo", "paris", "paris", "rome"} {
		for _, prod := range []string{"pen", "ink"} {
			rows = append(rows, []string{city, prod, "2025"})
		}
	}
	rows = append(rows, []string{"rome", "pen", "2024"})
	ds, err := ccubing.NewDataset([]string{"city", "product", "year"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: minsup})
	if err != nil {
		t.Fatal(err)
	}
	return cube, ds
}

// loadCube reads a cube snapshot back from disk (yielding a static cube,
// like ccserve -snapshot).
func loadCube(t testing.TB, path string) *ccubing.Cube {
	t.Helper()
	cube, err := ccubing.LoadCubeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// saveTo writes a cube snapshot into a temp file and returns the path.
func saveTo(t testing.TB, cube *ccubing.Cube) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.ccube")
	if err := cube.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	return resp
}

func mustCode(t *testing.T, cube *ccubing.Cube, dim int, label string) int32 {
	t.Helper()
	labels := make([]string, cube.NumDims())
	for i := range labels {
		labels[i] = "*"
	}
	labels[dim] = label
	vals, err := cube.ParseCell(labels)
	if err != nil {
		t.Fatal(err)
	}
	return vals[dim]
}

func mustVals(t *testing.T, cube *ccubing.Cube, labels ...string) []int32 {
	t.Helper()
	vals, err := cube.ParseCell(labels)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

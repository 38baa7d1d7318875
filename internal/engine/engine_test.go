package engine

import (
	"strings"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// TestValidate drives the one prologue every engine shares: what it refuses, what
// it answers without entering the cubing function, and what it lets through.
func TestValidate(t *testing.T) {
	tbl, err := table.FromRows([][]core.Value{{0, 1}, {1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	withAux := *tbl
	withAux.Aux = []float64{1, 2, 3}
	badValue := *tbl
	badValue.Cards = []int{1, 2}

	both := Capabilities{Closed: true, Iceberg: true}
	cases := []struct {
		name    string
		caps    Capabilities
		tbl     *table.Table
		cfg     Config
		wantErr string
		cubed   bool
	}{
		{"closed ok", Capabilities{Closed: true}, tbl, Config{MinSup: 1, Closed: true}, "", true},
		{"iceberg ok", Capabilities{Iceberg: true}, tbl, Config{MinSup: 3}, "", true},
		{"min_sup 0", both, tbl, Config{}, "min_sup 0 < 1", false},
		{"closed unsupported", Capabilities{Iceberg: true}, tbl, Config{MinSup: 1, Closed: true}, "E computes iceberg cubes only", false},
		{"iceberg unsupported", Capabilities{Closed: true}, tbl, Config{MinSup: 1}, "E computes closed cubes only", false},
		{"measure without column", both, tbl, Config{MinSup: 1, Measure: core.MeasureSum}, "no measure column", false},
		{"measure ok", both, &withAux, Config{MinSup: 1, Measure: core.MeasureSum}, "", true},
		{"invalid table", both, &badValue, Config{MinSup: 1}, "outside [0,1)", false},
		{"fewer tuples than min_sup", both, tbl, Config{MinSup: 4}, "", false},
		{"capabilities before the tuple count", Capabilities{Closed: true}, tbl, Config{MinSup: 4}, "closed cubes only", false},
	}
	for _, c := range cases {
		cubed := false
		e := Engine{Name: "E", Caps: c.caps, Cube: func(*table.Table, Config, sink.Sink) error {
			cubed = true
			return nil
		}}
		err := e.Run(c.tbl, c.cfg, &sink.Null{})
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
		if cubed != c.cubed {
			t.Errorf("%s: cubing function entered = %v, want %v", c.name, cubed, c.cubed)
		}
	}
}

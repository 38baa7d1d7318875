package engine

import (
	"strings"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

type fake struct {
	name string
	caps Capabilities
}

func (f fake) Name() string               { return f.name }
func (f fake) Capabilities() Capabilities { return f.caps }
func (f fake) Run(t *table.Table, cfg Config, out sink.Sink) error {
	return nil
}

func TestRegistry(t *testing.T) {
	e := fake{name: "test-engine", caps: Capabilities{Closed: true, Iceberg: true}}
	Register(e)
	got, ok := Lookup("test-engine")
	if !ok || got.Name() != "test-engine" {
		t.Fatalf("Lookup(test-engine) = %v, %v", got, ok)
	}
	if _, ok := Lookup("no-such-engine"); ok {
		t.Fatal("Lookup(no-such-engine) succeeded")
	}
	found := false
	for _, n := range Names() {
		if n == "test-engine" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing test-engine", Names())
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("nil", func() { Register(nil) })
	mustPanic("empty name", func() { Register(fake{}) })
	Register(fake{name: "dup-engine"})
	mustPanic("duplicate", func() { Register(fake{name: "dup-engine"}) })
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		caps    Capabilities
		hasAux  bool
		cfg     Config
		wantErr string
	}{
		{"closed ok", Capabilities{Closed: true}, false, Config{Closed: true}, ""},
		{"iceberg ok", Capabilities{Iceberg: true}, false, Config{}, ""},
		{"closed unsupported", Capabilities{Iceberg: true}, false, Config{Closed: true}, "iceberg cubes only"},
		{"iceberg unsupported", Capabilities{Closed: true}, false, Config{}, "closed cubes only"},
		{"measure without column", Capabilities{Iceberg: true}, false, Config{Measure: core.MeasureSum}, "no measure column"},
		{"measure ok", Capabilities{Iceberg: true}, true, Config{Measure: core.MeasureSum}, ""},
	}
	for _, c := range cases {
		err := Validate(fake{name: "E", caps: c.caps}, c.hasAux, c.cfg)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

package main

import (
	"testing"

	"ccubing"
)

// The -synth and -weather flags mean what ccubing.OpenDataset makes of them.

func TestBuildSynth(t *testing.T) {
	ds, err := ccubing.OpenDataset("", "T=500,D=4,C=6,S=1,R=1,seed=3", "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTuples() != 500 || ds.NumDims() != 4 {
		t.Fatalf("shape %dx%d", ds.NumDims(), ds.NumTuples())
	}
	if _, err := ccubing.OpenDataset("", "T=bad", ""); err == nil {
		t.Fatal("bad spec should fail")
	}
	if _, err := ccubing.OpenDataset("", "X=1", ""); err == nil {
		t.Fatal("unknown key should fail")
	}
}

func TestBuildWeather(t *testing.T) {
	ds, err := ccubing.OpenDataset("", "", "300,6")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTuples() != 300 || ds.NumDims() != 6 {
		t.Fatalf("shape %dx%d", ds.NumDims(), ds.NumTuples())
	}
	for _, bad := range []string{"300", "a,b", "300,6,7"} {
		if _, err := ccubing.OpenDataset("", "", bad); err == nil {
			t.Errorf("weather spec %q should fail", bad)
		}
	}
}

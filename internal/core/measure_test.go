package core

import (
	"math"
	"testing"
)

func TestMeasureKindString(t *testing.T) {
	names := map[MeasureKind]string{
		MeasureNone: "none", MeasureSum: "sum", MeasureMin: "min",
		MeasureMax: "max", MeasureAvg: "avg", MeasureKind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestMeasureAggAdd(t *testing.T) {
	for _, k := range []MeasureKind{MeasureSum, MeasureMin, MeasureMax, MeasureAvg} {
		a := NewMeasureAgg(k)
		for _, x := range []float64{3, 1, 2} {
			a.Add(x)
		}
		var want float64
		switch k {
		case MeasureSum:
			want = 6
		case MeasureMin:
			want = 1
		case MeasureMax:
			want = 3
		case MeasureAvg:
			want = 2
		}
		if a.Value() != want {
			t.Errorf("%v.Value() = %v, want %v", k, a.Value(), want)
		}
	}
}

func TestMeasureAggCombineMatchesAdd(t *testing.T) {
	xs := []float64{5, -2, 7, 0, 3.5}
	for _, k := range []MeasureKind{MeasureSum, MeasureMin, MeasureMax, MeasureAvg} {
		whole := NewMeasureAgg(k)
		for _, x := range xs {
			whole.Add(x)
		}
		left, right := NewMeasureAgg(k), NewMeasureAgg(k)
		for i, x := range xs {
			if i%2 == 0 {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Combine(right)
		if left.Value() != whole.Value() {
			t.Errorf("%v: combine=%v whole=%v", k, left.Value(), whole.Value())
		}
	}
}

func TestMeasureAggEmpty(t *testing.T) {
	if v := NewMeasureAgg(MeasureSum).Value(); v != 0 {
		t.Fatalf("empty sum = %v", v)
	}
	for _, k := range []MeasureKind{MeasureMin, MeasureMax, MeasureAvg} {
		if v := NewMeasureAgg(k).Value(); !math.IsNaN(v) {
			t.Fatalf("empty %v = %v, want NaN", k, v)
		}
	}
}

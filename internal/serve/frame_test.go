package serve

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"ccubing"
	"ccubing/internal/fuzzbound"
)

// avgLocal serves testCube's relation as an avg-measure cube.
func avgLocal(t testing.TB) *Local {
	t.Helper()
	var rows [][]string
	var aux []float64
	for i, city := range []string{"oslo", "oslo", "oslo", "paris", "paris", "rome"} {
		for j, prod := range []string{"pen", "ink"} {
			rows = append(rows, []string{city, prod, "2025"})
			aux = append(aux, float64(1+i+3*j))
		}
	}
	ds, err := ccubing.NewDataset([]string{"city", "product", "year"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{Measure: ccubing.MeasureAvg})
	if err != nil {
		t.Fatal(err)
	}
	return NewLocal(cube)
}

// TestFrameRoundTrip checks a decoded frame renders the answer the partial
// it was encoded from renders, and re-encodes to the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	l := avgLocal(t)
	for _, req := range []aggregateRequest{
		{GroupBy: []string{"city", "product"}},
		{GroupBy: []string{"product"}, AuxAgg: "max", OrderBy: "aux"},
		{GroupBy: []string{"year", "city"}, TopK: 2, AuxAgg: "sum"},
		{Where: []string{"atlantis", "*", "*"}, GroupBy: []string{"city"}}, // no rows
		{},
	} {
		p, err := l.AggregatePartial(req)
		if err != nil {
			t.Fatal(err)
		}
		frame := encodeFrame(nil, p)
		q, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if again := encodeFrame(nil, q); !bytes.Equal(again, frame) {
			t.Fatalf("%+v: re-encoded frame differs", req)
		}
		byAux := orderByAux(req)
		if got, want := q.finish(req.TopK, byAux), p.finish(req.TopK, byAux); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: decoded frame renders %+v, want %+v", req, got, want)
		}
	}
}

// FuzzPartialFrame feeds arbitrary bytes to decodeFrame. Property: an error,
// or a partial that encodes back to exactly the input (the layout is
// canonical) and renders without panicking — never an allocation sized by a
// count the input declares rather than bytes it holds. Seeds: a valid frame
// with every single-byte flip and every truncation, frames of the other
// shapes (no measure, empty group-by, no rows), and a header declaring four
// billion rows.
func FuzzPartialFrame(f *testing.F) {
	frameOf := func(l *Local, req aggregateRequest) []byte {
		p, err := l.AggregatePartial(req)
		if err != nil {
			f.Fatal(err)
		}
		return encodeFrame(nil, p)
	}
	avg := avgLocal(f)
	fuzzbound.Corpus(frameOf(avg, aggregateRequest{GroupBy: []string{"city", "product"}}), func(b []byte) { f.Add(b) })
	f.Add(frameOf(avg, aggregateRequest{GroupBy: []string{"product"}, AuxAgg: "min"}))
	f.Add(frameOf(avg, aggregateRequest{}))
	f.Add(frameOf(avg, aggregateRequest{Where: []string{"atlantis", "*", "*"}, GroupBy: []string{"city"}}))
	ds, err := ccubing.NewDataset([]string{"a", "b"}, [][]string{{"x", "p"}, {"x", "q"}, {"y", "p"}})
	if err != nil {
		f.Fatal(err)
	}
	plain, err := ccubing.Materialize(ds, ccubing.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameOf(NewLocal(plain), aggregateRequest{GroupBy: []string{"b"}}))
	bomb := encodeFrame(nil, &aggPartial{width: 3, exact: true})
	binary.LittleEndian.PutUint32(bomb[10:], 1<<32-1)
	f.Add(bomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		var p *aggPartial
		var err error
		fuzzbound.Check(t, len(data), func() { p, err = decodeFrame(data) })
		if err != nil {
			return
		}
		if again := encodeFrame(nil, p); !bytes.Equal(again, data) {
			t.Fatalf("decode → encode is not the identity:\n in  %x\n out %x", data, again)
		}
		if p.width <= 64 { // a rendered cell is width strings wide; keep the harness small
			p.finish(3, true)
			p.finish(0, false)
		}
	})
}

// Package partition is the out-of-core half of paper Sec. 6.3: Spill scans a
// relation once and writes it out as bucket files on one dimension's values,
// Load reads one bucket back. What is cut where, and the cubing itself, belong
// to internal/parallel, whose shard jobs load one bucket each; this package
// owns the file format and nothing else.
//
// A bucket file is a sequence of fixed-width little-endian records, one per
// tuple: a uint32 per dimension, then the IEEE-754 bits of the measure as a
// uint64 when the relation carries one.
package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"ccubing/internal/core"
	"ccubing/internal/table"
)

// Bucket names one spilled bucket file and the number of tuples in it.
type Bucket struct {
	Path   string
	Tuples int
}

// Spill streams t into nb bucket files under dir, bucketOf[value] picking the
// file of every tuple carrying that value on dimension dim, and returns the
// non-empty ones. All nb files are open during the scan.
func Spill(t *table.Table, dim int, bucketOf []int32, nb int, dir string) ([]Bucket, error) {
	if dim < 0 || dim >= t.NumDims() {
		return nil, fmt.Errorf("partition: dimension %d out of range", dim)
	}
	files := make([]*os.File, nb)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	buckets := make([]Bucket, nb)
	for b := range files {
		buckets[b].Path = filepath.Join(dir, fmt.Sprintf("bucket-%03d.bin", b))
		f, err := os.Create(buckets[b].Path)
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		files[b] = f
	}
	bufs := make([][]byte, nb)
	flush := func(b int) error {
		if _, err := files[b].Write(bufs[b]); err != nil {
			return fmt.Errorf("partition: %w", err)
		}
		bufs[b] = bufs[b][:0]
		return nil
	}
	for tid, v := range t.Cols[dim] {
		b := bucketOf[v]
		buckets[b].Tuples++
		buf := bufs[b]
		for _, col := range t.Cols {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(col[tid]))
		}
		if t.Aux != nil {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Aux[tid]))
		}
		bufs[b] = buf
		if len(buf) >= 1<<16 {
			if err := flush(int(b)); err != nil {
				return nil, err
			}
		}
	}
	kept := buckets[:0]
	for b, f := range files {
		if err := flush(b); err != nil {
			return nil, err
		}
		files[b] = nil
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		if buckets[b].Tuples > 0 {
			kept = append(kept, buckets[b])
		}
	}
	return kept, nil
}

// Load reads one bucket file back into a table sharing schema's Names and
// Cards; schema.Aux tells whether the records carry a measure.
func Load(b Bucket, schema *table.Table) (*table.Table, error) {
	data, err := os.ReadFile(b.Path)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	nd := schema.NumDims()
	rec := 4 * nd
	if schema.Aux != nil {
		rec += 8
	}
	if len(data) != b.Tuples*rec {
		return nil, fmt.Errorf("partition: %s holds %d bytes, want %d tuples of %d", b.Path, len(data), b.Tuples, rec)
	}
	pt := &table.Table{Names: schema.Names, Cards: schema.Cards, Cols: make(core.Columns, nd)}
	for d := range pt.Cols {
		pt.Cols[d] = make([]core.Value, b.Tuples)
	}
	if schema.Aux != nil {
		pt.Aux = make([]float64, b.Tuples)
	}
	for i := 0; i < b.Tuples; i++ {
		for _, col := range pt.Cols {
			col[i] = core.Value(binary.LittleEndian.Uint32(data))
			data = data[4:]
		}
		if pt.Aux != nil {
			pt.Aux[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
	return pt, nil
}

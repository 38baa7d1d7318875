// Package partition is the out-of-core driver of paper Sec. 6.3: the
// relation is scanned once and split into smaller partition files by hashing
// one dimension's values, each partition is loaded and cubed independently
// (releasing its memory before the next starts), and the cells that collapse
// the partitioning dimension are produced by one final pass with that
// dimension moved last.
//
// Correctness notes: a cell that fixes the partitioning dimension has all of
// its tuples inside one partition, so count and closedness computed there
// are globally correct. Cells with a wildcard on the partitioning dimension
// may span partitions, so partition runs filter them out and the final pass
// (which sees every tuple, with the partitioning dimension positioned last
// where tree engines keep it cheapest) keeps exactly those. The final pass
// trades the paper's tree-merging sketch for a simpler full pass.
package partition

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ccubing/internal/core"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Engine runs one cubing algorithm over a relation, emitting into a sink.
// The facade adapts its configured algorithm to this shape.
type Engine func(*table.Table, sink.Sink) error

// Config parameterizes a partitioned run.
type Config struct {
	// Dim is the partitioning dimension.
	Dim int
	// Buckets bounds the number of partition files (values are hashed into
	// buckets). Defaults to 16.
	Buckets int
	// TempDir receives the partition files; defaults to os.TempDir().
	TempDir string
	// Workers loads and cubes up to that many partitions concurrently
	// during the first pass. The default 1 keeps the driver's one-partition
	// memory bound; n > 1 trades it for an n-partition bound.
	Workers int
}

// Run computes the cube of t with the given engine, bounding engine memory
// to one partition at a time (plus the final collapsed pass). The emitted
// cell set is identical to engine(t, out) run directly.
func Run(t *table.Table, cfg Config, engine Engine, out sink.Sink) error {
	if cfg.Dim < 0 || cfg.Dim >= t.NumDims() {
		return fmt.Errorf("partition: dimension %d out of range", cfg.Dim)
	}
	nb := cfg.Buckets
	if nb <= 0 {
		nb = 16
	}
	if nb > t.Cards[cfg.Dim] {
		nb = t.Cards[cfg.Dim]
	}
	dir, err := os.MkdirTemp(cfg.TempDir, "ccubing-part-*")
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	defer os.RemoveAll(dir)

	if err := spill(t, cfg.Dim, nb, dir); err != nil {
		return err
	}

	// Pass 1: one engine run per partition; keep only cells fixing Dim.
	workers := cfg.Workers
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		for b := 0; b < nb; b++ {
			if err := cubeBucket(dir, b, t, cfg.Dim, engine, out); err != nil {
				return err
			}
		}
	} else if err := cubeBucketsParallel(dir, nb, workers, t, cfg.Dim, engine, out); err != nil {
		return err
	}

	// Pass 2: cells collapsing Dim, computed with Dim moved last.
	perm := make([]int, 0, t.NumDims())
	for d := 0; d < t.NumDims(); d++ {
		if d != cfg.Dim {
			perm = append(perm, d)
		}
	}
	perm = append(perm, cfg.Dim)
	rt, err := t.Reorder(perm)
	if err != nil {
		return err
	}
	return engine(rt, &remapSink{next: out, perm: perm, dim: t.NumDims() - 1, scratch: make([]core.Value, t.NumDims())})
}

// cubeBucket loads one partition file and cubes it, keeping the cells that
// fix the partition dimension.
func cubeBucket(dir string, b int, t *table.Table, dim int, engine Engine, out sink.Sink) error {
	pt, err := load(filepath.Join(dir, bucketName(b)), t)
	if err != nil {
		return err
	}
	if pt.NumTuples() == 0 {
		return nil
	}
	if err := engine(pt, &sink.FixedDim{Next: out, Dim: dim}); err != nil {
		return fmt.Errorf("partition: bucket %d: %w", b, err)
	}
	return nil
}

// cubeBucketsParallel is pass 1 with up to `workers` partitions in memory at
// once, their emissions serialized into out through a merging sink. After a
// bucket fails no further buckets start (in-flight ones finish), matching
// the sequential path's fail-fast behavior.
func cubeBucketsParallel(dir string, nb, workers int, t *table.Table, dim int, engine Engine, out sink.Sink) error {
	merger := sink.NewMerger(out)
	buckets := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Bool
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mw := merger.Worker()
			for b := range buckets {
				if err := cubeBucket(dir, b, t, dim, engine, mw); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
			mw.Flush()
		}()
	}
	for b := 0; b < nb; b++ {
		if failed.Load() {
			break
		}
		buckets <- b
	}
	close(buckets)
	wg.Wait()
	return firstErr
}

// remapSink maps cells from the reordered table back to original dimension
// positions and keeps only cells collapsing the moved-last dimension. The
// final pass sees every tuple, so its aggregates are globally correct.
type remapSink struct {
	next    sink.Sink
	perm    []int // new position -> original dimension
	dim     int   // position of the partition dimension in the reordered table
	scratch []core.Value
}

func (r *remapSink) Emit(vals []core.Value, count int64, aux float64) {
	if vals[r.dim] != core.Star {
		return
	}
	for i, v := range vals {
		r.scratch[r.perm[i]] = v
	}
	r.next.Emit(r.scratch, count, aux)
}

func bucketName(b int) string { return fmt.Sprintf("bucket-%03d.bin", b) }

// spill streams the relation into per-bucket binary files: for each tuple,
// nd int32 values (plus a float64 when the relation has an aux measure).
func spill(t *table.Table, dim, nb int, dir string) error {
	files := make([]*os.File, nb)
	bufs := make([][]byte, nb)
	for b := range files {
		f, err := os.Create(filepath.Join(dir, bucketName(b)))
		if err != nil {
			return fmt.Errorf("partition: %w", err)
		}
		files[b] = f
	}
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	nd := t.NumDims()
	n := t.NumTuples()
	for tid := 0; tid < n; tid++ {
		b := int(t.Cols[dim][tid]) % nb
		buf := bufs[b]
		for d := 0; d < nd; d++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Cols[d][tid]))
		}
		if t.Aux != nil {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(t.Aux[tid]*auxScale)))
		}
		bufs[b] = buf
		if len(bufs[b]) >= 1<<16 {
			if _, err := files[b].Write(bufs[b]); err != nil {
				return fmt.Errorf("partition: %w", err)
			}
			bufs[b] = bufs[b][:0]
		}
	}
	for b, f := range files {
		if len(bufs[b]) > 0 {
			if _, err := f.Write(bufs[b]); err != nil {
				return fmt.Errorf("partition: %w", err)
			}
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("partition: %w", err)
		}
		files[b] = nil
	}
	return nil
}

// auxScale fixes the binary encoding of aux measures (micro precision).
const auxScale = 1e6

// load reads one partition file back into a table sharing the parent's
// schema.
func load(path string, parent *table.Table) (*table.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	nd := parent.NumDims()
	rec := 4 * nd
	hasAux := parent.Aux != nil
	if hasAux {
		rec += 8
	}
	if len(data)%rec != 0 {
		return nil, fmt.Errorf("partition: %s truncated (%d bytes, record %d)", path, len(data), rec)
	}
	n := len(data) / rec
	pt := table.New(nd, n)
	copy(pt.Names, parent.Names)
	copy(pt.Cards, parent.Cards)
	if hasAux {
		pt.Aux = make([]float64, n)
	}
	off := 0
	for i := 0; i < n; i++ {
		for d := 0; d < nd; d++ {
			pt.Cols[d][i] = core.Value(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		if hasAux {
			pt.Aux[i] = float64(int64(binary.LittleEndian.Uint64(data[off:]))) / auxScale
			off += 8
		}
	}
	return pt, nil
}

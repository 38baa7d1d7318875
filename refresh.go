package ccubing

// Live cube refresh: the facade over internal/refresh. A materialized cube
// accepts appended tuples, buffers them in a write-ahead delta log, and on
// trigger (row threshold, timer, or an explicit Refresh) folds them in by
// recomputing only the leading-dimension partitions the delta touched,
// merging with the untouched closed cells, and publishing the result with an
// atomic snapshot swap. The refreshed cube is exactly the cube a from-scratch
// Materialize of the grown relation would produce.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ccubing/internal/refresh"
)

// RefreshStats describes one refresh; see Cube.Refresh.
type RefreshStats = refresh.Stats

// RefreshMetrics is the cumulative refresh observability view; see
// Cube.RefreshMetrics.
type RefreshMetrics = refresh.Metrics

// Refreshable reports whether the cube carries its source relation and
// accepts appends: true for materialized cubes, false for snapshot-loaded
// ones (re-materialize from data to refresh those).
func (c *Cube) Refreshable() bool { return c.mgr != nil }

// Generation returns the published store generation: 0 at materialization,
// +1 per refresh that folded at least one row. Snapshot-loaded cubes report
// the generation recorded in the snapshot.
func (c *Cube) Generation() uint64 { return c.snap().Generation }

// SourceRows returns the number of relation tuples the published store was
// computed from (0 for version-1 snapshots, which predate the metadata).
func (c *Cube) SourceRows() int64 { return c.snap().Rows }

// Backlog returns the number of appended rows buffered in the delta log,
// awaiting a refresh. Snapshot-loaded cubes report 0.
func (c *Cube) Backlog() int {
	if c.mgr == nil {
		return 0
	}
	return c.mgr.Backlog()
}

// errNotRefreshable reports append/refresh calls on a static cube.
func (c *Cube) errNotRefreshable() error {
	return fmt.Errorf("ccubing: cube was loaded from a snapshot and carries no relation; materialize from data to append")
}

// Mutation is one batch of edits in the shape the delta log stores it: rows
// in order — labels or coded values, exactly one of the two — one measure
// value per row iff the cube has a measure, and one op kind per row (nil
// Kinds: all appends; an update is an adjacent OpUpdateOld, OpUpdateNew pair).
type Mutation = refresh.Batch

// The op kinds of a Mutation's rows.
const (
	OpAppend    = refresh.OpAppend
	OpDelete    = refresh.OpDelete
	OpUpdateOld = refresh.OpUpdateOld
	OpUpdateNew = refresh.OpUpdateNew
)

// Mutate validates and buffers one batch for the next refresh, all of it or
// none; every other mutating method is a Mutate. Appended rows may introduce
// labels (published with the refresh; until then they are honest misses) and,
// on coded cubes, values that grow a dimension's domain; on labeled cubes a
// coded value must be a code the dictionaries know. A tombstone — a delete or
// an update's old row — removes one occurrence matching on every dimension
// and, on measure cubes, the measure value (two tuples agreeing on every
// dimension but carrying different measures are distinct occurrences); one
// that matches nothing in the relation plus the pending delta plus the
// batch's earlier rows is rejected with the whole batch, and a rejected batch
// leaves no phantom labels behind. An update pair is one crash-safe WAL
// record. Returns the rows buffered, an update pair counting once; if an
// AutoRefresh row threshold was crossed, the triggered refresh completes
// before Mutate returns.
func (c *Cube) Mutate(b Mutation) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	n, _, err := c.mgr.Apply(b)
	return n, err
}

// mutate is Mutate of a batch whose construction may have failed.
func (c *Cube) mutate(b Mutation, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return c.Mutate(b)
}

// Append buffers labeled rows for the next refresh. aux carries one measure
// value per row iff the cube was materialized with a measure, nil otherwise.
func (c *Cube) Append(rows [][]string, aux []float64) (int, error) {
	return c.Mutate(Mutation{Rows: rows, Aux: aux})
}

// AppendValues is Append by coded values.
func (c *Cube) AppendValues(rows [][]int32, aux []float64) (int, error) {
	return c.Mutate(Mutation{Values: rows, Aux: aux})
}

// Delete buffers tombstones for coded tuples; aux is required on measure
// cubes exactly as in AppendValues.
func (c *Cube) Delete(rows [][]int32, aux []float64) (int, error) {
	return c.Mutate(Mutation{Values: rows, Aux: aux}.Of(OpDelete))
}

// DeleteLabels is Delete by labels. Every label must already be in the
// dictionaries — an unknown label names a tuple that was never in the
// relation, reported as an error rather than coded.
func (c *Cube) DeleteLabels(rows [][]string, aux []float64) (int, error) {
	return c.Mutate(Mutation{Rows: rows, Aux: aux}.Of(OpDelete))
}

// UpdateMutation builds the Mutation replacing old[i] by new[i] from parallel
// old/new rows in exactly one of the labeled and the coded form, the two aux
// columns both given or both nil.
func UpdateMutation(oldRows, newRows [][]string, oldValues, newValues [][]int32, oldAux, newAux []float64) (Mutation, error) {
	return refresh.Updates(oldRows, newRows, oldValues, newValues, oldAux, newAux)
}

// Update buffers coded update pairs: on the next refresh each old row's
// occurrence is removed and the paired new row added. Old rows follow the
// Delete contract, new rows the AppendValues contract. Returns the number of
// pairs buffered.
func (c *Cube) Update(oldRows, newRows [][]int32, oldAux, newAux []float64) (int, error) {
	return c.mutate(UpdateMutation(nil, nil, oldRows, newRows, oldAux, newAux))
}

// UpdateLabels is Update by labels: old rows must use known labels; new rows
// may introduce labels.
func (c *Cube) UpdateLabels(oldRows, newRows [][]string, oldAux, newAux []float64) (int, error) {
	return c.mutate(UpdateMutation(oldRows, newRows, nil, nil, oldAux, newAux))
}

// AppendNDJSON streams newline-delimited JSON rows into the delta log, one
// tuple per line:
//
//	["oslo","pen","2025"]             labels (labeled cubes)
//	[3,0,1]                           coded values
//	{"row": [...], "aux": 12.5}       either form plus a measure value
//	{"values": [...], "aux": 12.5}    synonym of "row"
//
// Blank lines are skipped. Rows append in batches, so AutoRefresh row
// thresholds fire mid-stream. Returns the number of rows appended; on a
// malformed line the rows of previous batches stay appended and the error
// names the line.
func (c *Cube) AppendNDJSON(r io.Reader) (int, error) { return c.streamNDJSON(r, OpAppend) }

// DeleteNDJSON streams newline-delimited JSON tombstones — same line format
// as AppendNDJSON — into the delta log: each tuple removes one matching
// occurrence on the next refresh, under the Delete/DeleteLabels contract.
func (c *Cube) DeleteNDJSON(r io.Reader) (int, error) { return c.streamNDJSON(r, OpDelete) }

// streamNDJSON applies an NDJSON stream of one op kind in batches. When an
// AutoRefresh row threshold is set the batches align to it, so the refresh
// cadence matches the threshold instead of the batch size.
func (c *Cube) streamNDJSON(r io.Reader, kind byte) (total int, err error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	batchRows := 1024
	if rt := c.mgr.RowThreshold(); rt > 0 && rt < batchRows {
		batchRows = rt
	}
	err = ScanNDJSON(r, batchRows, func(b Mutation) error {
		if !c.HasMeasure() {
			b.Aux = nil
		}
		n, err := c.Mutate(b.Of(kind))
		total += n
		return err
	})
	return total, err
}

// ScanNDJSON reads the NDJSON mutation format (see AppendNDJSON) and hands the
// rows to emit in batches of batchRows, or all at once when batchRows is 0.
// A batch holds the rows in the form their lines had and, in Aux, every row's
// "aux" (0 where a line has none): the caller drops the column for a cube
// without a measure. It stops at the first malformed line or emit error; both
// come back naming the line.
func ScanNDJSON(r io.Reader, batchRows int, emit func(Mutation) error) error {
	var b Mutation
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		labels, values, aux, err := parseNDJSONRow(text)
		if err != nil {
			return fmt.Errorf("ccubing: ndjson line %d: %w", line, err)
		}
		if labels != nil {
			b.Rows = append(b.Rows, labels)
		} else {
			b.Values = append(b.Values, values)
		}
		b.Aux = append(b.Aux, aux)
		if b.Len() == batchRows {
			if err := emit(b); err != nil {
				return fmt.Errorf("ccubing: ndjson line %d: %w", line, err)
			}
			b = Mutation{}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ccubing: ndjson: %w", err)
	}
	if b.Len() > 0 {
		if err := emit(b); err != nil {
			return fmt.Errorf("ccubing: ndjson: %w", err)
		}
	}
	return nil
}

// parseNDJSONRow parses one non-blank line: a bare JSON array, or an object
// carrying "row" or "values" plus an optional "aux". An array whose first
// element is a string is a row of labels, any other a row of coded values;
// exactly one of labels and values comes back non-nil.
func parseNDJSONRow(text []byte) (labels []string, values []int32, aux float64, err error) {
	row := text
	if text[0] == '{' {
		var obj struct {
			Row    json.RawMessage `json:"row"`
			Values json.RawMessage `json:"values"`
			Aux    float64         `json:"aux"`
		}
		if err := json.Unmarshal(text, &obj); err != nil {
			return nil, nil, 0, err
		}
		if (obj.Row == nil) == (obj.Values == nil) {
			return nil, nil, 0, fmt.Errorf(`exactly one of "row" and "values" is required`)
		}
		if row, aux = obj.Row, obj.Aux; row == nil {
			row = obj.Values
		}
	}
	if first := bytes.TrimLeft(row, "[ \t"); len(first) > 0 && first[0] == '"' {
		if err := json.Unmarshal(row, &labels); err != nil {
			return nil, nil, 0, fmt.Errorf("want a JSON array of labels: %w", err)
		}
		return labels, nil, aux, nil
	}
	if err := json.Unmarshal(row, &values); err != nil {
		return nil, nil, 0, fmt.Errorf("want a JSON array of labels or of coded values: %w", err)
	}
	return nil, values, aux, nil
}

// Refresh folds the buffered delta into the cube: only the leading-dimension
// partitions with appended rows are recomputed (plus the wildcard slice);
// everything else is carried over; the merged store is published atomically.
// An empty backlog is a cheap no-op that keeps the current generation.
// Concurrent queries are answered from the old store until the swap and are
// never torn across generations.
func (c *Cube) Refresh() (RefreshStats, error) {
	if c.mgr == nil {
		return RefreshStats{}, c.errNotRefreshable()
	}
	return c.mgr.Flush()
}

// AutoRefreshOptions configures automatic refresh triggers.
type AutoRefreshOptions struct {
	// Rows, when positive, refreshes synchronously inside the append whose
	// backlog reaches this many rows.
	Rows int
	// Interval, when positive, refreshes from a background goroutine on this
	// period; stop it with Close.
	Interval time.Duration
	// WAL, when non-empty, persists *pending* (not yet refreshed) appends to
	// this file so they survive a restart against the same base relation.
	// Rows a refresh has folded in leave the log — the refreshed store lives
	// in memory only until you Save a snapshot, so pair the WAL with
	// periodic snapshots (and ccserve's /v1/reload) for full durability.
	WAL string
}

// AutoRefresh enables automatic refresh triggers (either or both of a row
// threshold and a timer) and, optionally, a write-ahead log for pending
// appends. Call before appending; the timer (if any) runs until Close.
func (c *Cube) AutoRefresh(opt AutoRefreshOptions) error {
	if c.mgr == nil {
		return c.errNotRefreshable()
	}
	if opt.WAL != "" {
		if err := c.mgr.EnableWAL(opt.WAL); err != nil {
			return err
		}
	}
	return c.mgr.AutoRefresh(opt.Rows, opt.Interval)
}

// Close stops the AutoRefresh timer goroutine (if running) and closes the
// write-ahead log. The cube remains queryable. Static cubes are a no-op.
func (c *Cube) Close() error {
	if c.mgr == nil {
		return nil
	}
	return c.mgr.Close()
}

// RefreshMetrics returns cumulative refresh counters: current generation,
// delta backlog, refresh count, and the latest refresh's statistics. Static
// cubes report their snapshot's generation with zero counters.
func (c *Cube) RefreshMetrics() RefreshMetrics {
	if c.mgr == nil {
		st := c.snap()
		return RefreshMetrics{Generation: st.Generation, Rows: st.Rows}
	}
	return c.mgr.Metrics()
}

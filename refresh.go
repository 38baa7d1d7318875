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

	"ccubing/internal/core"
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

// Append buffers labeled rows for the next refresh. Unseen labels extend the
// dictionaries (published with the refresh; until then they are honest
// misses). aux carries one measure value per row iff the cube was
// materialized with a measure, nil otherwise. Returns the number of rows
// appended; if an AutoRefresh row threshold was crossed, the triggered
// refresh completes before Append returns.
func (c *Cube) Append(rows [][]string, aux []float64) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	n, _, err := c.mgr.AppendLabeled(rows, aux)
	return n, err
}

// AppendValues is Append by coded values. On labeled cubes every value must
// be a code the dictionaries already know; on coded cubes any non-negative
// value is accepted and grows the dimension's domain.
func (c *Cube) AppendValues(rows [][]int32, aux []float64) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	crows := make([][]core.Value, len(rows))
	for i, r := range rows {
		crows[i] = r
	}
	n, _, err := c.mgr.Append(crows, aux)
	return n, err
}

// Delete buffers tombstones for coded tuples: on the next refresh each row
// removes one matching occurrence from the relation. Matching is by the
// full tuple — and, on measure cubes, the measure value, so aux is required
// there exactly as in AppendValues (two tuples agreeing on every dimension
// but carrying different measures are distinct occurrences). A tombstone
// for a tuple not present in the relation plus the pending delta is
// rejected with the whole batch. Returns the number of tombstones buffered;
// a crossed AutoRefresh row threshold refreshes before Delete returns.
func (c *Cube) Delete(rows [][]int32, aux []float64) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	crows := make([][]core.Value, len(rows))
	for i, r := range rows {
		crows[i] = r
	}
	n, _, err := c.mgr.Delete(crows, aux)
	return n, err
}

// DeleteLabels is Delete by labels. Every label must already be in the
// dictionaries — an unknown label names a tuple that was never in the
// relation, reported as an error rather than coded.
func (c *Cube) DeleteLabels(rows [][]string, aux []float64) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	n, _, err := c.mgr.DeleteLabeled(rows, aux)
	return n, err
}

// Update buffers coded update pairs: on the next refresh each old row's
// occurrence is removed and the paired new row added, atomically (one
// crash-safe WAL record). Old rows follow the Delete contract, new rows the
// AppendValues contract. Returns the number of pairs buffered.
func (c *Cube) Update(oldRows, newRows [][]int32, oldAux, newAux []float64) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	co := make([][]core.Value, len(oldRows))
	for i, r := range oldRows {
		co[i] = r
	}
	cn := make([][]core.Value, len(newRows))
	for i, r := range newRows {
		cn[i] = r
	}
	n, _, err := c.mgr.Update(co, cn, oldAux, newAux)
	return n, err
}

// UpdateLabels is Update by labels: old rows must use known labels; new
// rows may introduce labels, published with the next refresh. A rejected
// batch leaves no phantom labels behind.
func (c *Cube) UpdateLabels(oldRows, newRows [][]string, oldAux, newAux []float64) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	n, _, err := c.mgr.UpdateLabeled(oldRows, newRows, oldAux, newAux)
	return n, err
}

// AppendNDJSON streams newline-delimited JSON rows into the delta log, one
// tuple per line:
//
//	["oslo","pen","2025"]             labels (labeled cubes)
//	[3,0,1]                           coded values (coded cubes)
//	{"row": [...], "aux": 12.5}       either form plus a measure value
//	{"values": [...], "aux": 12.5}    coded synonym
//
// Blank lines are skipped. Rows append in batches, so AutoRefresh row
// thresholds fire mid-stream. Returns the number of rows appended; on a
// malformed line the rows of previous batches stay appended and the error
// names the line.
func (c *Cube) AppendNDJSON(r io.Reader) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	return c.streamNDJSON(r, func(labels [][]string, values [][]core.Value, aux []float64) (int, error) {
		if labels != nil {
			n, _, err := c.mgr.AppendLabeled(labels, aux)
			return n, err
		}
		n, _, err := c.mgr.Append(values, aux)
		return n, err
	})
}

// DeleteNDJSON streams newline-delimited JSON tombstones — same line format
// as AppendNDJSON — into the delta log: each tuple removes one matching
// occurrence on the next refresh, under the Delete/DeleteLabels contract.
func (c *Cube) DeleteNDJSON(r io.Reader) (int, error) {
	if c.mgr == nil {
		return 0, c.errNotRefreshable()
	}
	return c.streamNDJSON(r, func(labels [][]string, values [][]core.Value, aux []float64) (int, error) {
		if labels != nil {
			n, _, err := c.mgr.DeleteLabeled(labels, aux)
			return n, err
		}
		n, _, err := c.mgr.Delete(values, aux)
		return n, err
	})
}

// streamNDJSON scans NDJSON tuples and hands them to apply in batches —
// exactly one of labels and values is non-nil per call, matching the cube's
// form. Shared by the append and delete streaming paths.
func (c *Cube) streamNDJSON(r io.Reader, apply func(labels [][]string, values [][]core.Value, aux []float64) (int, error)) (int, error) {
	labeled := c.snap().Dicts != nil
	hasAux := c.HasMeasure()
	// Rows batch up; when an AutoRefresh row threshold is set, the batch
	// aligns to it so the refresh cadence matches the threshold instead of
	// the batch size.
	batchRows := 1024
	if rt := c.mgr.RowThreshold(); rt > 0 && rt < batchRows {
		batchRows = rt
	}
	var (
		total   int
		labels  [][]string
		values  [][]core.Value
		auxVals []float64
	)
	flush := func() error {
		var n int
		var err error
		var aux []float64
		if hasAux {
			aux = auxVals
		}
		if labeled {
			n, err = apply(labels, nil, aux)
		} else {
			n, err = apply(nil, values, aux)
		}
		total += n
		labels, values, auxVals = labels[:0], values[:0], auxVals[:0]
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(bytes.TrimSpace(text)) == 0 {
			continue
		}
		row, aux, err := parseNDJSONRow(text, labeled)
		if err != nil {
			if ferr := flush(); ferr != nil {
				return total, ferr
			}
			return total, fmt.Errorf("ccubing: ndjson line %d: %w", line, err)
		}
		if hasAux {
			auxVals = append(auxVals, aux)
		}
		if labeled {
			labels = append(labels, row.labels)
		} else {
			values = append(values, row.values)
		}
		if len(labels)+len(values) >= batchRows {
			if err := flush(); err != nil {
				return total, fmt.Errorf("ccubing: ndjson line %d: %w", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return total, fmt.Errorf("ccubing: ndjson: %w", err)
	}
	if err := flush(); err != nil {
		return total, fmt.Errorf("ccubing: ndjson: %w", err)
	}
	return total, nil
}

// ParseNDJSONRow parses one line of the NDJSON mutation format (see
// AppendNDJSON): a bare JSON array, or an object carrying "row"/"values"
// plus an optional "aux" measure value. Exactly one of labels and values is
// non-nil, per the labeled flag. Exported for the serving router, which must
// parse each line to route it to the shard owning its leading-dimension
// component.
func ParseNDJSONRow(line []byte, labeled bool) (labels []string, values []int32, aux float64, err error) {
	if len(bytes.TrimSpace(line)) == 0 {
		return nil, nil, 0, fmt.Errorf("ccubing: ndjson: empty line")
	}
	row, aux, err := parseNDJSONRow(line, labeled)
	if err != nil {
		return nil, nil, 0, err
	}
	return row.labels, row.values, aux, nil
}

// ndjsonRow is one parsed tuple in whichever form the cube takes.
type ndjsonRow struct {
	labels []string
	values []core.Value
}

func parseNDJSONRow(text []byte, labeled bool) (ndjsonRow, float64, error) {
	text = bytes.TrimSpace(text)
	var rawRow json.RawMessage
	var aux float64
	if text[0] == '{' {
		var obj struct {
			Row    json.RawMessage `json:"row"`
			Values json.RawMessage `json:"values"`
			Aux    float64         `json:"aux"`
		}
		if err := json.Unmarshal(text, &obj); err != nil {
			return ndjsonRow{}, 0, err
		}
		switch {
		case obj.Row != nil && obj.Values == nil:
			rawRow = obj.Row
		case obj.Values != nil && obj.Row == nil:
			rawRow = obj.Values
		default:
			return ndjsonRow{}, 0, fmt.Errorf(`exactly one of "row" and "values" is required`)
		}
		aux = obj.Aux
	} else {
		rawRow = json.RawMessage(text)
	}
	if labeled {
		var labels []string
		if err := json.Unmarshal(rawRow, &labels); err != nil {
			return ndjsonRow{}, 0, fmt.Errorf("want a JSON array of labels: %w", err)
		}
		return ndjsonRow{labels: labels}, aux, nil
	}
	var vals []core.Value
	if err := json.Unmarshal(rawRow, &vals); err != nil {
		return ndjsonRow{}, 0, fmt.Errorf("want a JSON array of coded values: %w", err)
	}
	return ndjsonRow{values: vals}, aux, nil
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

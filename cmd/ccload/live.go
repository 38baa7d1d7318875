package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ccubing"
)

// Shape of the live workload.
const (
	// liveRounds mutation rounds, every third a scatter round: local rounds
	// edit tuples of two of the 40 leading-dimension partitions, scatter
	// rounds spread the same number of edits over all of them.
	liveRounds  = 18
	roundAppend = 400
	roundDelete = 50
	roundUpdate = 50

	liveHotPer  = 150
	liveColdPer = 220
	liveOlapPer = 5
	// Ingest: appends of appendRows existing-label rows each (WAL replay
	// resolves labels against the base dictionaries), never refreshed.
	liveAppendPer = 80
)

// round is one pre-generated mutation round, in synthetic codes.
type round struct {
	scatter          bool
	appends, deletes [][]int32
	oldRows, newRows [][]int32
}

// planRounds draws every round's edits up front and returns them with the
// relation as it stands after the last one — the edits are inputs, so the
// final state is known before the server sees the first.
func planRounds(rows [][]int32, rng *rand.Rand, n int) ([]round, [][]int32) {
	nd := len(rows[0])
	// Partitions by size; local rounds edit two mid-sized ones, so their
	// share of the relation is about the same on every seed.
	freq := map[int32]int{}
	for _, r := range rows {
		freq[r[0]]++
	}
	parts := make([]int32, 0, len(freq))
	for v := range freq {
		parts = append(parts, v)
	}
	sort.Slice(parts, func(i, j int) bool {
		if freq[parts[i]] != freq[parts[j]] {
			return freq[parts[i]] > freq[parts[j]]
		}
		return parts[i] < parts[j]
	})
	local := map[int32]bool{parts[len(parts)/4]: true, parts[len(parts)/2]: true}
	localVals := []int32{parts[len(parts)/4], parts[len(parts)/2]}

	cur := append([][]int32(nil), rows...)
	// fresh mixes two existing tuples, so every value keeps a base label.
	fresh := func(scatter bool) []int32 {
		a, b := cur[rng.Intn(len(cur))], cur[rng.Intn(len(cur))]
		t := make([]int32, nd)
		for d := range t {
			if rng.Intn(2) == 0 {
				t[d] = a[d]
			} else {
				t[d] = b[d]
			}
		}
		if !scatter {
			t[0] = localVals[rng.Intn(2)]
		}
		return t
	}
	// take removes and returns one current tuple (of a local partition unless
	// scatter).
	take := func(scatter bool) []int32 {
		for {
			i := rng.Intn(len(cur))
			if scatter || local[cur[i][0]] {
				t := cur[i]
				cur[i] = cur[len(cur)-1]
				cur = cur[:len(cur)-1]
				return t
			}
		}
	}
	out := make([]round, n)
	for k := range out {
		rd := round{scatter: k%3 == 2}
		// Tombstones are drawn before the round's additions join the
		// relation, so each names a tuple the server already holds.
		for i := 0; i < roundDelete; i++ {
			rd.deletes = append(rd.deletes, take(rd.scatter))
		}
		for i := 0; i < roundUpdate; i++ {
			rd.oldRows = append(rd.oldRows, take(rd.scatter))
		}
		for i := 0; i < roundUpdate; i++ {
			rd.newRows = append(rd.newRows, fresh(rd.scatter))
		}
		for i := 0; i < roundAppend; i++ {
			rd.appends = append(rd.appends, fresh(rd.scatter))
		}
		cur = append(cur, rd.newRows...)
		cur = append(cur, rd.appends...)
		out[k] = rd
	}
	return out, cur
}

func labelRows(rows [][]int32) [][]string {
	w := wire{labeled: true}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = w.cell(r)
	}
	return out
}

func mutationHTTP(path string, body any) []byte {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // string slices always marshal
	}
	return postHTTP(path, b)
}

// requests renders a round's three mutation calls.
func (rd round) requests() [][]byte {
	return [][]byte{
		mutationHTTP("/v1/append", map[string]any{"rows": labelRows(rd.appends)}),
		mutationHTTP("/v1/delete", map[string]any{"rows": labelRows(rd.deletes)}),
		mutationHTTP("/v1/update", map[string]any{"old_rows": labelRows(rd.oldRows), "new_rows": labelRows(rd.newRows)}),
	}
}

// refreshAnswer is the part of POST /v1/refresh's answer the harness reads.
type refreshAnswer struct {
	Generation           uint64 `json:"generation"`
	Appended             int    `json:"appended"`
	Deleted              int    `json:"deleted"`
	PartitionsRecomputed int    `json:"partitions_recomputed"`
	PartitionsTotal      int    `json:"partitions_total"`
	CellsRetained        int64  `json:"cells_retained"`
	CellsRebuilt         int64  `json:"cells_rebuilt"`
}

// liveStats is the part of GET /v1/stats the harness reads.
type liveStats struct {
	Generation uint64 `json:"generation"`
	SourceRows int64  `json:"source_rows"`
	Backlog    int    `json:"backlog"`
}

func getStats(c *conn) (liveStats, error) {
	var s liveStats
	body, err := c.get("/v1/stats")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(body, &s)
}

// runLive drives one ccserve -csv -wal: the README walkthrough path. The WAL
// keeps the program's default flush policy — every acknowledged mutation is
// written through to the file, fsync happens only on shutdown — so a SIGKILL
// loses nothing the kernel already holds.
func runLive(r *run) error {
	rg := regimeLive
	t0 := time.Now()
	base, err := relation(rg, r.seed)
	if err != nil {
		return err
	}
	r.set("gen.synthetic_s", time.Since(t0).Seconds())
	rows := rowsOf(base)
	csv := csvOf(base)
	csvPath, walPath := filepath.Join(r.dir, "rel.csv"), filepath.Join(r.dir, "delta.wal")
	if err := os.WriteFile(csvPath, csv, 0o644); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x6c697665))
	rounds, final := planRounds(rows, rng, liveRounds)

	// The oracle: an in-process Materialize of the edited relation, labeled
	// through the same CSV path the server loads.
	var finalCSV bytes.Buffer
	writeCSV(&finalCSV, rg.D, final)
	finalDS, err := ccubing.ReadCSV(&finalCSV)
	if err != nil {
		return err
	}
	t0 = time.Now()
	finalCube, err := ccubing.Materialize(finalDS, rg.options(1))
	if err != nil {
		return err
	}
	rebuild := time.Since(t0).Seconds()
	q := &querySet{p: newInproc(finalCube)}
	q.hotQ = tuplePool(final, rng, hotPoolSize)
	q.coldQ = tuplePool(final, rng, coldPoolSize)
	q.hotSeq = zipfSeq(rng, 1.1, hotPoolSize, 1<<16)
	if q.hot, err = q.p.preparePoints(q.hotQ); err != nil {
		return err
	}
	if q.cold, err = q.p.preparePoints(q.coldQ); err != nil {
		return err
	}
	if q.olap, err = q.p.prepareOlap(olapPool(final, base.Cardinalities(), false, true, rng, tcpPass*liveOlapPer)); err != nil {
		return err
	}
	pl, err := newReadPlan(q, q.p, tcpPass, liveHotPer, liveColdPer, liveOlapPer, verifyEvery)
	if err != nil {
		return err
	}
	// Oracle anchor: tuplePool queries are in synthetic codes, which is what
	// a scan of the final rows compares.
	finalCoded, err := ccubing.NewDatasetFromValues(nil, final)
	if err != nil {
		return err
	}
	r.checkCells(finalCube, q, finalCoded, rg, oracleAnchor)

	// Ingest batches: existing tuples re-appended.
	batches, _ := appendBatches(rows, nil, rng, 64)
	ingest := make([][]byte, len(batches))
	for i, batch := range batches {
		ingest[i] = mutationHTTP("/v1/append", map[string]any{"rows": labelRows(batch)})
	}

	roundReqs := make([][][]byte, len(rounds))
	for k, rd := range rounds {
		roundReqs[k] = rd.requests()
	}
	probe := q.hot[0].raw
	baseOracle, err := ccubing.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return err
	}
	baseCube, err := ccubing.Materialize(baseOracle, rg.options(1))
	if err != nil {
		return err
	}
	probeWant, err := newInproc(baseCube).answer(probe)
	if err != nil {
		return err
	}
	args := []string{"-csv", csvPath, "-minsup", fmt.Sprint(rg.MinSup), "-wal", walPath}
	srv, bootS, err := bootTimed(r.bin, probe, probeWant, args...)
	if err != nil {
		return err
	}
	c, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer func() { c.close() }()
	gen := uint64(0)
	if st, err := getStats(c); err != nil {
		return err
	} else {
		gen = st.Generation
	}
	gcOn := quietGC()
	defer gcOn()
	r.ready()
	var rssAfter []float64 // the resident set of the server right after each refresh

	// Mutation rounds. Their reads are not part of any estimate: the stores
	// differ from generation to generation, so the tracks run on the last
	// generation only — a store merged 18 times, which is also the one the
	// oracle describes.
	var localS, scatterS []float64
	var firstLocal refreshAnswer
	for k, rd := range rounds {
		reqs := roundReqs[k]
		post := r.httpOp(c, "mutation", func(i int) []byte { return reqs[i] }, at(nil))
		for i := range reqs {
			post(i)
		}
		t0 := time.Now()
		status, body, err := c.do(postHTTP("/v1/refresh", nil))
		el := time.Since(t0).Seconds()
		r.attempted += int64(len(reqs) + 1)
		if err != nil || status != 200 {
			return fmt.Errorf("refresh round %d: status %d: %v %s", k, status, err, body)
		}
		var ans refreshAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		gen++
		r.check(ans.Generation == gen, "refresh round %d published generation %d, want %d (one per refresh)", k, ans.Generation, gen)
		r.check(ans.Appended == roundAppend+roundUpdate && ans.Deleted == roundDelete+roundUpdate,
			"refresh round %d folded +%d −%d rows, sent +%d −%d", k, ans.Appended, ans.Deleted, roundAppend+roundUpdate, roundDelete+roundUpdate)
		if rd.scatter {
			scatterS = append(scatterS, el)
			r.check(2*ans.PartitionsRecomputed > ans.PartitionsTotal, "scatter round %d recomputed %d of %d partitions, its edits spread over all", k, ans.PartitionsRecomputed, ans.PartitionsTotal)
		} else {
			if len(localS) == 0 {
				firstLocal = ans
			}
			localS = append(localS, el)
			r.check(ans.PartitionsRecomputed == 2, "local round %d recomputed %d partitions, its edits touch 2", k, ans.PartitionsRecomputed)
		}
		rss, err := currentRSSMB(srv.pid())
		if err != nil {
			return err
		}
		rssAfter = append(rssAfter, rss)
	}
	fmt.Printf("# refresh local %s\n# refresh scatter %s\n", compact(localS), compact(scatterS))
	local, scatter := kthSmallest(localS, 3), kthSmallest(scatterS, 2)
	r.set("ready_s", local)
	r.set("rebuild_s", scatter)
	r.set("client.ready_median_s", median(localS))
	r.set("refresh.partitions_recomputed_local", float64(firstLocal.PartitionsRecomputed))
	r.set("refresh.partitions_total", float64(firstLocal.PartitionsTotal))
	r.set("refresh.cells_rebuilt_local", float64(firstLocal.CellsRebuilt))
	r.set("refresh.cells_retained_local", float64(firstLocal.CellsRetained))
	r.set("refresh.rebuild_ratio_local", ratio(local, rebuild))
	r.set("refresh.rebuild_ratio_scatter", ratio(scatter, rebuild))
	if st, err := getStats(c); err != nil {
		return err
	} else {
		r.check(st.SourceRows == int64(len(final)) && st.Backlog == 0,
			"after the last round the server holds %d rows with %d pending, the edited relation has %d", st.SourceRows, st.Backlog, len(final))
	}
	meta, err := getMeta(c)
	if err != nil {
		return err
	}
	r.check(meta.Cells == finalCube.NumCells(), "server's final generation has %d cells, a rebuild of the edited relation %d", meta.Cells, finalCube.NumCells())
	r.set("cube_bytes_per_tuple", float64(meta.SizeBytes)/float64(meta.SourceRows))

	// The final generation: verified reads, interleaved with the append track
	// (never refreshed, so the reads' answers do not move).
	acked := 0
	rt := r.newReadTracks(c, pl, &track{name: "tcp.append", per: liveAppendPer, blocks: tcpBlocks, pass: shortPass,
		op: r.httpOp(c, "append", func(i int) []byte { acked += appendRows; return ingest[i%len(ingest)] }, at(nil))})
	r.warm(c, pl)
	if r.trace {
		untraced := r.untracedRate(rt.cold)
		if err := r.tracedReads(c, srv, pl, rt); err != nil {
			return err
		}
		r.set("client.trace_overhead_ratio", ratio(untraced, rt.cold.rate()))
		s0, err := scrapeServer(c, srv)
		if err != nil {
			return err
		}
		r.rounds(rt.app.pass, rt.app)
		s1, err := scrapeServer(c, srv)
		if err != nil {
			return err
		}
		r.set("refresh.wal_append_us", s1.prom.histMeanSince(s0.prom, "ccubing_wal_append_seconds", "")*1e6)
		r.set("refresh.wal_rewrite_ms", s1.prom.histMeanSince(promText{}, "ccubing_wal_rewrite_seconds", "")*1e3)
	} else {
		r.rounds(r.passes*tcpPass, rt.all()...)
	}
	r.publish(rt)
	// The peak resident set of a live server follows where the cycles of its
	// collector happen to fall among the refreshes (125-149 MB between
	// identical runs); the resident set right after a refresh, averaged over
	// the rounds, repeats.
	r.set("mem_mb", mean(rssAfter))

	// kill -9 with the acknowledged rows pending, reboot on the same WAL: the
	// backlog must be exactly what was acknowledged.
	c.close()
	srv.kill()
	srv, replayS, err := bootTimed(r.bin, probe, probeWant, args...)
	if err != nil {
		return fmt.Errorf("reboot after SIGKILL: %w", err)
	}
	if c, err = dial(srv.addr); err != nil {
		return err
	}
	st, err := getStats(c)
	if err != nil {
		return err
	}
	r.check(st.Backlog == acked, "after SIGKILL + reboot the backlog is %d rows, %d were acknowledged", st.Backlog, acked)
	r.set("refresh.replay_s", replayS-bootS)

	if r.trace {
		gcOn()
		r.clientLayers(rt)
		if err := r.buildLayers(q.p, finalDS, rg); err != nil {
			return err
		}
		r.readLayers(q, "tcp.cold", "tcp.olap")
		r.set("client.point_cold_qps_c2", r.unpinnedC2(pl, srv))
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven as a closed loop: the
// next request is written only after the previous answer was read in full.
// Requests are pre-rendered bytes, so the harness adds a write, a response
// parse and nothing else to the path it measures.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() } // nothing buffered to lose

// redial points the connection at another server — a pass's freshly booted
// topology — so the tracks bound to it follow.
func (c *conn) redial(addr string) error {
	n, err := dial(addr)
	if err != nil {
		return err
	}
	c.close()
	c.c, c.br = n.c, n.br
	return nil
}

// do sends one request and reads the whole answer. The returned body is
// valid until the next call.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// get is do for a one-off GET (stats, metrics, metadata).
func (c *conn) get(path string) ([]byte, error) {
	status, body, err := c.do([]byte("GET " + path + " HTTP/1.1\r\nHost: ccload\r\n\r\n"))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return append([]byte(nil), body...), nil
}

// ---- tracks, passes and blocks -------------------------------------------

// Interference on a shared box only ever slows an operation, and on the
// reference box it comes in bursts from milliseconds to several seconds long
// and in tides of minutes during which three blocks in four run slow. So
// every throughput is measured by replaying one seeded sequence in several
// passes spread over the run and letting, for every block of about a
// millisecond of work, its 2nd-fastest repetition stand for the block:
//
//	rate = operations in the sequence ÷ Σ over blocks of the 2nd-fastest repetition
//
// A block is spoiled only if all its repetitions but one were disturbed.
// Unlike a statistic over segments of different requests, the estimate does
// not depend on which requests happened to share a segment, because every
// pass times the same requests in the same order.
//
// What the estimate leaves out is bounded and printed: a cost the program
// pays in all repetitions but one is kept, a lucky repetition never is the
// estimate, and every track reports its measured wall time over the time the
// estimate stands for. A burst-shaped cost of the program itself — a
// collector cycle of the server — cannot be told from a neighbour's burst by
// timing (thread CPU time slows with the neighbours just as wall time does on
// this box, so it does not separate them either); what an allocation costs
// when it is made stays in every repetition, and allocation volume is
// reported per layer.

// blockKeep is the rank, among the repetitions of a block, of the one that
// stands for it (the only one, while a single pass has run).
const blockKeep = 2

// phaseStats is what one track measured: per block position the time of
// every repetition, the throughput of each segment (for the spread report),
// the wall time and operation count of all segments, and, on a traced run,
// the latency of every operation in seconds.
type phaseStats struct {
	times    [][]float64 // seconds, by block position, one per pass so far
	blockOps []int       // operations in that block
	segQPS   []float64
	wall     float64 // seconds spent in segments
	done     int     // operations performed in them
	lat      []float64
}

// track is one seeded operation sequence: hot points, cold points, olap
// calls, appends. A segment performs the next per operations, timed in
// blocks; after pass segments the sequence starts over, op(i) being its i-th
// operation. The sequence and the server's cache are arranged so that a
// repetition does the same work as the first time (see each workload).
type track struct {
	name, parent string // span name, and the span name of the depth above
	per          int    // operations per segment
	blocks       int    // timed blocks per segment (0 = 1)
	pass         int    // segments per pass (0 = the sequence never repeats)
	op           func(i int)
	seg          int // segments performed so far
	phaseStats
}

// rounds performs n rounds, each one segment of every track in turn. The
// end-to-end pass interleaves its tracks this way, so that each track's
// passes are spread over the whole measuring window. The traced pass runs its
// tracks one after the other, to bracket each with scrapes.
func (r *run) rounds(n int, tracks ...*track) {
	for k := 0; k < n; k++ {
		for _, t := range tracks {
			r.segment(t)
		}
	}
}

// segment performs one segment of a track. On a traced run every operation
// additionally leaves a span.
func (r *run) segment(t *track) {
	slot := t.seg
	if t.pass > 0 {
		slot %= t.pass
	}
	nb := max(1, min(t.blocks, t.per))
	for len(t.times) < (slot+1)*nb {
		t.times = append(t.times, nil)
		t.blockOps = append(t.blockOps, 0)
	}
	t0 := time.Now()
	for b := 0; b < nb; b++ {
		lo, hi := b*t.per/nb, (b+1)*t.per/nb
		b0 := time.Now()
		for j := lo; j < hi; j++ {
			i := slot*t.per + j
			if !r.trace {
				t.op(i)
				continue
			}
			a := time.Now()
			t.op(i)
			z := time.Now()
			r.spans.add(t.name, t.parent, i, a, z)
			t.lat = append(t.lat, z.Sub(a).Seconds())
		}
		pos := slot*nb + b
		t.times[pos] = append(t.times[pos], time.Since(b0).Seconds())
		t.blockOps[pos] = hi - lo
	}
	el := time.Since(t0).Seconds()
	t.wall += el
	t.done += t.per
	t.segQPS = append(t.segQPS, float64(t.per)/el)
	t.seg++
	r.attempted += int64(t.per)
}

// phase runs one track on its own, segs segments back to back, once.
func (r *run) phase(name, parent string, segs, per int, op func(i int)) phaseStats {
	t := &track{name: name, parent: parent, per: per, op: op}
	r.rounds(segs, t)
	t.report()
	return t.phaseStats
}

// report prints the track's estimate beside its raw segment distribution and
// the share of its wall time the estimate left out.
func (t *track) report() {
	fmt.Printf("# track %-18s %3d x %-6d rate %.5g/s  segments min %.5g  p50 %.5g  max %.5g  wall/estimate %.3f\n", t.name, len(t.segQPS), t.per,
		t.rate(), kthSmallest(t.segQPS, 1), median(t.segQPS), kthLargest(t.segQPS, 1), t.wallOverEstimate())
}

// estimate returns the operations of one pass of the sequence and the time
// they stand for: per block the repetition of rank blockKeep.
func (st phaseStats) estimate() (ops int, secs float64) {
	for pos, reps := range st.times {
		ops += st.blockOps[pos]
		secs += kthSmallest(reps, blockKeep)
	}
	return ops, secs
}

// rate is a track's reported throughput.
func (st phaseStats) rate() float64 {
	ops, secs := st.estimate()
	return ratio(float64(ops), secs)
}

// wallOverEstimate is the track's measured wall time over the time its
// estimate gives the same number of operations: 1 + the share the estimate
// left out.
func (st phaseStats) wallOverEstimate() float64 {
	ops, secs := st.estimate()
	return ratio(st.wall, secs*ratio(float64(st.done), float64(ops)))
}

// segSpread is fastest ÷ slowest segment — how much interference (and how
// uneven a mix) the track saw, reported per layer.
func (st phaseStats) segSpread() float64 {
	return ratio(kthLargest(st.segQPS, 1), kthSmallest(st.segQPS, 1))
}

// httpOp builds the closed-loop operation over a connection: send request i,
// demand a 200, and byte-compare every sampled answer with the in-process
// oracle's. want(i) returns nil for unsampled requests.
func (r *run) httpOp(c *conn, what string, req func(i int) []byte, want func(i int) []byte) func(i int) {
	return func(i int) {
		status, body, err := c.do(req(i))
		switch {
		case err != nil:
			r.fail("%s #%d: %v", what, i, err)
		case status != 200:
			r.fail("%s #%d: status %d: %s", what, i, status, body)
		default:
			if w := want(i); w != nil && !bytes.Equal(w, body) {
				r.fail("%s #%d: answer differs from the in-process cube's\n got: %.300s\nwant: %.300s", what, i, body, w)
			}
		}
	}
}

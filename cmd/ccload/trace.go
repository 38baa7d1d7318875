package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed crossing of a layer boundary. The traced pass measures
// layers from outside by differential replay: the same seeded request
// sequence is replayed at each depth of the stack (TCP client → in-process
// HTTP handler → facade → cubestore), one span per request per depth. Spans
// of one request share its sequence index as ID, and a depth's parent is the
// depth above it, so a layer's self time is its span minus its child's.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"` // since the run began
	EndUs   float64 `json:"end_us"`
}

// spanLog keeps spans in memory; they are written once, when the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name, parent string, id int, start, end time.Time) {
	if l.origin.IsZero() {
		l.origin = start
	}
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent,
		StartUs: float64(start.Sub(l.origin).Nanoseconds()) / 1e3,
		EndUs:   float64(end.Sub(l.origin).Nanoseconds()) / 1e3,
	})
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(l.spans)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

package obs

import (
	"bufio"
	"io"
	"strconv"
)

// ContentType is the Prometheus text exposition content type of WriteText's
// output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders the registries' metrics in the Prometheus text format,
// families sorted by name and series by label set. Families with the same
// name across registries merge under the first one's # HELP/# TYPE header —
// the layering contract is that a name means one thing process-wide.
func WriteText(w io.Writer, regs ...*Registry) error {
	bw := bufio.NewWriter(w)
	written := make(map[string]bool)
	for _, r := range regs {
		for _, f := range r.snapshot() {
			header := !written[f.name]
			written[f.name] = true
			writeFamily(bw, f, header)
		}
	}
	return bw.Flush()
}

func writeFamily(w *bufio.Writer, f famView, header bool) {
	if header {
		w.WriteString("# HELP ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(f.help)
		w.WriteString("\n# TYPE ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(f.typ)
		w.WriteByte('\n')
	}
	for _, s := range f.series {
		switch {
		case s.c != nil:
			writeSample(w, f.name, "", s.labels, "", formatInt(s.c.Value()))
		case s.cf != nil:
			writeSample(w, f.name, "", s.labels, "", formatInt(s.cf()))
		case s.g != nil:
			writeSample(w, f.name, "", s.labels, "", formatInt(s.g.Value()))
		case s.gf != nil:
			writeSample(w, f.name, "", s.labels, "", formatFloat(s.gf()))
		case s.h != nil:
			writeHistogram(w, f.name, s)
		}
	}
}

// writeHistogram renders one histogram series: cumulative _bucket lines with
// the le label appended to the series labels, then _sum (seconds) and
// _count.
func writeHistogram(w *bufio.Writer, name string, s *series) {
	counts, sumNanos := s.h.snapshot()
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		writeSample(w, name, "_bucket", s.labels, histLe[i], formatInt(cum))
	}
	cum += counts[histBuckets]
	writeSample(w, name, "_bucket", s.labels, "+Inf", formatInt(cum))
	writeSample(w, name, "_sum", s.labels, "", formatFloat(float64(sumNanos)/1e9))
	writeSample(w, name, "_count", s.labels, "", formatInt(cum))
}

// writeSample emits one line: name+suffix, the label block (series labels
// plus an optional le), and the value.
func writeSample(w *bufio.Writer, name, suffix, labels, le, value string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if labels != "" || le != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if le != "" {
			if labels != "" {
				w.WriteByte(',')
			}
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat uses the shortest round-trip form, like encoding/json — "0.25"
// stays "0.25", integral floats render without an exponent where possible.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

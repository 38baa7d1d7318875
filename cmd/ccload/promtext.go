package main

import (
	"strconv"
	"strings"
)

// promText is one parsed Prometheus text exposition (format 0.0.4): every
// sample keyed by its series name with the label block, verbatim — e.g.
// `ccubing_http_request_seconds_sum{endpoint="query"}`.
type promText map[string]float64

// parsePromText keeps every well-formed sample line and skips comments and
// anything it cannot read; a scrape is evidence, not input to validate.
func parsePromText(text string) promText {
	out := promText{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label block.
		end := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[end+1:], ' ')
		if sp < 0 {
			continue
		}
		sp += end + 1
		fields := strings.Fields(line[sp:])
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] += v
	}
	return out
}

// value returns an unlabeled sample, 0 when absent.
func (p promText) value(name string) float64 { return p[name] }

// match sums every series of a metric whose label block contains label
// (`key="value"`); an empty label matches every series of the metric.
func (p promText) match(name, label string) float64 {
	var sum float64
	for series, v := range p {
		base, labels, _ := strings.Cut(series, "{")
		if base == name && strings.Contains(labels, label) {
			sum += v
		}
	}
	return sum
}

func (p promText) histSum(name, label string) float64   { return p.match(name+"_sum", label) }
func (p promText) histCount(name, label string) float64 { return p.match(name+"_count", label) }

// histMeanSince is the mean observation of a histogram between an earlier
// scrape and this one.
func (p promText) histMeanSince(prev promText, name, label string) float64 {
	return ratio(p.histSum(name, label)-prev.histSum(name, label),
		p.histCount(name, label)-prev.histCount(name, label))
}

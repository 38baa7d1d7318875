package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck is the repeatability check of the benchmark contract, run by the
// harness on itself: the workload n times on consecutive seeds — each run a
// fresh process, as the driver starts them — then for every end-to-end
// metric the interquartile range as a share of the median, held to the
// metric's bound (setup_s is reported but exempt, as in the contract). A
// spread under a third of the bound is what the contract asks builders to
// aim for; the table marks it.
func selfCheck(wl *workloadSpec, seed int64, secs float64, n int) bool {
	self, err := os.Executable()
	if err != nil {
		die("%v", err)
	}
	series := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err != nil || json.Unmarshal(lines[len(lines)-1], &res) != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "ccload: %s seed %d failed: %v\n%s\n", wl.Name, s, err, out)
			return false
		}
		fmt.Printf("# %s seed %d: %s\n", wl.Name, s, lines[len(lines)-1])
		for name, m := range res.Metrics {
			series[name] = append(series[name], m.Value)
		}
	}
	ok := true
	fmt.Printf("== %s: %d runs, seeds %d..%d\n", wl.Name, n, seed, seed+int64(n)-1)
	fmt.Printf("%-22s %12s %8s %6s  %s\n", "metric", "median", "spread", "bound", "verdict")
	for _, s := range endToEnd {
		xs := series[s.Name]
		sp := spread(xs)
		if len(xs) < 4 { // too few for quartiles: full range
			sp = ratio(kthLargest(xs, 1)-kthSmallest(xs, 1), median(xs))
		}
		verdict := "steady"
		switch {
		case s.Name == "setup_s":
			verdict = "exempt"
		case sp > s.Bound:
			verdict, ok = "FAIL", false
		case sp > s.Bound/3:
			verdict = "within bound"
		}
		fmt.Printf("%-22s %12.6g %7.2f%% %5.0f%%  %-12s %v\n", s.Name, median(xs), 100*sp, 100*s.Bound, verdict, compact(xs))
	}
	return ok
}

func compact(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return out
}

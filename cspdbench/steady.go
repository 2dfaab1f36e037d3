package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steady is the steadiness check: it runs every listed workload cfg.steady
// times, each run a fresh cspdbench process with its own seed, rotating
// the workload order by one each round so a machine that drifts during the
// check moves every workload alike and no workload runs twice in a row. It
// prints, per workload and end-to-end metric, the median and the
// interquartile range as a share of the median (the spread each metric's
// bound must cover).
func steady(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	listed := listedSpecs()
	values := map[string]map[string][]float64{} // workload → metric → runs
	for round := 0; round < cfg.steady; round++ {
		for k := range listed {
			sp := listed[(k+round)%len(listed)]
			res, err := runChild(self, cfg, sp.name, int64(round+1))
			if err != nil {
				return fmt.Errorf("%s round %d: %w", sp.name, round+1, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s round %d: %d of %d requests failed", sp.name, round+1, res.Failed, res.Attempted)
			}
			fmt.Fprintf(os.Stderr, "steady round %d %s:", round+1, sp.name)
			for _, e := range endToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.4f", e.name, res.Metrics[e.name].Value)
			}
			fmt.Fprintln(os.Stderr)
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
		}
	}
	fmt.Printf("%-12s %-15s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med")
	for _, sp := range listed {
		var names []string
		for name := range values[sp.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			xs := values[sp.name][name]
			q1, q2, q3 := q1q2q3(xs)
			fmt.Printf("%-12s %-15s %12.4f %12.4f %12.4f %7.1f%%\n", sp.name, name, q2, q1, q3, 100*relIQR(xs))
		}
	}
	return nil
}

// q1q2q3 returns the quartiles, or the single value thrice for one run.
func q1q2q3(xs []float64) (float64, float64, float64) {
	if len(xs) < 2 {
		return xs[0], xs[0], xs[0]
	}
	return quartiles(xs)
}

// runChild runs one untraced measurement in a fresh cspdbench process and
// parses its result line.
func runChild(self string, cfg config, workload string, seed int64) (*result, error) {
	cmd := exec.Command(self, "-cspd", cfg.cspd, "-out", cfg.out,
		"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}

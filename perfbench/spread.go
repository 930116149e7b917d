package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// spreadReport is the `spread` mode: it reads result lines (the last
// output line of several runs, one per line) and prints, per metric,
// the median and the quartile spread as a share of the median — the
// run-to-run figure each metric's bound is checked against.
func spreadReport(in io.Reader, out io.Writer) error {
	vals := make(map[string][]float64)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	runs := 0
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Metrics == nil {
			continue // not a result line
		}
		runs++
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs == 0 {
		return fmt.Errorf("no result lines on input")
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	slices.Sort(names)
	fmt.Fprintf(out, "%d runs\n%-40s %6s %16s %10s\n", runs, "metric", "n", "median", "spread")
	for _, k := range names {
		xs := vals[k]
		fmt.Fprintf(out, "%-40s %6d %16.6g %10.4f\n", k, len(xs), median(xs), quartileSpread(xs))
	}
	return nil
}

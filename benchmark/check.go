package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -check needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver judges run-to-run spread with.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// loadResults reads the end-to-end rows of a result file, keyed by
// workload then metric.
func loadResults(path string) (map[string]map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	incorrect := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if !r.Correct || r.Failed != 0 {
			incorrect++
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, incorrect, sc.Err()
}

// runCheck applies the driver's acceptance rule to one or two result
// files: within each file the interquartile spread of every end-to-end
// metric (setup_s excepted) must stay inside the metric's bound; with
// two files, B's median must not be worse than A's by more than the
// bound; and no run may have failed ops. Returns the exit code.
func runCheck(paths []string) int {
	if len(paths) < 1 || len(paths) > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -check A.jsonl [B.jsonl]")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	var sets []map[string]map[string][]float64
	bad := 0
	for _, p := range paths {
		s, incorrect, err := loadResults(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if incorrect > 0 {
			fmt.Printf("FAIL %s: %d runs with failed or incorrect ops\n", p, incorrect)
			bad++
		}
		sets = append(sets, s)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tfile\truns\tmedian\tspread\tvs A\tverdict")
	for _, wl := range spec.Workloads {
		for _, em := range spec.EndToEnd {
			var medA float64
			for i, s := range sets {
				vals := s[wl.Name][em.Name]
				if len(vals) == 0 {
					fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t0\t\t\t\tMISSING\n", wl.Name, em.Name, em.Bound, paths[i])
					bad++
					continue
				}
				med := median(append([]float64(nil), vals...))
				q1, q3 := quartiles(vals)
				spread := ratio(q3-q1, med)
				verdict := "ok"
				if em.Name != "setup_s" && spread > em.Bound {
					verdict = "SPREAD"
					bad++
				} else if spread > em.Bound/3 {
					verdict = "ok (spread above a third of the bound)"
				}
				vs := ""
				if i == 0 {
					medA = med
				} else {
					worse := ratio(med-medA, medA)
					if em.Better == "higher" {
						worse = -worse
					}
					vs = fmt.Sprintf("%+.3f", worse)
					if worse > em.Bound {
						verdict = "WORSE"
						bad++
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%d\t%.4g\t%.3f\t%s\t%s\n",
					wl.Name, em.Name, em.Bound, paths[i], len(vals), med, spread, vs, verdict)
			}
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Printf("check: %d violations\n", bad)
		return 1
	}
	fmt.Println("check: ok")
	return 0
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tpch"
)

// sqlOf renders the first n ops of every client of a generator set.
func sqlOf(gens []clientGen, n int) string {
	var sb strings.Builder
	for _, g := range gens {
		for _, o := range g.warm {
			sb.WriteString(o.sql + "\n")
		}
		for i := 0; i < n; i++ {
			sb.WriteString(g.next().sql + "\n")
		}
	}
	return sb.String()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	qm := tpch.QueryMap()
	gens := map[string]func(seed int64) []clientGen{
		"sky-hot":     func(s int64) []clientGen { return skyHotClients(s, 2) },
		"sky-explore": func(s int64) []clientGen { return skyExploreClients(s, 2, 20) },
		"sky-rw":      func(s int64) []clientGen { g, _ := skyRWClients(s, 2); return g },
		"tpch-mix":    func(s int64) []clientGen { return tpchMixClients(s, 2, 20, qm) },
	}
	for name, mk := range gens {
		a, b, c := sqlOf(mk(42), 500), sqlOf(mk(42), 500), sqlOf(mk(7), 500)
		if a != b {
			t.Errorf("%s: equal seeds gave different op lists", name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same op list", name)
		}
	}
}

func TestExploreZoomsStayInside(t *testing.T) {
	g := skyExploreClients(3, 1, 0)[0]
	seen := map[string]bool{}
	repeats := 0
	for i := 0; i < 2000; i++ {
		s := g.next().sql
		if seen[s] {
			repeats++
		}
		seen[s] = true
		if !strings.Contains(s, "FROM sky.photoobj WHERE ra BETWEEN") {
			t.Fatalf("unexpected statement %q", s)
		}
	}
	if repeats < 40 || repeats > 250 {
		t.Errorf("repeats = %d of 2000, want about 5%%", repeats)
	}
}

func TestRWWritesAreOwnedAndParseBack(t *testing.T) {
	gens, reads := skyRWClients(5, 2)
	if len(reads) != 64 {
		t.Fatalf("%d read statements, want 64", len(reads))
	}
	for c, g := range gens {
		live := map[int64]bool{}
		writes := 0
		for i := 0; i < 3000; i++ {
			o := g.next()
			if !o.write {
				continue
			}
			writes++
			if o.objid < rwObjidBase(c) || o.objid >= rwObjidBase(c+1) {
				t.Fatalf("client %d wrote objid %d outside its partition", c, o.objid)
			}
			if o.row != nil {
				if len(o.row) != len(photoCols) {
					t.Fatalf("insert row has %d columns, want %d", len(o.row), len(photoCols))
				}
				live[o.objid] = true
			} else {
				if !live[o.objid] {
					t.Fatalf("client %d deletes objid %d it does not own", c, o.objid)
				}
				delete(live, o.objid)
			}
		}
		if writes < 200 || writes > 400 {
			t.Errorf("client %d: %d writes in 3000 ops, want about 10%%", c, writes)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(v, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(v, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := percentile(v, 0.1); got != 1 {
		t.Errorf("p10 = %v, want 1", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 1.25, 7", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "run", ID: 2, Parent: 1, Start: 10, End: 90},
		// Two overlapping children (parallel workers) and one that
		// sticks out past its parent.
		{Name: "a", ID: 3, Parent: 2, Start: 20, End: 50},
		{Name: "b", ID: 4, Parent: 2, Start: 40, End: 60},
		{Name: "c", ID: 5, Parent: 2, Start: 80, End: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 80 - 40 - 10, 3: 30, 4: 20, 5: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestPromHistogram(t *testing.T) {
	text := `# HELP repro_wal_fsync_seconds WAL fsync batch latency.
# TYPE repro_wal_fsync_seconds histogram
repro_wal_fsync_seconds_bucket{le="0.001"} 10
repro_wal_fsync_seconds_bucket{le="0.002"} 30
repro_wal_fsync_seconds_bucket{le="+Inf"} 40
repro_wal_fsync_seconds_sum 0.07
repro_wal_fsync_seconds_count 40
`
	h := parsePromHistogram(text, "repro_wal_fsync_seconds")
	if h.count != 40 || len(h.counts) != 3 {
		t.Fatalf("parsed %+v", h)
	}
	if got := h.quantile(0.5); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p50 = %v, want 0.0015", got)
	}
	d := h.sub(promHistogram{bounds: h.bounds, counts: []float64{10, 10, 10}, count: 10})
	if d.count != 30 || d.counts[1] != 20 {
		t.Errorf("delta = %+v", d)
	}
}

// TestSmoke boots the real reprod and runs all four workloads, both
// modes, at toy sizes, and checks that every metric BENCHMARK.json
// names comes back and no op failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run boots servers")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness knows %d", len(spec.Workloads), len(workloads))
	}
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for trace, names := range [][]struct{ Name string }{spec.EndToEnd, spec.PerLayer} {
			cmd := exec.Command(bin, "-smoke", "-workload", w.Name, "-seed", "42", "-seconds", "1",
				"-trace", map[int]string{0: "0", 1: "1"}[trace], "-out", filepath.Join(t.TempDir(), "r.jsonl"))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %d: last line is not the result object: %v", w.Name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(names) {
				t.Errorf("%s trace %d: %d metrics reported, BENCHMARK.json names %d", w.Name, trace, len(last.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := last.Metrics[n.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, n.Name)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, n.Name, m.Value)
				}
			}
			if trace == 1 && last.Metrics["client.error_rate"].Value != 0 {
				t.Errorf("%s: client.error_rate = %v", w.Name, last.Metrics["client.error_rate"].Value)
			}
		}
	}
}

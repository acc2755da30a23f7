package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, numBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	// 100 observations spread 1ms..100ms: p50 should land near 50ms,
	// p99 near 100ms (bucket resolution is a factor of 2).
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	if p50 < 16*time.Millisecond || p50 > 128*time.Millisecond {
		t.Errorf("p50 = %v, outside coarse [16ms,128ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestHistogramProm(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	var sb strings.Builder
	h.WriteProm(&sb, "x_seconds", "help text")
	out := sb.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{le="+Inf"} 1`,
		"x_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.EndSpan(0, "x", time.Now(), 0, 0, 0, 0)
	r.SetRecycle(0, "hit")
	r.SetAdmission(0, "admit")
	if qt := r.Finish("t", 0); qt != nil {
		t.Fatal("nil recorder Finish should return nil")
	}
	var tr *Tracer
	tr.FinishQuery(nil)
	tr.Event("e", 0, "")
	if tr.Metrics() != nil || tr.Recent() != nil {
		t.Fatal("nil tracer accessors should be zero")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(7, "select 1", 3)
	r.SetRecycle(1, "hit:exact")
	r.EndSpan(1, "algebra.select", r.Start(), time.Microsecond, 10, 5, 40)
	r.SetAdmission(2, "admit:granted")
	r.EndSpan(2, "aggr.count", r.Start(), 0, 5, 1, 8)
	r.SetParents([][]int{nil, {0}, {1}})
	qt := r.Finish("tmpl", 0)
	if qt.QueryID != 7 || qt.Template != "tmpl" || len(qt.Spans) != 3 {
		t.Fatalf("bad trace header: %+v", qt)
	}
	if qt.Spans[1].Recycle != "hit:exact" || qt.Spans[1].Op != "algebra.select" {
		t.Errorf("span 1 lost fields: %+v", qt.Spans[1])
	}
	if qt.Spans[2].Admit != "admit:granted" {
		t.Errorf("span 2 lost admission: %+v", qt.Spans[2])
	}
	if _, err := json.Marshal(qt); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var sb strings.Builder
	qt.Format(&sb)
	if !strings.Contains(sb.String(), "hit:exact") || !strings.Contains(sb.String(), "algebra.select") {
		t.Errorf("Format output missing span data:\n%s", sb.String())
	}
}

func TestTracerRingAndSlowLog(t *testing.T) {
	tr := New(Config{SlowQuery: 10 * time.Millisecond, RingSize: 4})
	for i := 1; i <= 6; i++ {
		el := time.Duration(i) * time.Millisecond
		if i == 5 {
			el = 50 * time.Millisecond
		}
		tr.FinishQuery(&QueryTrace{QueryID: uint64(i), Elapsed: el})
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent len = %d, want 4", len(recent))
	}
	if recent[0].QueryID != 6 || recent[3].QueryID != 3 {
		t.Errorf("recent order wrong: %d..%d", recent[0].QueryID, recent[3].QueryID)
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].QueryID != 5 {
		t.Fatalf("slow log: %+v", slow)
	}
	if tr.Queries() != 6 {
		t.Errorf("queries = %d", tr.Queries())
	}
	if got := tr.Metrics().Execute.Count(); got != 6 {
		t.Errorf("execute histogram count = %d", got)
	}
	tr.Event("commit.maintain", time.Millisecond, "table=t")
	if ev := tr.Events(); len(ev) != 1 || ev[0].Name != "commit.maintain" {
		t.Fatalf("events: %+v", ev)
	}
}

func TestMetricsWriteProm(t *testing.T) {
	m := NewMetrics()
	m.Parse.Observe(time.Microsecond)
	var sb strings.Builder
	m.WriteProm(&sb)
	out := sb.String()
	fams := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.HasSuffix(line, " histogram") {
			fams++
		}
	}
	if fams < 5 {
		t.Fatalf("only %d histogram families, want >= 5:\n%s", fams, out)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/recycler"
	"repro/internal/sky"
)

// newTestServer builds a small SkyServer catalog served with a
// keepall recycler — the shared-pool multi-user setup of the paper.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := sky.Generate(2000, 17)
	eng := repro.NewEngine(db.Cat, repro.WithRecycler(recycler.Config{
		Admission:   recycler.KeepAll,
		Subsumption: true,
	}))
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		eng.Recycler().Close()
	})
	return s, ts
}

func postQuery(t *testing.T, url, sql string) (*QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode /query response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return &out, resp.StatusCode
}

func postExec(t *testing.T, url, sql string) (*ExecResponse, int) {
	t.Helper()
	body, _ := json.Marshal(ExecRequest{SQL: sql})
	resp, err := http.Post(url+"/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /exec: %v", err)
	}
	defer resp.Body.Close()
	var out ExecResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode /exec response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return &out, resp.StatusCode
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return out
}

// TestConcurrentClientsSharePool is the acceptance scenario: many
// concurrent HTTP clients against one shared recycle pool, with
// nonzero reuse reported by /stats and no pins left behind.
func TestConcurrentClientsSharePool(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrency: 16})

	// Overlapping bounding-box searches: the same two footprints the
	// workload sampler uses, so clients hit each other's intermediates.
	queries := []string{
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 197.5 AND dec BETWEEN 2.0 AND 3.0 AND mode = 1",
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.5 AND 198.0 AND dec BETWEEN 2.2 AND 3.2 AND mode = 1",
		"SELECT description FROM sky.dbobjects WHERE name = 'dbobj_007'",
	}

	const clients = 8
	const perClient = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				sql := queries[(c+i)%len(queries)]
				res, code := postQuery(t, ts.URL, sql)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", c, code)
					return
				}
				if len(res.Results) == 0 {
					errs <- fmt.Errorf("client %d: no results", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := getStats(t, ts.URL)
	if st.Server.Queries != clients*perClient {
		t.Fatalf("server counted %d queries, want %d", st.Server.Queries, clients*perClient)
	}
	if !st.Engine.Recycling {
		t.Fatal("engine reports recycling disabled")
	}
	if st.Engine.Recycler.Reuses == 0 {
		t.Fatal("no pool reuse across concurrent clients; shared pool not working")
	}
	if st.Engine.Recycler.Entries == 0 {
		t.Fatal("pool is empty after the run")
	}
	if st.Engine.ActiveQueries != 0 {
		t.Fatalf("%d queries still pinned after all responses returned", st.Engine.ActiveQueries)
	}
	if st.Server.PreparedHits == 0 {
		t.Fatal("prepared-statement cache saw no hits for repeated texts")
	}
	// Each statement text appears many times: the shape cache must
	// hold one template per shape, not one per instance.
	if st.Engine.TemplateCache.Size > len(queries) {
		t.Fatalf("template cache holds %d shapes for %d distinct texts", st.Engine.TemplateCache.Size, len(queries))
	}
}

// TestGracefulShutdownDrains checks the drain contract: in-flight
// statements finish, later ones are refused, and no active-query pin
// outlives the drain.
func TestGracefulShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrency: 4})

	const clients = 8
	var wg sync.WaitGroup
	codes := make(chan int, clients*20)
	var firstDone sync.Once
	first := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// Distinct bounds in EVERY conjunct: normalization
				// sorts the conjunction, so a constant conjunct would
				// become a shared (pool-hit) chain head — each query
				// must do real work while the server shuts down.
				k := (c*20 + i) % 300
				sql := fmt.Sprintf(
					"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN %d.0 AND %d.5 AND dec BETWEEN -%d.0 AND %d.0",
					k, k+3, 50+k%30, 50+(k+7)%30)
				_, code := postQuery(t, ts.URL, sql)
				codes <- code
				firstDone.Do(func() { close(first) })
			}
		}(c)
	}

	// Drain once the first query completed: the others are in flight
	// or still to come.
	<-first
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain: %v", err)
	}
	wg.Wait()
	close(codes)

	var ok, refused int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Fatalf("unexpected status %d during shutdown", code)
		}
	}
	if ok == 0 {
		t.Fatal("no query completed before the drain")
	}
	if refused == 0 {
		t.Fatal("no query was refused after shutdown began (drain raced nothing)")
	}
	if n := s.Engine().Recycler().ActiveQueries(); n != 0 {
		t.Fatalf("%d active-query pins leaked past Shutdown", n)
	}
	// A statement arriving after the drain must be refused, not hang.
	_, code := postQuery(t, ts.URL, "SELECT COUNT(*) FROM sky.photoobj WHERE mode = 1")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown query got %d, want 503", code)
	}
}

// TestExecDMLInvalidates drives an update over the wire and checks
// both the data change and the §6 invalidation of dependent pool
// entries.
func TestExecDMLInvalidates(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	count := func() float64 {
		res, code := postQuery(t, ts.URL, "SELECT COUNT(*) FROM sky.dbobjects WHERE type = 'U'")
		if code != http.StatusOK {
			t.Fatalf("count query: status %d", code)
		}
		return res.Results[0].Values[0].(float64)
	}

	before := count()
	count() // warm the pool so the insert has something to invalidate

	res, code := postExec(t, ts.URL,
		"INSERT INTO sky.dbobjects (name, type, description) VALUES ('dbobj_x1', 'U', 'wire test'), ('dbobj_x2', 'U', 'wire test')")
	if code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if res.Op != "insert" || res.RowsAffected != 2 {
		t.Fatalf("insert reported %+v", res)
	}
	if got := count(); got != before+2 {
		t.Fatalf("count after insert = %v, want %v", got, before+2)
	}

	res, code = postExec(t, ts.URL, "DELETE FROM sky.dbobjects WHERE name = 'dbobj_x1'")
	if code != http.StatusOK || res.RowsAffected != 1 {
		t.Fatalf("delete: status %d, %+v", code, res)
	}
	if got := count(); got != before+1 {
		t.Fatalf("count after delete = %v, want %v", got, before+1)
	}

	st := getStats(t, ts.URL)
	if st.Engine.Recycler.Invalidated == 0 {
		t.Fatal("DML over the wire invalidated nothing")
	}

	// Unsupported statements are errors, not silent no-ops.
	if _, code := postExec(t, ts.URL, "UPDATE sky.dbobjects SET type = 'V'"); code != http.StatusBadRequest {
		t.Fatalf("UPDATE got %d, want 400", code)
	}
	if _, code := postExec(t, ts.URL, "DELETE FROM sky.nosuch WHERE a = 1"); code != http.StatusBadRequest {
		t.Fatalf("unknown table got %d, want 400", code)
	}
}

// TestAdmissionGateQueueTimeout saturates a width-1 gate with a held
// slot and checks that a queued statement is rejected after the
// configured wait.
func TestAdmissionGateQueueTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrency: 1, QueueTimeout: 30 * time.Millisecond})

	// Hold the only slot directly.
	if err := s.acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	start := time.Now()
	_, code := postQuery(t, ts.URL, "SELECT COUNT(*) FROM sky.dbobjects WHERE type = 'U'")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated gate returned %d, want 503", code)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("rejection came before the queue timeout elapsed")
	}
	s.release()

	// With the slot free the same statement succeeds.
	if _, code := postQuery(t, ts.URL, "SELECT COUNT(*) FROM sky.dbobjects WHERE type = 'U'"); code != http.StatusOK {
		t.Fatalf("freed gate returned %d, want 200", code)
	}
	if got := getStats(t, ts.URL); got.Server.Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestQueryErrorsAndLimits covers malformed requests and the row cap.
func TestQueryErrorsAndLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 5})

	if _, code := postQuery(t, ts.URL, "SELEC nonsense"); code != http.StatusBadRequest {
		t.Fatalf("parse error got %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON got %d, want 400", resp.StatusCode)
	}

	res, code := postQuery(t, ts.URL, "SELECT name FROM sky.dbobjects WHERE type = 'U'")
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	col := res.Results[0]
	if len(col.Values) != 5 || !col.Truncated {
		t.Fatalf("row cap not applied: %d values, truncated=%v", len(col.Values), col.Truncated)
	}
	if col.Tuples <= 5 {
		t.Fatalf("tuples should report the uncapped cardinality, got %d", col.Tuples)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/mal"
	"repro/internal/sqlfe"
	"repro/internal/trace"
)

// Config parametrises a Server.
type Config struct {
	// MaxConcurrency bounds the number of statements executing at once
	// across all protocols (the admission gate). 0 means twice the
	// number of CPUs — enough to keep every core busy while the rest
	// of the flood queues at the door.
	MaxConcurrency int
	// QueueTimeout bounds how long a statement may wait for a gate
	// slot before being rejected with 503. 0 waits as long as the
	// client does (the request context is still honoured).
	QueueTimeout time.Duration
	// MaxRows caps the values returned per result column on /query
	// and the TCP protocol (0 = 1000). The pool still holds the full
	// intermediate; the cap only bounds the response encoding.
	MaxRows int
}

// ErrShuttingDown is returned for statements that arrive after
// Shutdown has begun.
var ErrShuttingDown = errors.New("server: shutting down")

// errGateTimeout reports a statement that waited longer than
// QueueTimeout for an execution slot.
var errGateTimeout = errors.New("server: admission queue timeout")

// Server serves one shared Engine over HTTP and a line-oriented TCP
// protocol. All statements from all protocols pass one admission gate
// and are drained by Shutdown.
type Server struct {
	eng *repro.Engine
	cfg Config

	gate chan struct{}

	mu        sync.Mutex
	closed    bool
	inflight  sync.WaitGroup // statements currently executing
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	connWG    sync.WaitGroup // TCP connection handlers

	// metrics is the engine tracer's histogram registry, or a detached
	// (never-fed) one when tracing is off so /metrics always exposes the
	// full set of families.
	metrics *trace.Metrics

	queries  atomic.Uint64 // /query + TCP queries accepted past the gate
	execs    atomic.Uint64 // /exec + TCP writes accepted past the gate
	errorsN  atomic.Uint64 // statements that returned an error
	rejected atomic.Uint64 // statements refused (gate timeout or shutdown)
	active   atomic.Int64  // statements currently past the gate
}

// New creates a server over the engine. The engine (and its catalog
// and recycler) is shared: every connection's queries meet in the same
// recycle pool.
func New(eng *repro.Engine, cfg Config) *Server {
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = 1000
	}
	metrics := eng.Tracer().Metrics()
	if metrics == nil {
		metrics = trace.NewMetrics()
	}
	return &Server{
		eng:     eng,
		cfg:     cfg,
		gate:    make(chan struct{}, cfg.MaxConcurrency),
		conns:   make(map[net.Conn]struct{}),
		metrics: metrics,
	}
}

// Engine returns the served engine.
func (s *Server) Engine() *repro.Engine { return s.eng }

// acquire claims an execution slot and registers the statement with
// the drain group. Every successful acquire must be paired with
// release.
func (s *Server) acquire(ctx context.Context) error {
	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.gate <- struct{}{}:
	case <-ctx.Done():
		s.rejected.Add(1)
		return ctx.Err()
	case <-timeout:
		s.rejected.Add(1)
		return errGateTimeout
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.gate
		s.rejected.Add(1)
		return ErrShuttingDown
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.active.Add(1)
	return nil
}

func (s *Server) release() {
	s.active.Add(-1)
	s.inflight.Done()
	<-s.gate
}

// The HTTP endpoints are typed: each refuses the other's statements
// before they run.
var (
	errQueryWrite = errors.New("server: /query runs SELECT; send INSERT and DELETE to /exec")
	errExecQuery  = errors.New("server: /exec runs INSERT and DELETE; send SELECT to /query")
)

// Shutdown gracefully stops the server: listeners close, new
// statements are refused, in-flight statements run to completion
// (each releasing its recycler pin through the engine's paired
// BeginQuery/EndQuery), and finally all TCP connections are closed.
// It returns ctx.Err() if the context expires before the drain
// completes; the drain itself keeps going in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	if !already {
		for _, ln := range lns {
			ln.Close()
		}
	}

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		// Only after the drain: kill connections (a connection blocked
		// in Read holds no statement and may be cut; one mid-statement
		// was just waited for).
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- HTTP ---------------------------------------------------------------

// Handler returns the HTTP API: POST /query (?trace=1 returns the
// per-instruction trace), POST /exec, GET /stats, GET /metrics,
// GET /healthz, GET /debug/queries (recent + slow query traces) and
// the standard net/http/pprof endpoints under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugQueriesResponse is the body of GET /debug/queries: the bounded
// recent-query ring, the slow-query log and the tracer's commit
// event ring, most recent first.
type DebugQueriesResponse struct {
	// Tracing is false when the engine runs without a tracer; all the
	// rings are empty then.
	Tracing         bool                `json:"tracing"`
	SlowThresholdMS int64               `json:"slow_threshold_ms"`
	Queries         uint64              `json:"queries"`
	Recent          []*trace.QueryTrace `json:"recent"`
	Slow            []*trace.QueryTrace `json:"slow"`
	Events          []trace.TracerEvent `json:"events"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	tr := s.eng.Tracer()
	writeJSON(w, http.StatusOK, DebugQueriesResponse{
		Tracing:         tr != nil,
		SlowThresholdMS: tr.SlowThreshold().Milliseconds(),
		Queries:         tr.Queries(),
		Recent:          tr.Recent(),
		Slow:            tr.Slow(),
		Events:          tr.Events(),
	})
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	SQL string `json:"sql"`
	// MaxRows overrides the server's per-column row cap for this
	// request (bounded above by the server cap).
	MaxRows int `json:"max_rows,omitempty"`
}

// ResultColumn is one exported result: a named column of values (or a
// single scalar, e.g. COUNT(*)).
type ResultColumn struct {
	Name string `json:"name"`
	// Values holds the column values, capped at MaxRows.
	Values []any `json:"values"`
	// Tuples is the uncapped cardinality of the result.
	Tuples int `json:"tuples"`
	// Truncated reports Values was capped below Tuples.
	Truncated bool `json:"truncated,omitempty"`
}

// QueryStatsJSON is the per-query recycler summary returned with each
// /query response.
type QueryStatsJSON struct {
	ElapsedUS   int64 `json:"elapsed_us"`
	Marked      int   `json:"marked"`
	Hits        int   `json:"hits"`
	HitsNonBind int   `json:"hits_nonbind"`
	LocalHits   int   `json:"local_hits"`
	GlobalHits  int   `json:"global_hits"`
	Subsumed    int   `json:"subsumed"`
	Combined    int   `json:"combined"`
	SavedUS     int64 `json:"saved_us"`
}

// QueryResponse is the body of a successful POST /query. Trace is set
// only when the request asked for ?trace=1 and the engine has a
// tracer attached.
type QueryResponse struct {
	Results []ResultColumn    `json:"results"`
	Stats   QueryStatsJSON    `json:"stats"`
	Trace   *trace.QueryTrace `json:"trace,omitempty"`
}

// ExecRequest is the body of POST /exec.
type ExecRequest struct {
	SQL string `json:"sql"`
}

// ExecResponse is the body of a successful POST /exec.
type ExecResponse struct {
	Op           string `json:"op"`
	RowsAffected int    `json:"rows_affected"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON answers with v encoded by encoding/json. The body is
// encoded before the header goes out, so a value JSON cannot represent
// turns into a 500 with an error body instead of a 200 with none.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		enc.Encode(errorResponse{Error: "server: encode response: " + err.Error()})
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody sends a complete JSON body with its Content-Length, so the
// response is never chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// bufPool recycles the /query request and response buffers. Buffers
// that grew past maxPooledBuf (a huge statement or result) are dropped
// rather than pinned in the pool.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// readBody appends the whole request body to dst.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

func (s *Server) gateError(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	if errors.Is(err, context.Canceled) {
		code = 499 // client went away
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// handleQuery answers POST /query. The request is decoded from a
// pooled buffer, and a plain (non-trace) answer is encoded straight
// from the result vectors into another one (appendQueryResponse);
// ?trace=1 answers go through encoding/json.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	in := getBuf()
	defer putBuf(in)
	body, err := readBody((*in)[:0], r.Body)
	*in = body
	if err != nil || json.Unmarshal(body, &req) != nil || req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be JSON {\"sql\": \"SELECT ...\"}"})
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		s.gateError(w, err)
		return
	}
	defer s.release()
	s.queries.Add(1)
	traced := r.URL.Query().Get("trace") == "1"
	var res *repro.ExecResult
	var qt *trace.QueryTrace
	switch {
	case sqlfe.IsWrite(req.SQL):
		err = errQueryWrite
	case traced:
		res, qt, err = s.eng.ExecSQLTraced(req.SQL)
	default:
		res, err = s.eng.ExecSQL(req.SQL)
	}
	if err != nil {
		s.errorsN.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	maxRows := s.cfg.MaxRows
	if req.MaxRows > 0 && req.MaxRows < maxRows {
		maxRows = req.MaxRows
	}
	if traced {
		writeJSON(w, http.StatusOK, QueryResponse{
			Results: encodeResults(res.Results, maxRows),
			Stats:   encodeStats(res.Stats),
			Trace:   qt,
		})
		return
	}
	out := getBuf()
	defer putBuf(out)
	*out = appendQueryResponse((*out)[:0], res.Results, maxRows, res.Stats)
	writeBody(w, http.StatusOK, *out)
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be JSON {\"sql\": \"INSERT ...\"}"})
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		s.gateError(w, err)
		return
	}
	defer s.release()
	s.execs.Add(1)
	var res *repro.ExecResult
	var err error
	if sqlfe.IsWrite(req.SQL) {
		res, err = s.eng.ExecSQL(req.SQL)
	} else {
		err = errExecQuery
	}
	if err != nil {
		s.errorsN.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ExecResponse{Op: res.Op, RowsAffected: res.RowsAffected})
}

// StatsResponse is the body of GET /stats: the engine snapshot plus
// the server's own counters.
type StatsResponse struct {
	Engine repro.EngineStats `json:"engine"`
	Server ServerStats       `json:"server"`
}

// ServerStats summarises the serving layer.
type ServerStats struct {
	Queries        uint64 `json:"queries"`
	Execs          uint64 `json:"execs"`
	Errors         uint64 `json:"errors"`
	Rejected       uint64 `json:"rejected"`
	Active         int64  `json:"active"`
	MaxConcurrency int    `json:"max_concurrency"`
	// PreparedHits / PreparedMisses / PreparedTexts mirror the
	// engine's exact-text statement cache (EngineStats.Statements):
	// SELECTs re-run from a cached text, SELECTs compiled and cached,
	// and the texts held. Texts over EngineStats.TemplateCache.Size is
	// the spellings each normalized shape absorbed.
	PreparedHits   uint64 `json:"prepared_hits"`
	PreparedMisses uint64 `json:"prepared_misses"`
	PreparedTexts  int    `json:"prepared_texts"`
}

// Stats snapshots the serving layer and the engine underneath.
func (s *Server) Stats() StatsResponse {
	es := s.eng.StatsSnapshot()
	return StatsResponse{
		Engine: es,
		Server: ServerStats{
			Queries:        s.queries.Load(),
			Execs:          s.execs.Load(),
			Errors:         s.errorsN.Load(),
			Rejected:       s.rejected.Load(),
			Active:         s.active.Load(),
			MaxConcurrency: s.cfg.MaxConcurrency,
			PreparedHits:   es.Statements.Hits,
			PreparedMisses: es.Statements.Misses,
			PreparedTexts:  es.Statements.Texts,
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// --- result encoding ----------------------------------------------------

func encodeResults(results []mal.Result, maxRows int) []ResultColumn {
	out := make([]ResultColumn, 0, len(results))
	for _, r := range results {
		out = append(out, encodeResult(r, maxRows))
	}
	return out
}

func encodeResult(r mal.Result, maxRows int) ResultColumn {
	col := ResultColumn{Name: r.Name}
	if r.Val.Kind != mal.VBat {
		col.Tuples = 1
		col.Values = []any{jsonValue(r.Val.Scalar())}
		return col
	}
	b := r.Val.Bat
	if b == nil {
		return col
	}
	n := b.Len()
	col.Tuples = n
	limit := n
	if limit > maxRows {
		limit = maxRows
		col.Truncated = true
	}
	col.Values = make([]any, limit)
	for i := 0; i < limit; i++ {
		col.Values[i] = jsonValue(b.Tail.Get(i))
	}
	return col
}

func encodeStats(st mal.QueryStats) QueryStatsJSON {
	return QueryStatsJSON{
		ElapsedUS:   st.Elapsed.Microseconds(),
		Marked:      st.MarkedNonBind,
		Hits:        st.Hits,
		HitsNonBind: st.HitsNonBind,
		LocalHits:   st.LocalHits,
		GlobalHits:  st.GlobalHits,
		Subsumed:    st.Subsumed,
		Combined:    st.Combined,
		SavedUS:     st.SavedTime.Microseconds(),
	}
}

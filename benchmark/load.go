package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/server"
)

// reply is what one completed op reports back to the load generator.
type reply struct {
	answer    string // canonical result, compared with the oracle's
	elapsedUS int64  // engine-side time (wire field stats.elapsed_us)
	hits      int    // non-bind pool hits
	marked    int    // non-bind monitored instructions
	subsumed  int
	savedUS   int64
}

// target is the system a closed-loop client talks to: a reprod process
// over loopback HTTP, or (tpch-mix) an in-process engine.
type target interface {
	do(client int, o op) (reply, error)
	stats() (server.StatsResponse, error)
}

// record is one op as the client saw it. lat is divided by the host
// speed factor of the slice the op ran in (see hostSpeed).
type record struct {
	op    op
	slice int
	lat   time.Duration
	rep   reply
	err   error
}

// drive runs the closed loop: every client issues its next op as soon
// as the previous one completed, until dur has passed. With dur == 0
// it issues each client's warm-up list instead. Records come back
// grouped by client, in issue order.
func drive(t target, gens []clientGen, dur time.Duration) ([][]record, time.Duration) {
	out := make([][]record, len(gens))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			one := func(o op) {
				t0 := time.Now()
				rep, err := t.do(c, o)
				out[c] = append(out[c], record{op: o, lat: time.Since(t0), rep: rep, err: err})
			}
			if dur == 0 {
				for _, o := range gens[c].warm {
					one(o)
				}
				return
			}
			for time.Now().Before(deadline) {
				one(gens[c].next())
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// The reference box is a shared 2-vCPU VM whose host throttles it for
// tens of seconds to minutes at a time: a fixed integer loop then takes
// 1.3x, 1.6x or exactly 2x as long, on both cores at once, and so does
// everything the server does (its accounted CPU time per op rises by
// the same factor). No statistic over one run can remove a phase that
// outlasts the run, so the harness measures the host instead: the
// window is cut into one-second slices, the clients pause between
// slices (the server is then idle) and a fixed loop is timed on every
// core. A slice's times are divided, and its rates multiplied, by
// (loop time ÷ loop time on the unthrottled reference box).

const (
	probeRounds = 5
	probeIters  = 2_160_000
	// probeRef is what one round of probeIters iterations takes on the
	// reference box (Xeon @ 2.10 GHz) when the host leaves it alone.
	probeRef  = 4 * time.Millisecond
	probeBand = 1.15
)

var probeSink atomic.Uint64

// hostSpeed returns how many times slower than the reference the host
// currently runs CPU-bound code (1 = reference speed): every core runs
// probeRounds rounds of a fixed loop at once; a core's reading is its
// median round (a stray wake-up disturbs one round, throttling all of
// them), and the result is the mean over the cores.
func hostSpeed() float64 {
	n := runtime.GOMAXPROCS(0)
	perCore := make([]float64, n)
	var wg sync.WaitGroup
	for c := range perCore {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rounds := make([]float64, probeRounds)
			x := uint64(88172645463325252) + uint64(c)
			for r := range rounds {
				t0 := time.Now()
				for i := 0; i < probeIters; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				rounds[r] = float64(time.Since(t0))
			}
			probeSink.Add(x) // keeps the loop from being optimised away
			perCore[c] = median(rounds)
		}(c)
	}
	wg.Wait()
	var sum float64
	for _, d := range perCore {
		sum += d
	}
	f := sum / float64(n) / float64(probeRef)
	// Turbo and probe jitter move the reading by ±10% on an unthrottled
	// host without moving the server; the throttled levels start at
	// 1.3. Readings inside the band are taken as reference speed.
	if f < probeBand {
		return 1
	}
	return f
}

// slice is one second of a measured window.
type slice struct {
	wall  time.Duration // raw
	speed float64       // host speed factor around the slice
	cpu   time.Duration // CPU time the engine's process used, raw
}

// measure drives the target for whole seconds, one slice at a time,
// probing the host before and after every slice. It returns the
// records (latencies already normalised) and the slices. settle, when
// set, runs before every probe.
func measure(t target, pid int, gens []clientGen, seconds float64, settle func()) ([][]record, []slice, error) {
	n := max(1, int(seconds))
	recs := make([][]record, len(gens))
	slices := make([]slice, n)
	probe := func() float64 {
		if settle != nil {
			settle()
		}
		return hostSpeed()
	}
	before := probe()
	for i := range slices {
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, nil, err
		}
		part, wall := drive(t, gens, time.Second)
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, nil, err
		}
		after := probe()
		sl := slice{wall: wall, speed: (before + after) / 2, cpu: cpu1 - cpu0}
		slices[i] = sl
		before = after
		for c := range part {
			for _, r := range part[c] {
				r.slice = i
				r.lat = time.Duration(float64(r.lat) / sl.speed)
				recs[c] = append(recs[c], r)
			}
		}
	}
	return recs, slices, nil
}

// --- reprod over HTTP ------------------------------------------------------

// reprod is one running server process.
type reprod struct {
	cmd     *exec.Cmd
	base    string
	clients []*http.Client // one keep-alive connection per load client
	admin   *http.Client
}

// procs tracks every child the harness started so that any exit path
// can stop and reap them.
var procs struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

func killAll() {
	procs.Lock()
	defer procs.Unlock()
	for cmd := range procs.live {
		_ = cmd.Process.Kill() // already-exited children report an error we do not need
		_ = cmd.Wait()
	}
	procs.live = nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// bootReprod starts the binary with the given flags plus a fresh
// loopback -http address and waits for /healthz to answer 200.
func bootReprod(bin string, flags []string, clients int, logPath string) (*reprod, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(flags, "-http", addr)...)
	// The child must not outlive a harness that dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reprod: %w", err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*exec.Cmd]bool{}
	}
	procs.live[cmd] = true
	procs.Unlock()

	r := &reprod{cmd: cmd, base: "http://" + addr, admin: &http.Client{Timeout: 30 * time.Second}}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		})
	}
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := r.admin.Get(r.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // body is "ok"; only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if !alive(cmd.Process.Pid) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.kill()
	return nil, fmt.Errorf("reprod %v did not become healthy (see %s)", flags, logPath)
}

// alive reports whether pid is a running (not zombie) process.
func alive(pid int) bool {
	st, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(st, ')')
	return i >= 0 && i+2 < len(st) && st[i+2] != 'Z'
}

// kill stops the server with SIGKILL — the crash the durability check
// recovers from, and the fastest teardown for the in-memory servers —
// and waits for it to be reaped.
func (r *reprod) kill() {
	_ = r.cmd.Process.Kill() // an already-dead child is fine
	_ = r.cmd.Wait()         // the exit status of a killed child is not a result
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.admin.CloseIdleConnections()
	procs.Lock()
	delete(procs.live, r.cmd)
	procs.Unlock()
}

func (r *reprod) pid() int { return r.cmd.Process.Pid }

// wireResponse is the part of /query and /exec bodies the client reads.
type wireResponse struct {
	Results []struct {
		Name   string            `json:"name"`
		Values []json.RawMessage `json:"values"`
		Tuples int               `json:"tuples"`
	} `json:"results"`
	Stats        server.QueryStatsJSON `json:"stats"`
	RowsAffected int                   `json:"rows_affected"`
	Error        string                `json:"error"`
}

func (r *reprod) do(client int, o op) (reply, error) {
	path := "/query"
	if o.write {
		path = "/exec"
	}
	body, _ := json.Marshal(map[string]string{"sql": o.sql}) // a string map cannot fail to marshal
	resp, err := r.clients[client].Post(r.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	var w wireResponse
	if err := json.Unmarshal(raw, &w); err != nil {
		return reply{}, fmt.Errorf("status %d: undecodable body: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, w.Error)
	}
	if o.write {
		if w.RowsAffected != 1 {
			return reply{}, fmt.Errorf("write affected %d rows, want 1", w.RowsAffected)
		}
		return reply{}, nil
	}
	cols := make([]canonCol, len(w.Results))
	for i, rc := range w.Results {
		cols[i] = canonCol{name: rc.Name, tuples: rc.Tuples}
		for _, v := range rc.Values {
			cols[i].values = append(cols[i].values, string(v))
		}
	}
	return reply{
		answer:    canonAnswer(cols),
		elapsedUS: w.Stats.ElapsedUS,
		hits:      w.Stats.HitsNonBind,
		marked:    w.Stats.Marked,
		subsumed:  w.Stats.Subsumed,
		savedUS:   w.Stats.SavedUS,
	}, nil
}

func (r *reprod) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := r.admin.Get(r.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// metricsText fetches the Prometheus exposition.
func (r *reprod) metricsText() (string, error) {
	resp, err := r.admin.Get(r.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// heapLiveMB forces a collection in the server (the stock pprof heap
// endpoint does that for gc=1) and returns the bytes still allocated
// afterwards: what the catalog, the recycle pool and the caches hold,
// without the garbage a peak-RSS reading is dominated by.
func (r *reprod) heapLiveMB() (float64, error) {
	resp, err := r.admin.Get(r.base + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	const key = "\n# HeapAlloc = "
	i := strings.Index(string(b), key)
	if i < 0 {
		return 0, fmt.Errorf("no HeapAlloc in the heap profile")
	}
	rest := string(b[i+len(key):])
	n, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '\n')], 64)
	return n / (1 << 20), err
}

// --- in-process engine (tpch-mix) -----------------------------------------

// engineTarget drives the library API: one Session per client.
type engineTarget struct {
	eng      *repro.Engine
	sessions []*repro.Session
}

func newEngineTarget(eng *repro.Engine, clients int) *engineTarget {
	t := &engineTarget{eng: eng}
	for i := 0; i < clients; i++ {
		t.sessions = append(t.sessions, eng.NewSession())
	}
	return t
}

func (t *engineTarget) do(client int, o op) (reply, error) {
	res, err := t.sessions[client].Exec(o.tmpl, o.params...)
	if err != nil {
		return reply{}, err
	}
	return reply{
		answer:    canonResults(res.Results),
		elapsedUS: res.Stats.Elapsed.Microseconds(),
		hits:      res.Stats.HitsNonBind,
		marked:    res.Stats.MarkedNonBind,
		subsumed:  res.Stats.Subsumed,
		savedUS:   res.Stats.SavedTime.Microseconds(),
	}, nil
}

func (t *engineTarget) stats() (server.StatsResponse, error) {
	return server.StatsResponse{Engine: t.eng.StatsSnapshot()}, nil
}

// --- canonical answers ------------------------------------------------------

// canonCol is one result column with its values already JSON-encoded.
type canonCol struct {
	name   string
	tuples int
	values []string
}

// maxCanonRows mirrors the server's default per-column response cap.
const maxCanonRows = 1000

// canonAnswer renders a result set so that a wire response and an
// in-process result of the same query compare equal as strings. No
// workload statement has an ORDER BY, so rows are sorted: the answer
// is a multiset and the row order an accident of execution.
func canonAnswer(cols []canonCol) string {
	var sb strings.Builder
	rows := -1
	for _, c := range cols {
		fmt.Fprintf(&sb, "%s/%d ", c.name, c.tuples)
		if rows == -1 || len(c.values) < rows {
			rows = len(c.values)
		}
	}
	lines := make([]string, 0, rows)
	for i := 0; i < rows; i++ {
		parts := make([]string, len(cols))
		for j, c := range cols {
			parts[j] = c.values[i]
		}
		lines = append(lines, strings.Join(parts, ","))
	}
	sort.Strings(lines)
	sb.WriteString(strings.Join(lines, ";"))
	return sb.String()
}

// canonResults is canonAnswer over engine results, encoding each value
// the way the server's JSON layer does (dates as text, oids as numbers).
func canonResults(results []mal.Result) string {
	cols := make([]canonCol, len(results))
	enc := func(v any) string {
		switch x := v.(type) {
		case bat.Date:
			y, m, d := algebra.CivilFromDays(int32(x))
			v = fmt.Sprintf("%04d-%02d-%02d", y, m, d)
		case bat.Oid:
			v = uint64(x)
		}
		var buf bytes.Buffer
		e := json.NewEncoder(&buf)
		e.SetEscapeHTML(false)
		if err := e.Encode(v); err != nil {
			return "!" + err.Error()
		}
		return strings.TrimSuffix(buf.String(), "\n")
	}
	for i, r := range results {
		cols[i].name = r.Name
		if r.Val.Kind != mal.VBat {
			cols[i].tuples = 1
			cols[i].values = []string{enc(r.Val.Scalar())}
			continue
		}
		if r.Val.Bat == nil {
			continue
		}
		n := r.Val.Bat.Len()
		cols[i].tuples = n
		if n > maxCanonRows {
			n = maxCanonRows
		}
		for j := 0; j < n; j++ {
			cols[i].values = append(cols[i].values, enc(r.Val.Bat.Tail.Get(j)))
		}
	}
	return canonAnswer(cols)
}

// --- /proc ------------------------------------------------------------------

// procCPU returns utime+stime of pid. Linux reports both in clock
// ticks of 1/100 s (USER_HZ is 100 on every architecture Go supports).
func procCPU(pid int) (time.Duration, error) {
	st, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(st, ')')
	f := strings.Fields(string(st[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat times", pid)
	}
	return time.Duration(ut+stt) * 10 * time.Millisecond, nil
}

// procHWM returns the peak resident set size (VmHWM) of pid in MB.
func procHWM(pid int) (float64, error) {
	st, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(st), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	// A file vanishing mid-walk (WAL rotation) just does not count.
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
)

// oracleBody is the /query body encoding/json produces for results —
// the reference the append encoder must match byte for byte.
func oracleBody(t *testing.T, results []mal.Result, maxRows int, st mal.QueryStats) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(QueryResponse{Results: encodeResults(results, maxRows), Stats: encodeStats(st)}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// randText draws strings over quotes, backslashes, every control
// character, multi-byte runes, U+2028/U+2029, invalid UTF-8 and the
// HTML characters encoding/json would escape with HTML escaping on.
func randText(rng *rand.Rand) string {
	pieces := []string{"a", "Z", " ", `"`, `\`, "/", "<", ">", "&", "\x7f", "é", "日本", "\U0001F642",
		"\u2028", "\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80", "\ufffd"}
	var sb strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		if rng.Intn(3) == 0 {
			sb.WriteByte(byte(rng.Intn(0x20)))
		} else {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
	}
	return sb.String()
}

// randFloat draws floats around encoding/json's %f / %e switch points
// (1e-6 and 1e21), plus zeros, subnormals and extremes.
func randFloat(rng *rand.Rand) float64 {
	special := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		1e-7, 9.999999e20, 1e20, 5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 123456789.125, 1e-9, 3e-10}
	if rng.Intn(2) == 0 {
		return special[rng.Intn(len(special))]
	}
	f := math.Pow(10, rng.Float64()*60-30) * (rng.Float64() + 0.5)
	if rng.Intn(2) == 0 {
		f = -f
	}
	return f
}

// randColumn builds one random result of the given kind: a scalar or a
// BAT over each tail vector type, sometimes a nil BAT.
func randColumn(rng *rand.Rand, name string) mal.Result {
	n := rng.Intn(6)
	switch rng.Intn(14) {
	case 0:
		return mal.Result{Name: name, Val: mal.IntV(rng.Int63() - rng.Int63())}
	case 1:
		return mal.Result{Name: name, Val: mal.FloatV(randFloat(rng))}
	case 2:
		return mal.Result{Name: name, Val: mal.StrV(randText(rng))}
	case 3:
		return mal.Result{Name: name, Val: mal.DateV(bat.Date(rng.Int31n(2000000) - 1000000))}
	case 4:
		return mal.Result{Name: name, Val: mal.BatV(nil)}
	case 5:
		return mal.Result{Name: name, Val: mal.BoolV(rng.Intn(2) == 0)}
	case 6:
		return mal.Result{Name: name, Val: mal.OidV(bat.Oid(rng.Uint64()))}
	}
	var tail bat.Vector
	switch rng.Intn(7) {
	case 0:
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63() - rng.Int63()
		}
		if n > 0 {
			v[0] = bat.NilInt
		}
		tail = bat.NewInts(v)
	case 1:
		v := make([]float64, n)
		for i := range v {
			v[i] = randFloat(rng)
		}
		tail = bat.NewFloats(v)
	case 2:
		v := make([]string, n)
		for i := range v {
			v[i] = randText(rng)
		}
		tail = bat.NewStrings(v)
	case 3:
		v := make([]bat.Date, n)
		for i := range v {
			v[i] = bat.Date(rng.Int31n(2000000) - 1000000)
		}
		if n > 0 {
			v[0] = bat.NilDate
		}
		tail = bat.NewDates(v)
	case 4:
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 0
		}
		tail = bat.NewBools(v)
	case 5:
		v := make([]bat.Oid, n)
		for i := range v {
			v[i] = bat.Oid(rng.Uint64())
		}
		tail = bat.NewOids(v)
	default:
		tail = bat.NewDense(bat.Oid(rng.Intn(1000)), n)
	}
	return mal.Result{Name: name, Val: mal.BatV(bat.NewDenseHead(tail))}
}

// TestAppendQueryResponseMatchesEncodingJSON keeps encoding/json as the
// oracle: over random result sets of every kind (nil BATs, nil
// sentinels, truncation, escaping corner cases, float format switch
// points) the append encoder writes the identical body.
func TestAppendQueryResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		results := make([]mal.Result, rng.Intn(4))
		for j := range results {
			results[j] = randColumn(rng, randText(rng))
		}
		st := mal.QueryStats{
			Elapsed: time.Duration(rng.Int63n(1e12)), MarkedNonBind: rng.Intn(50), Hits: rng.Intn(50),
			HitsNonBind: rng.Intn(50), LocalHits: rng.Intn(5), GlobalHits: rng.Intn(50),
			Subsumed: rng.Intn(5), Combined: rng.Intn(5), SavedTime: time.Duration(rng.Int63n(1e9)),
		}
		maxRows := 1 + rng.Intn(5)
		want := oracleBody(t, results, maxRows, st)
		got := string(appendQueryResponse(nil, results, maxRows, st))
		if got != want {
			t.Fatalf("case %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestAppendQueryResponseNonFiniteIsNull: NaN (the float nil) and ±Inf,
// which encoding/json refuses, encode as null.
func TestAppendQueryResponseNonFiniteIsNull(t *testing.T) {
	results := []mal.Result{
		{Name: "avg", Val: mal.FloatV(math.NaN())},
		{Name: "col", Val: mal.BatV(bat.NewDenseHead(bat.NewFloats([]float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1)})))},
	}
	got := string(appendQueryResponse(nil, results, 10, mal.QueryStats{}))
	want := `{"results":[{"name":"avg","values":[null],"tuples":1},{"name":"col","values":[1.5,null,null,null],"tuples":4}],` +
		`"stats":{"elapsed_us":0,"marked":0,"hits":0,"hits_nonbind":0,"local_hits":0,"global_hits":0,"subsumed":0,"combined":0,"saved_us":0}}` + "\n"
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestQueryEmptyAverageIsNull: AVG over no rows is the float nil. The
// answer is a 200 whose body says null, with a Content-Length — not a
// 200 with an empty body.
func TestQueryEmptyAverageIsNull(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/query", "/query?trace=1"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"sql":"SELECT AVG(ra) FROM sky.photoobj WHERE ra > 400"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(body) == 0 {
			t.Fatalf("%s: status %d, Content-Length %d, body %q", path, resp.StatusCode, resp.ContentLength, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v in %q", path, err, body)
		}
		if len(out.Results) != 1 || len(out.Results[0].Values) != 1 || out.Results[0].Values[0] != nil {
			t.Fatalf("%s: want one null value, got %s", path, body)
		}
	}
}

// TestWriteJSONEncodeFailureIs500: a value encoding/json cannot encode
// becomes a 500 with an error body, not a 200 with an empty one.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.Inf(1)})
	var e errorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Content-Length") != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", rec.Header().Get("Content-Length"), rec.Body.Len())
	}
}

// rowEscaper and oracleRow are the TCP row writer as it was before it
// shared the JSON encoder's per-value formatter: the reference its
// output must keep.
var rowEscaper = strings.NewReplacer("\\", "\\\\", "\t", "\\t", "\n", "\\n", "\r", "\\r")

func oracleRow(r mal.Result, maxRows int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ROW %s", r.Name)
	if r.Val.Kind != mal.VBat {
		fmt.Fprintf(&sb, "\t%s", rowEscaper.Replace(r.Val.String()))
		fmt.Fprintln(&sb)
		return sb.String()
	}
	if b := r.Val.Bat; b != nil {
		n := min(b.Len(), maxRows)
		for i := 0; i < n; i++ {
			v := b.Tail.Get(i)
			if d, ok := v.(bat.Date); ok {
				v = jsonValue(d)
			} else if o, ok := v.(bat.Oid); ok {
				v = uint64(o)
			}
			fmt.Fprintf(&sb, "\t%s", rowEscaper.Replace(fmt.Sprintf("%v", v)))
		}
	}
	fmt.Fprintln(&sb)
	return sb.String()
}

// TestWriteRowMatchesFormatter: TCP rows are unchanged by the shared
// formatter, NaN and infinities included.
func TestWriteRowMatchesFormatter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	extra := []mal.Result{
		{Name: "f", Val: mal.BatV(bat.NewDenseHead(bat.NewFloats([]float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e21, 1e-7})))},
		{Name: "s", Val: mal.FloatV(math.NaN())},
	}
	for i := 0; i < 2000; i++ {
		r := randColumn(rng, "c")
		if i < len(extra) {
			r = extra[i]
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		writeRow(w, r, 3)
		w.Flush()
		if want := oracleRow(r, 3); buf.String() != want {
			t.Fatalf("case %d:\n got %q\nwant %q", i, buf.String(), want)
		}
	}
}

// TestQueryKernelPanicIsAnError: a panicking kernel fails its own
// /query with an error answer, leaves no query pinned, and the server
// keeps serving.
func TestQueryKernelPanicIsAnError(t *testing.T) {
	// workers=1: the query runs on its calling goroutine, the one executor.
	t.Run("workers=1", func(t *testing.T) {
		real := mal.LookupOp("aggr.count")
		mal.RegisterOp("aggr.count", func(ctx *mal.Ctx, in *mal.Instr, args []mal.Value) (mal.Value, error) {
			if args[0].IsBat() && args[0].Bat != nil && args[0].Bat.Len() == 0 {
				panic("injected kernel fault")
			}
			return real(ctx, in, args)
		})
		t.Cleanup(func() { mal.RegisterOp("aggr.count", real) })
		db := sky.Generate(2000, 17)
		eng := repro.NewEngine(db.Cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll}))
		defer eng.Recycler().Close()
		ts := httptest.NewServer(New(eng, Config{}).Handler())
		defer ts.Close()
		// No object lies beyond ra 400: the counted selection is empty.
		_, code := postQuery(t, ts.URL, "SELECT COUNT(*) FROM sky.photoobj WHERE ra > 400")
		if code != http.StatusBadRequest {
			t.Fatalf("panicking query answered %d", code)
		}
		if n := eng.Recycler().ActiveQueries(); n != 0 {
			t.Fatalf("%d queries still active", n)
		}
		res, code := postQuery(t, ts.URL, "SELECT COUNT(*) FROM sky.photoobj WHERE ra > 100")
		if code != http.StatusOK || len(res.Results) != 1 {
			t.Fatalf("next query answered %d: %+v", code, res)
		}
	})
}

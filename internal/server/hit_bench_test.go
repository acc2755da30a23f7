package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// BenchmarkServerQueryHit is one POST /query round trip through an
// httptest server for a statement whose plan is all exact pool hits:
// the wire, admission gate, the engine's statement cache, executor and
// response encoder with no kernel work.
func BenchmarkServerQueryHit(b *testing.B) {
	s, ts := newTestServer(b, Config{})
	body := []byte(`{"sql":"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 215.5 AND dec BETWEEN 2.0 AND 33.0 AND mode = 1"}`)
	post := func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post()
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if st := s.Stats(); st.Engine.Recycler.Reuses == 0 {
		b.Fatal("no pool hits")
	}
}

// BenchmarkServerExecInsert is one POST /exec round trip of a
// single-row, all-columns sky.photoobj INSERT in the benchmark's write
// spelling: the wire, the gate, the SQL front end's parse and literal
// typing, and the commit (no pooled entry depends on the table).
func BenchmarkServerExecInsert(b *testing.B) {
	_, ts := newTestServer(b, Config{})
	cols := []string{"objid", "ra", "dec", "mode", "run", "rerun", "camcol", "field", "obj",
		"psfmag_u", "psfmag_g", "psfmag_r", "psfmag_i", "psfmag_z",
		"petrorad_r", "petror50_r", "petror90_r",
		"dered_u", "dered_g", "dered_r", "dered_i", "dered_z", "status"}
	prefix := `{"sql":"INSERT INTO sky.photoobj (` + strings.Join(cols, ", ") + `) VALUES (`
	const rest = `, 195.25, -2.50, 1, 756, 301, 3, 12, 44, 19.4711, 18.0213, 17.5066, 17.2290, 17.0412, 1.8832, 1.3385, 4.1021, 19.3012, 17.9420, 17.4519, 17.1863, 17.0051, 2)"}`
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = fmt.Appendf(nil, "%s%d%s", prefix, int64(0x0600000000000000)+int64(i), rest)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/exec", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

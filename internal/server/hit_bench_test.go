package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// BenchmarkServerQueryHit is one POST /query round trip through an
// httptest server for a statement whose plan is all exact pool hits:
// the wire, admission gate, prepared-statement cache, executor and
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

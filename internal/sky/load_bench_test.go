package sky

import "testing"

// BenchmarkLoadSky builds the catalog the sky workloads serve (200 000
// objects). Its allocs/op is the load path's: a typed column costs a
// few allocations, a row map one per row.
func BenchmarkLoadSky(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		Generate(200000, 17)
	}
}

package tpch

import "testing"

// BenchmarkLoadTPCH builds the SF 0.05 catalog tpch-mix serves: eight
// tables, their key and join indexes. Its allocs/op is the load path's.
func BenchmarkLoadTPCH(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		Generate(0.05, 7)
	}
}

package bench

import (
	"runtime"
	"testing"

	"repro/internal/tpch"
)

// TestExperimentsReleaseTheirRecyclers: a recycler registers itself on
// the catalog it runs against, so an experiment that does not close
// its runners keeps every retired pool reachable for as long as the
// catalog lives. After Table II (22 recyclers) and the admission sweep
// (19) on one catalog, the live heap beyond the test's starting point
// must stay within 1.5x of what the catalog alone takes.
func TestExperimentsReleaseTheirRecyclers(t *testing.T) {
	start := liveHeap()
	db := tpch.Generate(0.005, 7)
	catalogOnly := liveHeap() - start
	Table2(db, 42)
	AdmissionSweep(db, MixedWorkload(5, 42), 10)
	after := liveHeap() - start
	runtime.KeepAlive(db)
	t.Logf("live heap: catalog %.1f MB, after the experiments %.1f MB", float64(catalogOnly)/(1<<20), float64(after)/(1<<20))
	if after > catalogOnly*3/2 {
		t.Errorf("live heap %.1f MB after the experiments, %.1f MB with the catalog alone: retired recyclers are still reachable",
			float64(after)/(1<<20), float64(catalogOnly)/(1<<20))
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

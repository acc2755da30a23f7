package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"text/tabwriter"

	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite testdata/paper/*.golden from this run")

// TestPaperGoldens rebuilds the count columns of the paper's
// evaluation tables and compares them with testdata/paper/*.golden:
// Fig. 14, Table III and Fig. 15 (B2, B4) on a 5000-object SkyServer
// catalog, the equivalent-query and mixed read/write workloads on the
// same scale, and Table II, the §6 sync ablation and the Figs. 7–9
// admission sweep on TPC-H SF 0.005. Timing columns are left out:
// `go test ./internal/bench -run TestPaperGoldens -v` logs the full
// tables, timings included, and -update rewrites the golden files.
//
// The BP/HP eviction figures have no golden: their victim ranking
// charges the wall-clock cost Cost(I), so their hit ratios move run to
// run.
func TestPaperGoldens(t *testing.T) {
	const seed = 42
	genSky := func() *sky.DB { return sky.Generate(5000, 17) }
	sdb := genSky()
	batch := sky.SampleWorkload(sdb, 60, seed)
	const sf = 0.005
	tdb := tpch.Generate(sf, 7)

	subsume := func(k, seeds int) func(t *testing.T) string {
		return func(t *testing.T) string {
			pts := SkySubsume(sdb, sky.GenMicroBench(k, seeds, 0.02, seed))
			logTable(t, func(w io.Writer) { PrintFig15(w, k, pts) })
			return counts(fmt.Sprintf("B%d query\tseed\tcombined", k), pts, func(p Fig15Point) string {
				mark := ""
				if p.Seed {
					mark = "*"
				}
				return fmt.Sprintf("%d\t%s\t%v", p.Query, mark, p.Combined)
			})
		}
	}

	for _, tc := range []struct {
		name  string
		build func(t *testing.T) string
	}{
		{"fig14", func(t *testing.T) string {
			var rows []Fig14Row
			for _, segments := range []int{4, 2, 1} {
				rows = append(rows, SkyBatch(sdb, batch, segments, seed))
			}
			logTable(t, func(w io.Writer) { PrintFig14(w, rows) })
			return counts("Split\tPeakMem(KB)\tReuse\tReuse(CRD/LRU)", rows, func(r Fig14Row) string {
				return fmt.Sprintf("%s\t%d\t%.1f%%\t%.1f%%", r.Split, r.PeakMem/1024, 100*r.Reused, 100*r.CrdLruReused)
			})
		}},
		{"table3", func(t *testing.T) string {
			rows := Table3(sdb, batch)
			logTable(t, func(w io.Writer) { PrintTable3(w, rows) })
			var lines, reuses int
			var mem int64
			for _, r := range rows {
				lines += r.Lines
				mem += r.Bytes
				reuses += r.Reuses
			}
			rows = append(rows, recycler.TypeRow{Op: "Total", Lines: lines, Bytes: mem, Reuses: reuses, ReusedLines: -1})
			return counts("Instruction\tLines\tMemory(KB)\tReusedLines\tReuses", rows, func(r recycler.TypeRow) string {
				reused := fmt.Sprint(r.ReusedLines)
				if r.ReusedLines < 0 {
					reused = "" // the paper's Total row leaves it blank
				}
				return fmt.Sprintf("%s\t%d\t%d\t%s\t%d", r.Op, r.Lines, r.Bytes/1024, reused, r.Reuses)
			})
		}},
		{"fig15_b2", subsume(2, 20)},
		{"fig15_b4", subsume(4, 12)},
		{"equiv", func(t *testing.T) string {
			queries := EquivWorkload(60, 3, seed)
			rows := []EquivResult{RunEquiv(sdb, queries, false), RunEquiv(sdb, queries, true)}
			var b strings.Builder
			PrintEquiv(&b, rows)
			return b.String() // every column is a count
		}},
		{"rw", func(t *testing.T) string {
			var b strings.Builder
			PrintRW(&b, RWPresets(genSky, 60, 0.10, seed))
			return b.String() // every column is a count
		}},
		{"table2", func(t *testing.T) string {
			rows := Table2(tdb, seed)
			logTable(t, func(w io.Writer) { PrintTable2(w, rows) })
			return counts("Query\t#\tIntra%\tInter%", rows, func(r Table2Row) string {
				return fmt.Sprintf("Q%d\t%d\t%.1f\t%.1f", r.QNum, r.Marked, r.IntraPct, r.InterPct)
			})
		}},
		{"sync", func(t *testing.T) string {
			rows := SyncAblation(sf, 7, MixedWorkload(5, seed), 20)
			logTable(t, func(w io.Writer) { PrintSyncAblation(w, rows) })
			return counts("SyncMode\tHits", rows, func(r SyncAblationRow) string {
				return fmt.Sprintf("%s\t%d", r.Mode, r.Hits)
			})
		}},
		{"admission", func(t *testing.T) string {
			pts := AdmissionSweep(tdb, MixedWorkload(5, seed), 10)
			logTable(t, func(w io.Writer) { PrintAdmission(w, pts) })
			return counts("Policy\tCredits\tHitRatio/KeepAll\tMem(KB)\tReusedMem%\tReusedEntries%", pts, func(p AdmissionPoint) string {
				return fmt.Sprintf("%s\t%d\t%.2f\t%d\t%.1f\t%.1f", p.Policy, p.Credits, p.HitRatioToKeep,
					p.TotalMem/1024, p.ReusedMemPct, p.ReusedEntriesPct)
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.build(t)
			path := filepath.Join("testdata", "paper", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s changed (run with -update if intended)\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}

// counts renders one golden table: a tab-separated header and one line
// per row, aligned like the Print functions align theirs.
func counts[T any](header string, rows []T, line func(T) string) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		fmt.Fprintln(tw, line(r))
	}
	tw.Flush()
	return b.String()
}

// logTable logs a Print function's full table, timings included, when
// the test runs with -v.
func logTable(t *testing.T, table func(io.Writer)) {
	t.Helper()
	if testing.Verbose() {
		var b strings.Builder
		table(&b)
		t.Log("\n" + b.String())
	}
}

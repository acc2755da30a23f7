// Package bench implements the paper's experiment harness: it drives
// query batches against engines with and without the recycler and
// regenerates every table and figure of the evaluation sections
// (Table II, Figs. 4–13 for TPC-H; Fig. 14, Table III and Fig. 15 for
// SkyServer). TestPaperGoldens pins the count columns of those tables
// in testdata/paper; docs/ARCHITECTURE.md indexes them by paper
// section.
package bench

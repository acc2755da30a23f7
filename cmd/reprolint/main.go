// Command reprolint runs the repo's three invariant analyzers
// (lockorder, atomicfield, singlesig) over package patterns.
//
// Standalone mode (the canonical one, used by scripts/lint.sh and
// CI):
//
//	reprolint ./...
//	reprolint internal/recycler internal/catalog
//
// Findings print as "file:line:col: analyzer: message". A finding is
// suppressed by a "//lint:allow <analyzer> <reason>" comment on the
// same line or the line above; the driver prints per-analyzer
// suppression counts (and notes unused directives) so growth of the
// allow set stays visible in CI logs. Exit status is 1 when any
// unsuppressed finding remains, 0 otherwise.
//
// The tool also answers the go vet -vettool probe flags (-V=full,
// -flags) and accepts a unitchecker-style *.cfg argument, running
// the analyzers over the single package the cfg describes. Standalone
// mode remains canonical: the cfg path exists so `go vet
// -vettool=$(pwd)/bin/reprolint ./...` works in environments whose
// vet protocol matches; CI does not depend on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/singlesig"
)

var analyzers = []*analysis.Analyzer{
	lockorder.Analyzer,
	atomicfield.Analyzer,
	singlesig.Analyzer,
}

func main() {
	versionFlag := flag.String("V", "", "print version (go vet protocol)")
	flagsFlag := flag.Bool("flags", false, "print flag definitions as JSON (go vet protocol)")
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = usage
	flag.Parse()

	switch {
	case *versionFlag != "":
		// go vet probes with -V=full and hashes the output.
		fmt.Printf("reprolint version 1 buildID=reprolint-1\n")
		return
	case *flagsFlag:
		fmt.Println("[]")
		return
	case *listFlag:
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetCfg(args[0]))
	}
	os.Exit(runStandalone(args))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: reprolint [packages]\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress a finding with //lint:allow <analyzer> <reason> (see docs/LINTING.md)\n")
}

func runStandalone(patterns []string) int {
	fset, pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	sups, malformed := analysis.CollectSuppressions(fset, pkgs)
	diags = append(diags, malformed...)
	kept, suppressed := analysis.ApplySuppressions(diags, sups)
	analysis.SortDiagnostics(kept)
	for _, d := range kept {
		fmt.Printf("%s:%d:%d: %s: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if s := analysis.SuppressionSummary(sups); s != "" {
		fmt.Print(s)
	}
	fmt.Printf("reprolint: %d finding(s), %d suppressed, %d package(s)\n",
		len(kept), len(suppressed), len(pkgs))
	if len(kept) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the subset of the go vet unitchecker config reprolint
// reads.
type vetConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// runVetCfg implements the unitchecker protocol far enough for
// `go vet -vettool=reprolint`: typecheck the unit from the cfg's file
// lists, run the analyzers, emit JSON diagnostics on stdout.
func runVetCfg(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: parsing %s: %v\n", path, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("reprolint\n"), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	exports := make(map[string]string, len(cfg.PackageFile))
	for importPath, file := range cfg.PackageFile {
		exports[importPath] = file
	}
	fset := token.NewFileSet()
	imp := analysis.ExportImporter(fset, exports)
	pkg, err := analysis.CheckFiles(fset, imp, cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	pkgs := []*analysis.PackageInfo{pkg}
	diags, err := analysis.Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 1
	}
	sups, malformed := analysis.CollectSuppressions(fset, pkgs)
	diags = append(diags, malformed...)
	kept, _ := analysis.ApplySuppressions(diags, sups)
	// go vet units include _test.go files; reprolint's scope is
	// shipped code (see Load), so test-file findings are dropped.
	filtered := kept[:0]
	for _, d := range kept {
		if !strings.HasSuffix(d.Pos.Filename, "_test.go") {
			filtered = append(filtered, d)
		}
	}
	kept = filtered
	// unitchecker JSON shape: {pkg: {analyzer: [{posn, message}]}}.
	byAnalyzer := map[string][]map[string]string{}
	for _, d := range kept {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], map[string]string{
			"posn":    fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column),
			"message": d.Message,
		})
	}
	out := map[string]any{cfg.ImportPath: byAnalyzer}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out); err != nil {
		return 2
	}
	if len(kept) > 0 {
		return 2
	}
	return 0
}

package trace

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Format renders the trace as an EXPLAIN ANALYZE table: stage summary,
// then one row per executed instruction in program order (the order
// they ran), with the data dependencies and the recycler decision for
// each.
func (qt *QueryTrace) Format(w io.Writer) {
	if qt == nil {
		return
	}
	fmt.Fprintf(w, "query %d  template=%s  elapsed=%v\n",
		qt.QueryID, qt.Template, qt.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(w, "stages: parse=%v optimize=%v execute=%v\n",
		qt.Stages.Parse.Round(time.Microsecond),
		qt.Stages.Optimize.Round(time.Microsecond),
		qt.Stages.Execute.Round(time.Microsecond))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pc\top\tdeps\tstart\tdur\trows in\trows out\tbytes\trecycle\tadmit")
	for i := range qt.Spans {
		sp := &qt.Spans[i]
		if sp.Op == "" { // a slot no EndSpan filled
			continue
		}
		deps := "-"
		if len(sp.Deps) > 0 {
			parts := make([]string, len(sp.Deps))
			for i, d := range sp.Deps {
				parts[i] = fmt.Sprintf("%d", d)
			}
			deps = strings.Join(parts, ",")
		}
		rec := sp.Recycle
		if rec == "" {
			rec = "-"
		}
		adm := sp.Admit
		if adm == "" {
			adm = "-"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%v\t%v\t%d\t%d\t%d\t%s\t%s\n",
			sp.PC, sp.Op, deps,
			sp.Start.Round(time.Microsecond), sp.Dur.Round(time.Microsecond),
			sp.RowsIn, sp.RowsOut, sp.Bytes, rec, adm)
	}
	tw.Flush()
}

package plan

import "testing"

func TestClassifyOp(t *testing.T) {
	cases := map[string]DeltaClass{
		"sql.bind":              DeltaBase,
		"algebra.select":        DeltaFilter,
		"algebra.uselect":       DeltaFilter,
		"algebra.likeselect":    DeltaFilter,
		"algebra.notlikeselect": DeltaFilter,
		"algebra.selectNotNil":  DeltaFilter,
		"algebra.semijoin":      DeltaProject,
		"aggr.count":            DeltaAgg,
		"aggr.sumInt":           DeltaAgg,
		"aggr.sumFlt":           DeltaAgg,
		"sql.bindIdxbat":        DeltaBase,
		"bat.reverse":           DeltaView,
		"bat.mirror":            DeltaView,
		"algebra.markT":         DeltaView,
		"algebra.join":          DeltaJoin,
		// Excluded shapes must stay excluded: each has a documented
		// soundness obstruction (see ClassifyOp).
		"group.new":    DeltaNone,
		"aggr.sum":     DeltaNone,
		"aggr.min":     DeltaNone,
		"aggr.max":     DeltaNone,
		"algebra.sort": DeltaNone,
		"algebra.topn": DeltaNone,
		"":             DeltaNone,
	}
	for op, want := range cases {
		if got := ClassifyOp(op); got != want {
			t.Errorf("ClassifyOp(%q) = %v, want %v", op, got, want)
		}
	}
}

func TestDeltaClassString(t *testing.T) {
	for c, want := range map[DeltaClass]string{
		DeltaNone: "none", DeltaBase: "base", DeltaFilter: "filter",
		DeltaProject: "project", DeltaAgg: "agg", DeltaView: "view",
		DeltaJoin: "join",
	} {
		if c.String() != want {
			t.Errorf("DeltaClass(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

package tpch

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/mal"
)

// Reference evaluators for additional queries, computed directly over
// the generated column data, cross-checking the MAL templates.

func colInts(db *DB, table, col string) []int64 {
	return db.Table(table).MustColumn(col).Bind().Tail.(*bat.Ints).V
}
func colFloats(db *DB, table, col string) []float64 {
	return db.Table(table).MustColumn(col).Bind().Tail.(*bat.Floats).V
}
func colStrs(db *DB, table, col string) []string {
	return db.Table(table).MustColumn(col).Bind().Tail.(*bat.Strings).Decode()
}
func colDates(db *DB, table, col string) []bat.Date {
	return db.Table(table).MustColumn(col).Bind().Tail.(*bat.Dates).V
}

// refQ3 computes Q3's revenue: lineitems of orders of customers in a
// segment, with order date < D and ship date > D.
func refQ3(db *DB, segment string, d bat.Date) float64 {
	seg := colStrs(db, "customer", "c_mktsegment")
	segCust := map[int64]bool{}
	for i, s := range seg {
		if s == segment {
			segCust[int64(i+1)] = true // custkey = oid+1
		}
	}
	oCust := colInts(db, "orders", "o_custkey")
	oDate := colDates(db, "orders", "o_orderdate")
	oKey := colInts(db, "orders", "o_orderkey")
	qualOrders := map[int64]bool{}
	for i := range oCust {
		if segCust[oCust[i]] && oDate[i] < d {
			qualOrders[oKey[i]] = true
		}
	}
	lOrd := colInts(db, "lineitem", "l_orderkey")
	lShip := colDates(db, "lineitem", "l_shipdate")
	lPrice := colFloats(db, "lineitem", "l_extendedprice")
	lDisc := colFloats(db, "lineitem", "l_discount")
	var rev float64
	for i := range lOrd {
		if qualOrders[lOrd[i]] && lShip[i] > d {
			rev += lPrice[i] * (1 - lDisc[i])
		}
	}
	return rev
}

func TestQ3AgainstReference(t *testing.T) {
	d := QueryMap()[3]
	day := algebra.MkDate(1995, 3, 15)
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.StrV("BUILDING"), mal.DateV(day)})
	got := ctx.Results[0].Val.F
	want := refQ3(testDB, "BUILDING", day)
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("Q3 = %f, want %f", got, want)
	}
}

// refQ12 counts qualifying lineitems per priority for Q12's core.
func refQ12(db *DB, m1, m2 string, lo bat.Date) int64 {
	sm := colStrs(db, "lineitem", "l_shipmode")
	commit := colDates(db, "lineitem", "l_commitdate")
	receipt := colDates(db, "lineitem", "l_receiptdate")
	ship := colDates(db, "lineitem", "l_shipdate")
	hi := algebra.AddMonths(lo, 12)
	var n int64
	for i := range sm {
		if (sm[i] == m1 || sm[i] == m2) &&
			commit[i] < receipt[i] && ship[i] < commit[i] &&
			receipt[i] >= lo && receipt[i] < hi {
			n++
		}
	}
	return n
}

func TestQ12AgainstReference(t *testing.T) {
	d := QueryMap()[12]
	lo := algebra.MkDate(1994, 1, 1)
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.StrV("MAIL"), mal.StrV("SHIP"), mal.DateV(lo)})
	var got int64
	for _, r := range ctx.Results {
		if r.Name == "line_count" {
			for _, c := range r.Val.Bat.Tail.(*bat.Ints).V {
				got += c
			}
		}
	}
	want := refQ12(testDB, "MAIL", "SHIP", lo)
	if got != want {
		t.Fatalf("Q12 = %d, want %d", got, want)
	}
}

// refQ22 counts rich customers with a country code and no orders.
func refQ22(db *DB, c1, c2 string) (int64, float64) {
	phone := colStrs(db, "customer", "c_phone")
	acct := colFloats(db, "customer", "c_acctbal")
	// Average of positive balances over all customers.
	var sum float64
	var n int64
	for _, b := range acct {
		if b > 0 {
			sum += b
			n++
		}
	}
	avg := sum / float64(n)
	// Customers with orders.
	hasOrder := map[int64]bool{}
	for _, ck := range colInts(db, "orders", "o_custkey") {
		hasOrder[ck] = true
	}
	var cnt int64
	var tot float64
	for i := range phone {
		code := phone[i][:2]
		if code != c1 && code != c2 {
			continue
		}
		if acct[i] <= avg {
			continue
		}
		if hasOrder[int64(i+1)] {
			continue
		}
		cnt++
		tot += acct[i]
	}
	return cnt, tot
}

func TestQ22AgainstReference(t *testing.T) {
	d := QueryMap()[22]
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.StrV("13-%"), mal.StrV("17-%")})
	wantCnt, wantTot := refQ22(testDB, "13", "17")
	if got := ctx.Results[0].Val.I; got != wantCnt {
		t.Fatalf("Q22 count = %d, want %d", got, wantCnt)
	}
	if got := ctx.Results[1].Val.F; got-wantTot > 1e-4 || wantTot-got > 1e-4 {
		t.Fatalf("Q22 total = %f, want %f", got, wantTot)
	}
}

// refQ10 computes revenue of returned items per customer and sums it.
func refQ10(db *DB, lo bat.Date) float64 {
	rf := colStrs(db, "lineitem", "l_returnflag")
	lOrd := colInts(db, "lineitem", "l_orderkey")
	lPrice := colFloats(db, "lineitem", "l_extendedprice")
	lDisc := colFloats(db, "lineitem", "l_discount")
	oKey := colInts(db, "orders", "o_orderkey")
	oDate := colDates(db, "orders", "o_orderdate")
	hi := algebra.AddMonths(lo, 3)
	qual := map[int64]bool{}
	for i := range oKey {
		if oDate[i] >= lo && oDate[i] < hi {
			qual[oKey[i]] = true
		}
	}
	var rev float64
	for i := range rf {
		if rf[i] == "R" && qual[lOrd[i]] {
			rev += lPrice[i] * (1 - lDisc[i])
		}
	}
	return rev
}

func TestQ10AgainstReference(t *testing.T) {
	d := QueryMap()[10]
	lo := algebra.MkDate(1993, 10, 1)
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.DateV(lo)})
	var got float64
	for _, r := range ctx.Results {
		if r.Name == "revenue_by_cust" {
			got = algebra.SumFloat(r.Val.Bat)
		}
	}
	want := refQ10(testDB, lo)
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("Q10 = %f, want %f", got, want)
	}
}

// refQ15 finds the max supplier revenue in a quarter.
func refQ15(db *DB, lo bat.Date) float64 {
	ship := colDates(db, "lineitem", "l_shipdate")
	sk := colInts(db, "lineitem", "l_suppkey")
	price := colFloats(db, "lineitem", "l_extendedprice")
	disc := colFloats(db, "lineitem", "l_discount")
	hi := algebra.AddMonths(lo, 3)
	sums := map[int64]float64{}
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi {
			sums[sk[i]] += price[i] * (1 - disc[i])
		}
	}
	var max float64
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

func TestQ15AgainstReference(t *testing.T) {
	d := QueryMap()[15]
	lo := algebra.MkDate(1996, 1, 1)
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.DateV(lo)})
	top := ctx.Results[0].Val.Bat
	if top.Len() != 1 {
		t.Fatalf("top rows = %d", top.Len())
	}
	got := top.Tail.Get(0).(float64)
	want := refQ15(testDB, lo)
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("Q15 = %f, want %f", got, want)
	}
}

// refQ17 sums extended prices of small-quantity lineitems for a
// brand/container pair.
func refQ17(db *DB, brand, container string) float64 {
	pBrand := colStrs(db, "part", "p_brand")
	pCont := colStrs(db, "part", "p_container")
	qualPart := map[int64]bool{}
	for i := range pBrand {
		if pBrand[i] == brand && pCont[i] == container {
			qualPart[int64(i+1)] = true
		}
	}
	lPart := colInts(db, "lineitem", "l_partkey")
	lQty := colInts(db, "lineitem", "l_quantity")
	lPrice := colFloats(db, "lineitem", "l_extendedprice")
	// Average quantity over the qualifying lineitems.
	var qsum float64
	var qn int64
	for i := range lPart {
		if qualPart[lPart[i]] {
			qsum += float64(lQty[i])
			qn++
		}
	}
	if qn == 0 {
		return 0
	}
	thr := 0.2 * qsum / float64(qn)
	var rev float64
	for i := range lPart {
		if qualPart[lPart[i]] && float64(lQty[i]) < thr {
			rev += lPrice[i]
		}
	}
	return rev
}

func TestQ17AgainstReference(t *testing.T) {
	d := QueryMap()[17]
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.StrV("Brand#11"), mal.StrV("SM BOX")})
	got := ctx.Results[0].Val.F
	want := refQ17(testDB, "Brand#11", "SM BOX")
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("Q17 = %f, want %f", got, want)
	}
}

package algebra

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bat"
)

// MulFloat multiplies two positionally aligned float BATs, producing a
// float BAT with a's head. Nil in either operand yields nil.
func MulFloat(a, b *bat.BAT) *bat.BAT {
	return zipFloat(a, b, func(x, y float64) float64 { return x * y })
}

// AddFloat adds two positionally aligned float BATs.
func AddFloat(a, b *bat.BAT) *bat.BAT {
	return zipFloat(a, b, func(x, y float64) float64 { return x + y })
}

func zipFloat(a, b *bat.BAT, f func(x, y float64) float64) *bat.BAT {
	at := a.Tail.(*bat.Floats)
	bt := b.Tail.(*bat.Floats)
	if len(at.V) != len(bt.V) {
		panic("algebra: arithmetic alignment mismatch")
	}
	out := make([]float64, len(at.V))
	for i := range out {
		if bat.IsNilFloat(at.V[i]) || bat.IsNilFloat(bt.V[i]) {
			out[i] = bat.NilFloat()
			continue
		}
		out[i] = f(at.V[i], bt.V[i])
	}
	res := bat.New(a.Head, bat.NewFloats(out))
	res.HeadSorted = a.HeadSorted
	return res
}

// AddConstFloat adds the constant c to every non-nil float tail value.
func AddConstFloat(a *bat.BAT, c float64) *bat.BAT {
	return mapConstFloat(a, func(x float64) float64 { return x + c })
}

// MulConstFloat multiplies every non-nil float tail value by c.
func MulConstFloat(a *bat.BAT, c float64) *bat.BAT {
	return mapConstFloat(a, func(x float64) float64 { return x * c })
}

// SubFromConstFloat computes c - x for every non-nil float tail value
// (e.g. 1 - l_discount).
func SubFromConstFloat(a *bat.BAT, c float64) *bat.BAT {
	return mapConstFloat(a, func(x float64) float64 { return c - x })
}

func mapConstFloat(a *bat.BAT, f func(float64) float64) *bat.BAT {
	at := a.Tail.(*bat.Floats)
	out := make([]float64, len(at.V))
	for i, x := range at.V {
		if bat.IsNilFloat(x) {
			out[i] = bat.NilFloat()
			continue
		}
		out[i] = f(x)
	}
	res := bat.New(a.Head, bat.NewFloats(out))
	res.HeadSorted = a.HeadSorted
	return res
}

// LessThan compares two positionally aligned BATs, producing a bool
// BAT that is true where a.tail < b.tail. Nil operands compare false.
// Supported tails: int, float, date.
func LessThan(a, b *bat.BAT) *bat.BAT {
	n := a.Len()
	if b.Len() != n {
		panic("algebra: lt alignment mismatch")
	}
	out := make([]bool, n)
	switch at := a.Tail.(type) {
	case *bat.Ints:
		bt := b.Tail.(*bat.Ints)
		for i := range out {
			out[i] = at.V[i] != bat.NilInt && bt.V[i] != bat.NilInt && at.V[i] < bt.V[i]
		}
	case *bat.Floats:
		bt := b.Tail.(*bat.Floats)
		for i := range out {
			out[i] = !bat.IsNilFloat(at.V[i]) && !bat.IsNilFloat(bt.V[i]) && at.V[i] < bt.V[i]
		}
	case *bat.Dates:
		bt := b.Tail.(*bat.Dates)
		for i := range out {
			out[i] = at.V[i] != bat.NilDate && bt.V[i] != bat.NilDate && at.V[i] < bt.V[i]
		}
	default:
		panic(fmt.Sprintf("algebra: lt over unsupported tail %T", a.Tail))
	}
	res := bat.New(a.Head, bat.NewBools(out))
	res.HeadSorted = a.HeadSorted
	return res
}

// AvgFloat computes the scalar average of the non-nil tail values of a
// float or int BAT; it returns the nil float when no values qualify.
func AvgFloat(b *bat.BAT) float64 {
	var sum float64
	var n int64
	switch t := b.Tail.(type) {
	case *bat.Floats:
		for _, x := range t.V {
			if !bat.IsNilFloat(x) {
				sum += x
				n++
			}
		}
	case *bat.Ints:
		for _, x := range t.V {
			if x != bat.NilInt {
				sum += float64(x)
				n++
			}
		}
	default:
		panic(fmt.Sprintf("algebra: avg over unsupported tail %T", b.Tail))
	}
	if n == 0 {
		return bat.NilFloat()
	}
	return sum / float64(n)
}

// IntToFloat converts an int tail to a float tail.
func IntToFloat(a *bat.BAT) *bat.BAT {
	at := a.Tail.(*bat.Ints)
	out := make([]float64, len(at.V))
	for i, x := range at.V {
		if x == bat.NilInt {
			out[i] = bat.NilFloat()
			continue
		}
		out[i] = float64(x)
	}
	res := bat.New(a.Head, bat.NewFloats(out))
	res.HeadSorted = a.HeadSorted
	return res
}

// AddMonths implements mtime.addmonths over a scalar date: it advances
// d by n months using a proleptic Gregorian calendar.
func AddMonths(d bat.Date, n int) bat.Date {
	y, m, day := CivilFromDays(int32(d))
	m += n
	y += (m - 1) / 12
	m = (m-1)%12 + 1
	if m <= 0 {
		m += 12
		y--
	}
	if dm := DaysInMonth(y, m); day > dm {
		day = dm
	}
	return bat.Date(DaysFromCivil(y, m, day))
}

// AddYears advances d by n years.
func AddYears(d bat.Date, n int) bat.Date { return AddMonths(d, n*12) }

// MkDate builds a Date from a civil year, month, day.
func MkDate(y, m, d int) bat.Date { return bat.Date(DaysFromCivil(y, m, d)) }

// DaysFromCivil converts a civil date to days since 1970-01-01
// (Howard Hinnant's algorithm).
func DaysFromCivil(y, m, d int) int32 {
	if m <= 2 {
		y--
	}
	var era int
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400
	var mp int
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int32(era*146097 + doe - 719468)
}

// CivilFromDays converts days since 1970-01-01 back to a civil date.
func CivilFromDays(z int32) (y, m, d int) {
	zz := int(z) + 719468
	var era int
	if zz >= 0 {
		era = zz / 146097
	} else {
		era = (zz - 146096) / 146097
	}
	doe := zz - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = doy - (153*mp+2)/5 + 1
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		yy++
	}
	return yy, m, d
}

// DaysInMonth returns the number of days in the given month.
func DaysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	case 2:
		if (y%4 == 0 && y%100 != 0) || y%400 == 0 {
			return 29
		}
		return 28
	}
	panic(fmt.Sprintf("algebra: bad month %d", m))
}

// Year extracts the civil year of a date tail into an int BAT
// (EXTRACT(YEAR FROM ...)).
func Year(a *bat.BAT) *bat.BAT {
	at := a.Tail.(*bat.Dates)
	out := make([]int64, len(at.V))
	for i, x := range at.V {
		if x == bat.NilDate {
			out[i] = bat.NilInt
			continue
		}
		y, _, _ := CivilFromDays(int32(x))
		out[i] = int64(y)
	}
	res := bat.New(a.Head, bat.NewInts(out))
	res.HeadSorted = a.HeadSorted
	return res
}

// SortByTail returns a BAT reordered by ascending (or descending) tail
// value. Used for ORDER BY in result construction.
func SortByTail(b *bat.BAT, asc bool) *bat.BAT {
	idx := make([]int, b.Len())
	for i := range idx {
		idx[i] = i
	}
	less := tailLess(b.Tail)
	sort.SliceStable(idx, func(i, j int) bool {
		if asc {
			return less(idx[i], idx[j])
		}
		return less(idx[j], idx[i])
	})
	out := bat.Gather(b, idx)
	if asc {
		out.TailSorted = true
	}
	return out
}

func tailLess(t bat.Vector) func(i, j int) bool {
	switch v := t.(type) {
	case *bat.Ints:
		return func(i, j int) bool { return v.V[i] < v.V[j] }
	case *bat.Floats:
		return func(i, j int) bool { return v.V[i] < v.V[j] }
	case *bat.Strings:
		vals := v.D.Values()
		if !dictPays(len(v.C), len(vals)) {
			return func(i, j int) bool { return vals[v.C[i]] < vals[v.C[j]] }
		}
		rank := dictRanks(vals)
		return func(i, j int) bool { return rank[v.C[i]] < rank[v.C[j]] }
	case *bat.Dates:
		return func(i, j int) bool { return v.V[i] < v.V[j] }
	case *bat.Oids:
		return func(i, j int) bool { return v.V[i] < v.V[j] }
	case *bat.DenseOids:
		return func(i, j int) bool { return i < j }
	}
	panic(fmt.Sprintf("algebra: sort over unsupported tail %T", t))
}

// dictRanks ranks a dictionary's values once: rank[c] orders code c's
// value among them, so codes compare as their values do.
func dictRanks(vals []string) []int32 {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(vals[a], vals[b]) })
	rank := make([]int32, len(vals))
	for r, c := range order {
		rank[c] = int32(r)
	}
	return rank
}

// TopN returns the first n rows of b (LIMIT n).
func TopN(b *bat.BAT, n int) *bat.BAT {
	if b.Len() <= n {
		return b
	}
	return b.Slice(0, n)
}

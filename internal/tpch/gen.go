package tpch

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
)

// Schema name used for all TPC-H tables.
const Schema = "sys"

// Regions and nations follow the benchmark's fixed tables.
var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationDefs = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "WRAP PACK", "JUMBO PKG"}
	typeSyl1   = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2   = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3   = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	brandNums  = 5
	nameParts  = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow"}
)

// Dates span 1992-01-01 .. 1998-12-31 as in the benchmark.
var (
	startDate = algebra.MkDate(1992, 1, 1)
	endDate   = algebra.MkDate(1998, 12, 31)
)

// DB is a generated TPC-H database plus the bookkeeping the refresh
// functions need.
type DB struct {
	Cat *catalog.Catalog
	SF  float64

	Customers int
	Orders    int
	Parts     int
	Suppliers int
	Lineitems int

	rng          *rand.Rand
	nextOrderKey int64
	// liveOrderKeys tracks insertable/deletable keys for RF1/RF2.
	liveOrderKeys []int64
}

// Generate builds a database at the given scale factor with a fixed
// seed, loading all eight tables and defining the key and join
// indices the query plans use.
func Generate(sf float64, seed int64) *DB {
	if sf <= 0 {
		sf = 0.01
	}
	db := &DB{Cat: catalog.New(), SF: sf, rng: rand.New(rand.NewSource(seed))}
	db.Customers = scaled(sf, 150000)
	db.Suppliers = scaled(sf, 10000)
	db.Parts = scaled(sf, 200000)
	db.Orders = db.Customers * 10

	db.genRegionNation()
	db.genSupplier()
	db.genCustomer()
	db.genPart()
	db.genPartsupp()
	db.genOrdersLineitem()
	db.defineIndices()
	return db
}

func scaled(sf float64, base int) int {
	n := int(sf * float64(base))
	if n < 10 {
		n = 10
	}
	return n
}

func (db *DB) pick(ss []string) string { return ss[db.rng.Intn(len(ss))] }

func (db *DB) date() bat.Date {
	span := int(endDate - startDate)
	return startDate + bat.Date(db.rng.Intn(span))
}

func (db *DB) genRegionNation() {
	region := db.Cat.CreateTable(Schema, "region", []catalog.ColDef{
		{Name: "r_regionkey", Kind: bat.KInt, Sorted: true},
		{Name: "r_name", Kind: bat.KStr},
	})
	load(region, bat.NewInts(seq(len(regionNames), 0)), bat.NewStrings(regionNames))

	nation := db.Cat.CreateTable(Schema, "nation", []catalog.ColDef{
		{Name: "n_nationkey", Kind: bat.KInt, Sorted: true},
		{Name: "n_name", Kind: bat.KStr},
		{Name: "n_regionkey", Kind: bat.KInt},
	})
	name, reg := make([]string, len(nationDefs)), make([]int64, len(nationDefs))
	for i, n := range nationDefs {
		name[i], reg[i] = n.name, int64(n.region)
	}
	load(nation, bat.NewInts(seq(len(nationDefs), 0)), bat.NewStrings(name), bat.NewInts(reg))
}

func (db *DB) genSupplier() {
	t := db.Cat.CreateTable(Schema, "supplier", []catalog.ColDef{
		{Name: "s_suppkey", Kind: bat.KInt, Sorted: true},
		{Name: "s_name", Kind: bat.KStr},
		{Name: "s_nationkey", Kind: bat.KInt},
		{Name: "s_acctbal", Kind: bat.KFloat},
		{Name: "s_comment", Kind: bat.KStr},
	})
	n := db.Suppliers
	name, nation, bal, comment := make([]string, n), make([]int64, n), make([]float64, n), make([]string, n)
	for i := range n {
		comment[i] = "supplier " + db.pick(nameParts)
		if db.rng.Intn(200) < 1 {
			comment[i] = "Customer Complaints " + comment[i]
		}
		name[i] = fmt.Sprintf("Supplier#%09d", i+1)
		nation[i] = int64(db.rng.Intn(len(nationDefs)))
		bal[i] = float64(db.rng.Intn(110000))/10 - 1000
	}
	load(t, bat.NewInts(seq(n, 1)), bat.NewStrings(name), bat.NewInts(nation), bat.NewFloats(bal), bat.NewStrings(comment))
}

func (db *DB) genCustomer() {
	t := db.Cat.CreateTable(Schema, "customer", []catalog.ColDef{
		{Name: "c_custkey", Kind: bat.KInt, Sorted: true},
		{Name: "c_name", Kind: bat.KStr},
		{Name: "c_nationkey", Kind: bat.KInt},
		{Name: "c_mktsegment", Kind: bat.KStr},
		{Name: "c_acctbal", Kind: bat.KFloat},
		{Name: "c_phone", Kind: bat.KStr},
	})
	n := db.Customers
	name, nation, seg, bal, phone := make([]string, n), make([]int64, n), make([]string, n), make([]float64, n), make([]string, n)
	for i := range n {
		nk := db.rng.Intn(len(nationDefs))
		name[i] = fmt.Sprintf("Customer#%09d", i+1)
		nation[i] = int64(nk)
		seg[i] = db.pick(segments)
		bal[i] = float64(db.rng.Intn(110000))/10 - 1000
		phone[i] = fmt.Sprintf("%02d-%03d-%03d-%04d", nk+10, db.rng.Intn(1000), db.rng.Intn(1000), db.rng.Intn(10000))
	}
	load(t, bat.NewInts(seq(n, 1)), bat.NewStrings(name), bat.NewInts(nation), bat.NewStrings(seg), bat.NewFloats(bal), bat.NewStrings(phone))
}

func (db *DB) genPart() {
	t := db.Cat.CreateTable(Schema, "part", []catalog.ColDef{
		{Name: "p_partkey", Kind: bat.KInt, Sorted: true},
		{Name: "p_name", Kind: bat.KStr},
		{Name: "p_brand", Kind: bat.KStr},
		{Name: "p_type", Kind: bat.KStr},
		{Name: "p_size", Kind: bat.KInt},
		{Name: "p_container", Kind: bat.KStr},
		{Name: "p_retailprice", Kind: bat.KFloat},
	})
	n := db.Parts
	name, brand, typ, size, container, price := make([]string, n), make([]string, n), make([]string, n), make([]int64, n), make([]string, n), make([]float64, n)
	for i := range n {
		name[i] = db.pick(nameParts) + " " + db.pick(nameParts) + " " + db.pick(nameParts)
		brand[i] = fmt.Sprintf("Brand#%d%d", db.rng.Intn(brandNums)+1, db.rng.Intn(brandNums)+1)
		typ[i] = db.pick(typeSyl1) + " " + db.pick(typeSyl2) + " " + db.pick(typeSyl3)
		size[i] = int64(db.rng.Intn(50) + 1)
		container[i] = db.pick(containers)
		price[i] = 900 + float64(i%1000) + float64(db.rng.Intn(100))/100
	}
	load(t, bat.NewInts(seq(n, 1)), bat.NewStrings(name), bat.NewStrings(brand), bat.NewStrings(typ), bat.NewInts(size), bat.NewStrings(container), bat.NewFloats(price))
}

func (db *DB) genPartsupp() {
	t := db.Cat.CreateTable(Schema, "partsupp", []catalog.ColDef{
		{Name: "ps_partkey", Kind: bat.KInt, Sorted: true},
		{Name: "ps_suppkey", Kind: bat.KInt},
		{Name: "ps_availqty", Kind: bat.KInt},
		{Name: "ps_supplycost", Kind: bat.KFloat},
	})
	n := db.Parts * 4
	part, supp, qty, cost := make([]int64, n), make([]int64, n), make([]int64, n), make([]float64, n)
	for i := range n {
		p, s := i/4+1, i%4
		part[i] = int64(p)
		supp[i] = int64((p+s*(db.Suppliers/4+1))%db.Suppliers + 1)
		qty[i] = int64(db.rng.Intn(9999) + 1)
		cost[i] = 1 + float64(db.rng.Intn(99900))/100
	}
	load(t, bat.NewInts(part), bat.NewInts(supp), bat.NewInts(qty), bat.NewFloats(cost))
}

func (db *DB) genOrdersLineitem() {
	orders := db.Cat.CreateTable(Schema, "orders", []catalog.ColDef{
		{Name: "o_orderkey", Kind: bat.KInt, Sorted: true},
		{Name: "o_custkey", Kind: bat.KInt},
		{Name: "o_orderstatus", Kind: bat.KStr},
		{Name: "o_totalprice", Kind: bat.KFloat},
		{Name: "o_orderdate", Kind: bat.KDate},
		{Name: "o_orderpriority", Kind: bat.KStr},
		{Name: "o_comment", Kind: bat.KStr},
	})
	li := db.Cat.CreateTable(Schema, "lineitem", []catalog.ColDef{
		{Name: "l_orderkey", Kind: bat.KInt, Sorted: true},
		{Name: "l_partkey", Kind: bat.KInt},
		{Name: "l_suppkey", Kind: bat.KInt},
		{Name: "l_quantity", Kind: bat.KInt},
		{Name: "l_extendedprice", Kind: bat.KFloat},
		{Name: "l_discount", Kind: bat.KFloat},
		{Name: "l_tax", Kind: bat.KFloat},
		{Name: "l_returnflag", Kind: bat.KStr},
		{Name: "l_linestatus", Kind: bat.KStr},
		{Name: "l_shipdate", Kind: bat.KDate},
		{Name: "l_commitdate", Kind: bat.KDate},
		{Name: "l_receiptdate", Kind: bat.KDate},
		{Name: "l_shipinstruct", Kind: bat.KStr},
		{Name: "l_shipmode", Kind: bat.KStr},
	})

	o, l := newOrderCols(db.Orders), newLineitemCols(db.Orders*4)
	for i := 0; i < db.Orders; i++ {
		key := int64(i + 1)
		date := db.addOrder(o, key)
		db.liveOrderKeys = append(db.liveOrderKeys, key)
		nl := db.rng.Intn(7) + 1
		for line := 0; line < nl; line++ {
			db.addLineitem(l, key, line, date)
		}
	}
	db.nextOrderKey = int64(db.Orders + 1)
	db.Lineitems = len(l.order)
	load(orders, o.vectors()...)
	load(li, l.vectors()...)
}

// orderCols holds orders rows column by column, in the table's column
// order.
type orderCols struct {
	key, cust     []int64
	status        []string
	total         []float64
	date          []bat.Date
	prio, comment []string
}

func newOrderCols(n int) *orderCols {
	return &orderCols{
		key: make([]int64, 0, n), cust: make([]int64, 0, n), status: make([]string, 0, n),
		total: make([]float64, 0, n), date: make([]bat.Date, 0, n),
		prio: make([]string, 0, n), comment: make([]string, 0, n),
	}
}

// vectors returns the columns, each sized to its rows.
func (o *orderCols) vectors() []bat.Vector {
	return []bat.Vector{
		bat.NewInts(exact(o.key)), bat.NewInts(exact(o.cust)), bat.NewStrings(o.status),
		bat.NewFloats(exact(o.total)), bat.NewDates(exact(o.date)),
		bat.NewStrings(o.prio), bat.NewStrings(o.comment),
	}
}

// addOrder draws the order with the given key into o and returns its
// date.
func (db *DB) addOrder(o *orderCols, key int64) bat.Date {
	d := db.date()
	status := "O"
	if db.rng.Intn(2) == 0 {
		status = "F"
	}
	o.key = append(o.key, key)
	o.cust = append(o.cust, int64(db.rng.Intn(db.Customers)+1))
	o.status = append(o.status, status)
	o.total = append(o.total, 1000+float64(db.rng.Intn(400000))/100)
	o.date = append(o.date, d)
	o.prio = append(o.prio, db.pick(priorities))
	o.comment = append(o.comment, db.pick(nameParts)+" requests "+db.pick(nameParts))
	return d
}

// lineitemCols holds lineitem rows column by column, in the table's
// column order.
type lineitemCols struct {
	order, part, supp, qty []int64
	price, discount, tax   []float64
	returnflag, linestatus []string
	ship, commit, receipt  []bat.Date
	instruct, mode         []string
}

func newLineitemCols(n int) *lineitemCols {
	return &lineitemCols{
		order: make([]int64, 0, n), part: make([]int64, 0, n), supp: make([]int64, 0, n), qty: make([]int64, 0, n),
		price: make([]float64, 0, n), discount: make([]float64, 0, n), tax: make([]float64, 0, n),
		returnflag: make([]string, 0, n), linestatus: make([]string, 0, n),
		ship: make([]bat.Date, 0, n), commit: make([]bat.Date, 0, n), receipt: make([]bat.Date, 0, n),
		instruct: make([]string, 0, n), mode: make([]string, 0, n),
	}
}

// vectors returns the columns, each sized to its rows.
func (l *lineitemCols) vectors() []bat.Vector {
	return []bat.Vector{
		bat.NewInts(exact(l.order)), bat.NewInts(exact(l.part)), bat.NewInts(exact(l.supp)), bat.NewInts(exact(l.qty)),
		bat.NewFloats(exact(l.price)), bat.NewFloats(exact(l.discount)), bat.NewFloats(exact(l.tax)),
		bat.NewStrings(l.returnflag), bat.NewStrings(l.linestatus),
		bat.NewDates(exact(l.ship)), bat.NewDates(exact(l.commit)), bat.NewDates(exact(l.receipt)),
		bat.NewStrings(l.instruct), bat.NewStrings(l.mode),
	}
}

// addLineitem draws line number line of the order with the given key
// and date into l.
func (db *DB) addLineitem(l *lineitemCols, orderKey int64, line int, orderDate bat.Date) {
	ship := orderDate + bat.Date(db.rng.Intn(121)+1)
	commit := orderDate + bat.Date(db.rng.Intn(91)+30)
	receipt := ship + bat.Date(db.rng.Intn(30)+1)
	rf := "N"
	if receipt <= algebra.MkDate(1995, 6, 17) {
		if db.rng.Intn(2) == 0 {
			rf = "R"
		} else {
			rf = "A"
		}
	}
	ls := "O"
	if ship <= algebra.MkDate(1995, 6, 17) {
		ls = "F"
	}
	qty := int64(db.rng.Intn(50) + 1)
	price := float64(qty) * (900 + float64(db.rng.Intn(10000))/10)
	l.order = append(l.order, orderKey)
	l.part = append(l.part, int64(db.rng.Intn(db.Parts)+1))
	l.supp = append(l.supp, int64(db.rng.Intn(db.Suppliers)+1))
	l.qty = append(l.qty, qty)
	l.price = append(l.price, price)
	l.discount = append(l.discount, float64(db.rng.Intn(11))/100)
	l.tax = append(l.tax, float64(db.rng.Intn(9))/100)
	l.returnflag = append(l.returnflag, rf)
	l.linestatus = append(l.linestatus, ls)
	l.ship = append(l.ship, ship)
	l.commit = append(l.commit, commit)
	l.receipt = append(l.receipt, receipt)
	l.instruct = append(l.instruct, db.pick(instructs))
	l.mode = append(l.mode, db.pick(shipmodes))
}

// seq returns n consecutive keys from first.
func seq(n int, first int64) []int64 {
	k := make([]int64, n)
	for i := range k {
		k[i] = first + int64(i)
	}
	return k
}

// exact returns s in an array of its own length, so a column adopting
// it carries no slack.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// load appends the generated columns to t; a generator that builds
// columns t does not take is a bug.
func load(t *catalog.Table, cols ...bat.Vector) {
	if _, err := t.AppendColumns(cols); err != nil {
		panic(err)
	}
}

func (db *DB) defineIndices() {
	c := db.Cat
	orders := c.MustTable(Schema, "orders")
	li := c.MustTable(Schema, "lineitem")
	cust := c.MustTable(Schema, "customer")
	supp := c.MustTable(Schema, "supplier")
	nation := c.MustTable(Schema, "nation")
	region := c.MustTable(Schema, "region")
	part := c.MustTable(Schema, "part")
	ps := c.MustTable(Schema, "partsupp")

	orders.DefineKeyIndex("o_orderkey")
	li.DefineJoinIndex("li_fk_orders", "l_orderkey", orders, "o_orderkey")
	li.DefineJoinIndex("li_fk_part", "l_partkey", part, "p_partkey")
	li.DefineJoinIndex("li_fk_supp", "l_suppkey", supp, "s_suppkey")
	orders.DefineJoinIndex("o_fk_cust", "o_custkey", cust, "c_custkey")
	cust.DefineJoinIndex("c_fk_nation", "c_nationkey", nation, "n_nationkey")
	supp.DefineJoinIndex("s_fk_nation", "s_nationkey", nation, "n_nationkey")
	nation.DefineJoinIndex("n_fk_region", "n_regionkey", region, "r_regionkey")
	ps.DefineJoinIndex("ps_fk_part", "ps_partkey", part, "p_partkey")
	ps.DefineJoinIndex("ps_fk_supp", "ps_suppkey", supp, "s_suppkey")
}

// Table is a convenience accessor.
func (db *DB) Table(name string) *catalog.Table { return db.Cat.MustTable(Schema, name) }

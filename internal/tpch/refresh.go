package tpch

import "repro/internal/bat"

// Refresh functions following the TPC-H specification's RF1/RF2 shape
// at the scale the paper uses for its update experiments (§7.4): each
// update block inserts a handful of new customer orders (7-8 rows into
// orders, 25-56 rows into lineitem) and deletes a set of old orders
// from both tables.

// RF1 inserts n new orders with their lineitems and returns the new
// order keys.
func (db *DB) RF1(n int) []int64 {
	o, l := newOrderCols(n), newLineitemCols(n*4)
	keys := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		key := db.nextOrderKey
		db.nextOrderKey++
		keys = append(keys, key)
		date := db.addOrder(o, key)
		nl := db.rng.Intn(7) + 1
		for line := 0; line < nl; line++ {
			db.addLineitem(l, key, line, date)
		}
	}
	load(db.Table("orders"), o.vectors()...)
	load(db.Table("lineitem"), l.vectors()...)
	db.liveOrderKeys = append(db.liveOrderKeys, keys...)
	db.Lineitems += len(l.order)
	return keys
}

// RF2 deletes n of the oldest live orders (and their lineitems) and
// returns the deleted keys.
func (db *DB) RF2(n int) []int64 {
	if n > len(db.liveOrderKeys) {
		n = len(db.liveOrderKeys)
	}
	if n == 0 {
		return nil
	}
	keys := db.liveOrderKeys[:n]
	db.liveOrderKeys = db.liveOrderKeys[n:]

	orders := db.Table("orders")
	li := db.Table("lineitem")

	var oOids []bat.Oid
	for _, k := range keys {
		if o, ok := orders.LookupKey("o_orderkey", k); ok {
			oOids = append(oOids, o)
		}
	}
	// Lineitems of the deleted orders: scan the FK column (tables at
	// this scale make a scan acceptable; a real system would use the
	// join index).
	keySet := make(map[int64]struct{}, len(keys))
	for _, k := range keys {
		keySet[k] = struct{}{}
	}
	lok := li.MustColumn("l_orderkey").Bind()
	var lOids []bat.Oid
	n2 := lok.Len()
	vals := lok.Tail.(*bat.Ints)
	for i := 0; i < n2; i++ {
		if _, hit := keySet[vals.V[i]]; hit {
			lOids = append(lOids, bat.OidAt(lok.Head, i))
		}
	}
	li.Delete(lOids)
	orders.Delete(oOids)
	db.Lineitems -= len(lOids)
	return keys
}

// UpdateBlock runs one paper-style update block: RF1 with 7-8 new
// orders followed by RF2 deleting the same number of old ones.
func (db *DB) UpdateBlock() {
	n := 7 + db.rng.Intn(2)
	db.RF1(n)
	db.RF2(n)
}

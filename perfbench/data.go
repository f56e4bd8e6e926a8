package main

import (
	"fmt"
	"math"
	"math/rand"

	"tierdb"
	"tierdb/internal/server"
	"tierdb/internal/server/client"
	"tierdb/internal/tpcc"
)

const tableName = "ORDERLINE"

// Q6 date windows fall in the generator's delivery year.
const (
	firstDay    = 20170000
	daysPerYear = 365
	q6Days      = 30
	q6Qty       = 5
)

// opKind is one operation type of the benchmark.
type opKind int

const (
	opScan   opKind = iota // CH-Q6-shaped scan on SSCG-resident columns
	opRange                // ol_o_id window plus ol_w_id, MRC-only
	opPoint                // three-key MRC point query, no index used
	opLookup               // order lookup projecting all attributes
	opInsert               // single-row autocommit insert
	numOps
)

var opNames = [numOps]string{"scan", "range", "point", "lookup", "insert"}

func (k opKind) String() string { return opNames[k] }

var allColumns = func() []string {
	var names []string
	for _, f := range tpcc.OrderLineSchema().Fields() {
		names = append(names, f.Name)
	}
	return names
}()

// agg is an oracle answer: how many rows qualify and the sum of the
// checked column, in integer units (cents for ol_amount) so any
// summation order gives the same total.
type agg struct {
	rows int64
	sum  int64
}

func (a *agg) add(b agg) { a.rows += b.rows; a.sum += b.sum }

type orderKey struct{ o, d, w int64 }

// dataset is the generated ORDERLINE base table plus the aggregates the
// oracle answers every query from.
type dataset struct {
	rows       [][]tierdb.Value
	warehouses int64
	orders     int64 // orders per district
	// byOrder aggregates each order's lines: rows, sum(ol_number) and
	// sum of amount cents.
	byOrder map[orderKey]orderAgg
	// cube aggregates the base table's delivered lines for Q6.
	cube cube
}

type orderAgg struct {
	lines, numbers, cents int64
}

// cube aggregates delivered lines (rows, amount cents) by delivery day
// of the year and quantity.
type cube [daysPerYear][11]agg

// window sums the cells a Q6 query starting at day and quantity covers.
func (c *cube) window(day, qty int) agg {
	var a agg
	for d := day; d < day+q6Days; d++ {
		for q := qty; q < qty+q6Qty; q++ {
			a.add(c[d][q])
		}
	}
	return a
}

func cents(v tierdb.Value) int64 { return int64(math.Round(v.Float() * 100)) }

func generate(seed int64, warehouses, orders int) *dataset {
	cfg := tpcc.Config{Warehouses: warehouses, OrdersPerDistrict: orders, Seed: seed}
	ds := &dataset{
		rows:       tpcc.GenerateOrderLines(cfg),
		warehouses: int64(warehouses),
		orders:     int64(orders),
		byOrder:    make(map[orderKey]orderAgg),
	}
	for _, r := range ds.rows {
		k := orderKey{r[tpcc.OLOrderID].Int(), r[tpcc.OLDistrictID].Int(), r[tpcc.OLWarehouseID].Int()}
		a := ds.byOrder[k]
		a.lines++
		a.numbers += r[tpcc.OLNumber].Int()
		a.cents += cents(r[tpcc.OLAmount])
		ds.byOrder[k] = a
		if date := r[tpcc.OLDeliveryDate].Int(); date != 0 {
			ds.cube[date-firstDay][r[tpcc.OLQuantity].Int()].add(agg{1, cents(r[tpcc.OLAmount])})
		}
	}
	return ds
}

// query is one select with its expected answer.
type query struct {
	kind    opKind
	preds   []server.Predicate
	project []string
	check   int // position in project of the summed column
	money   bool
	// want is the answer over the base table. Only scans match
	// inserted rows; their part of the answer is checked separately.
	want agg
	key  orderKey // lookups and points: every row must carry it
	// day and qty are a scan's first delivery day and quantity.
	day, qty int
}

// q6 draws a CH-Q6-shaped scan. It projects the line's key with
// ol_amount so that each inserted line it returns can be identified.
func (ds *dataset) q6(rng *rand.Rand) query {
	day := rng.Intn(daysPerYear - q6Days + 1)
	qty := 1 + rng.Intn(10-q6Qty+1)
	return query{
		kind: opScan,
		preds: []server.Predicate{
			client.Between("ol_delivery_d", tierdb.Int(int64(firstDay+day)), tierdb.Int(int64(firstDay+day+q6Days-1))),
			client.Between("ol_quantity", tierdb.Int(int64(qty)), tierdb.Int(int64(qty+q6Qty-1))),
		},
		project: []string{"ol_o_id", "ol_d_id", "ol_w_id", "ol_number", "ol_amount"},
		check:   4,
		money:   true,
		want:    ds.cube.window(day, qty),
		day:     day,
		qty:     qty,
	}
}

// matches reports whether a line with these attributes qualifies for
// scan q.
func (q query) matches(a lineAttrs) bool {
	return a.day >= q.day && a.day < q.day+q6Days && int(a.qty) >= q.qty && int(a.qty) < q.qty+q6Qty
}

// rangeWidth is the ol_o_id window of a range query, in orders.
const rangeWidth = 10

func (ds *dataset) rangeQuery(rng *rand.Rand) query {
	lo := 1 + rng.Int63n(ds.orders-rangeWidth+1)
	w := 1 + rng.Int63n(ds.warehouses)
	var want agg
	for o := lo; o < lo+rangeWidth; o++ {
		for d := int64(1); d <= 10; d++ {
			a := ds.byOrder[orderKey{o, d, w}]
			want.add(agg{a.lines, a.numbers})
		}
	}
	return query{
		kind: opRange,
		preds: []server.Predicate{
			client.Between("ol_o_id", tierdb.Int(lo), tierdb.Int(lo+rangeWidth-1)),
			client.Eq("ol_w_id", tierdb.Int(w)),
		},
		project: []string{"ol_number"},
		want:    want,
	}
}

func (ds *dataset) orderQuery(kind opKind, k orderKey) query {
	a := ds.byOrder[k]
	q := query{
		kind: kind,
		preds: []server.Predicate{
			client.Eq("ol_o_id", tierdb.Int(k.o)),
			client.Eq("ol_d_id", tierdb.Int(k.d)),
			client.Eq("ol_w_id", tierdb.Int(k.w)),
		},
		key: k,
	}
	if kind == opLookup {
		q.project, q.check, q.money = allColumns, tpcc.OLAmount, true
		q.want = agg{a.lines, a.cents}
	} else {
		q.project = []string{"ol_o_id", "ol_d_id", "ol_w_id", "ol_number"}
		q.check = 3
		q.want = agg{a.lines, a.numbers}
	}
	return q
}

// pointQuery picks an order uniformly.
func (ds *dataset) pointQuery(rng *rand.Rand) query {
	return ds.orderQuery(opPoint, orderKey{1 + rng.Int63n(ds.orders), 1 + rng.Int63n(10), 1 + rng.Int63n(ds.warehouses)})
}

// lookupGen draws order lookups skewed toward recent orders (Zipf over
// the distance from the newest order), as a customer checking order
// status would.
type lookupGen struct {
	ds   *dataset
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newLookupGen(ds *dataset, rng *rand.Rand) *lookupGen {
	return &lookupGen{ds: ds, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(ds.orders-1))}
}

func (g *lookupGen) next() query {
	o := g.ds.orders - int64(g.zipf.Uint64())
	return g.ds.orderQuery(opLookup, orderKey{o, 1 + g.rng.Int63n(10), 1 + g.rng.Int63n(g.ds.warehouses)})
}

// verify checks a select result against the query's oracle answer over
// the base table and returns the rows of inserted lines, which only
// scans match, for the caller to check against what was inserted.
func (q query) verify(ds *dataset, rows [][]tierdb.Value) ([][]tierdb.Value, error) {
	var got agg
	var inserted [][]tierdb.Value
	for _, r := range rows {
		if len(r) != len(q.project) {
			return nil, fmt.Errorf("%s: row has %d columns, want %d", q.kind, len(r), len(q.project))
		}
		if q.kind == opScan && r[0].Int() > ds.orders {
			inserted = append(inserted, r)
			continue
		}
		if q.key != (orderKey{}) {
			if k := (orderKey{r[0].Int(), r[1].Int(), r[2].Int()}); k != q.key {
				return nil, fmt.Errorf("%s: row of order %v returned for order %v", q.kind, k, q.key)
			}
		}
		got.rows++
		if q.money {
			got.sum += cents(r[q.check])
		} else {
			got.sum += r[q.check].Int()
		}
	}
	if got != q.want {
		return nil, fmt.Errorf("%s: got %d base rows summing to %d, want %d rows summing to %d",
			q.kind, got.rows, got.sum, q.want.rows, q.want.sum)
	}
	return inserted, nil
}

// linesPerInsertOrder is how many lines each inserted order has.
const linesPerInsertOrder = 10

// insertKey returns the key of the g-th inserted order line. Inserted
// lines belong to new orders (ol_o_id beyond the base table), ten
// lines per order, spread over every district, so keys never collide
// with base rows or with each other.
func (ds *dataset) insertKey(g int64) (k orderKey, line int64) {
	line = g%linesPerInsertOrder + 1
	dw := (g / linesPerInsertOrder) % (ds.warehouses * 10)
	return orderKey{ds.orders + 1 + g/(linesPerInsertOrder*ds.warehouses*10), dw%10 + 1, dw/10 + 1}, line
}

// insertIndex inverts insertKey; ok is false for a key no insert has.
func (ds *dataset) insertIndex(k orderKey, line int64) (g int64, ok bool) {
	if k.o <= ds.orders || k.d < 1 || k.d > 10 || k.w < 1 || k.w > ds.warehouses || line < 1 || line > linesPerInsertOrder {
		return 0, false
	}
	dw := (k.w-1)*10 + k.d - 1
	return ((k.o-ds.orders-1)*ds.warehouses*10+dw)*linesPerInsertOrder + line - 1, true
}

// lineAttrs are an inserted line's attributes that scans filter and
// sum on.
type lineAttrs struct {
	day   int // of the delivery year
	qty   int64
	cents int64
	hash  uint64
}

// insertAttrs hashes the g-th inserted line's attributes from (seed,
// g), so any goroutine can build or check any line.
func insertAttrs(seed, g int64) lineAttrs {
	h := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(g))
	return lineAttrs{day: int(h % daysPerYear), qty: 1 + int64(h>>9%10), cents: int64(h >> 20 % 999999), hash: h}
}

// insertRow builds the g-th inserted order line. Its delivery date
// falls in the generator's year, so Q6 scans match inserted lines and
// read them from the delta.
func (ds *dataset) insertRow(seed, g int64) []tierdb.Value {
	k, line := ds.insertKey(g)
	a := insertAttrs(seed, g)
	return []tierdb.Value{
		tierdb.Int(k.o), tierdb.Int(k.d), tierdb.Int(k.w), tierdb.Int(line),
		tierdb.Int(1 + int64(a.hash>>40%1000)), tierdb.Int(k.w),
		tierdb.Int(int64(firstDay + a.day)),
		tierdb.Int(a.qty),
		tierdb.Float(float64(a.cents) / 100),
		tierdb.String(fmt.Sprintf("dist-%02d-%08d", k.d, a.hash>>24%1e8)),
	}
}

// mix64 is the splitmix64 finalizer: a cheap, well-mixed hash.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

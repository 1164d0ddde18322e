// Package gen makes the benchmark's job documents from a seed and computes
// the rows each job must return with plain Go maps. It imports only the
// standard library: the oracle shares no code with the engine, scheduler,
// optimizer or interpreter whose output it checks.
package gen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// Job is one generated job document and its expected result.
type Job struct {
	// Doc is the JSON job document posted to POST /jobs.
	Doc []byte
	// Expected holds the result rows in canonical form (compact JSON),
	// sorted, so an answer compares as a multiset (see Expect).
	Expected []string
}

// Workload describes one of the benchmark's traffic mixes.
type Workload struct {
	Name string
	// Clients is the number of closed-loop clients that submit its jobs.
	Clients int
	// Params are the generator parameters, for the benchmark's report.
	Params map[string]int
	make   func(rng *rand.Rand, nonce int) Job
}

// Workloads returns the benchmark's workloads in report order.
func Workloads() []Workload {
	return []Workload{
		{Name: "bulk-join", Clients: 1, Params: map[string]int{
			"orders": bulkOrders, "customers": bulkCustomers, "min_amount": bulkMinAmount,
		}, make: bulkJoin},
		{Name: "plan-storm", Clients: 2, Params: map[string]int{
			"lineitems": stormLineitems, "orders": stormOrders, "customers": stormCustomers,
			"suppliers": stormSuppliers, "nations": stormNations,
		}, make: planStorm},
		{Name: "spill-agg", Clients: 1, Params: map[string]int{
			"rows": spillRows, "keys": spillKeys, "memory_budget_bytes": spillBudget,
		}, make: spillAgg},
	}
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("gen: unknown workload %q", name)
}

// Job returns the index-th job of the workload for a seed. The same seed
// and index always give the same document; distinct indices give distinct
// documents.
func (w Workload) Job(seed int64, index int) Job {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)))
	return w.make(rng, index)
}

// ---------------------------------------------------------------- bulk-join

const (
	bulkOrders    = 100_000
	bulkCustomers = 10_000
	bulkMinAmount = 1000
	bulkMaxAmount = 10_000
)

// Attributes: o_cust=0, o_tag=1, o_amount=2, c_key=3, c_seg=4, total=5.
const bulkScript = `
map bigOrders(ir) {
	if ir[2] >= 1000 {
		emit ir
	}
}
binary joinCustomer(l, r) {
	out := concat(l, r)
	emit out
}
reduce perCustomer(g) {
	first := g.at(0)
	out := new()
	out[3] = first[3]
	out[4] = first[4]
	out[5] = sum(g, 2)
	emit out
}
`

var bulkFlow = flowDef{
	Attrs: []string{"total"},
	Sources: []sourceDef{
		{Name: "orders", Attrs: []string{"o_cust", "o_tag", "o_amount"}},
		{Name: "customers", Attrs: []string{"c_key", "c_seg"}},
	},
	Ops: []opDef{
		{Kind: "map", UDF: "bigOrders", Inputs: []string{"orders"}, Selectivity: 0.9},
		{Kind: "match", UDF: "joinCustomer", Inputs: []string{"bigOrders", "customers"},
			Keys: [][]string{{"o_cust"}, {"c_key"}}, KeyCardinality: bulkCustomers},
		{Kind: "reduce", UDF: "perCustomer", Inputs: []string{"joinCustomer"},
			Keys: [][]string{{"c_key"}}, KeyCardinality: bulkCustomers},
	},
	Sink: "perCustomer",
}

// bulkJoin: 100k orders (customer key, tag of 5 to 9 letters, amount) and
// 10k customers (key, 7-letter segment); orders of at least bulkMinAmount
// are joined to their customer and summed per customer. The source hints
// are left to the server, which measures them from the data; with tags of
// varying length the measured width, and so the plan-cache digest, differs
// from document to document.
func bulkJoin(rng *rand.Rand, nonce int) Job {
	segs := make([]string, bulkCustomers)
	var d data
	d.source("customers")
	for k := range segs {
		segs[k] = word(rng, 7)
		d.row().int(int64(k)).str(segs[k])
	}
	d.source("orders")
	totals := map[int64]int64{}
	for i := 0; i < bulkOrders; i++ {
		cust := int64(rng.Intn(bulkCustomers))
		amount := int64(rng.Intn(bulkMaxAmount))
		d.row().int(cust).str(word(rng, 5+rng.Intn(5))).int(amount)
		if amount >= bulkMinAmount {
			totals[cust] += amount
		}
	}
	want := make([]string, 0, len(totals))
	for cust, total := range totals {
		want = append(want, fmt.Sprintf(`[null,null,null,%d,%q,%d]`, cust, segs[cust], total))
	}
	return Job{Doc: document("bulk-join", bulkScript, bulkFlow, 0, &d), Expected: sorted(want)}
}

// --------------------------------------------------------------- plan-storm

const (
	stormLineitems = 500
	stormOrders    = 150
	stormCustomers = 60
	stormSuppliers = 40
	stormNations   = 25
	stormDateLo    = 8766
	stormDateHi    = 9131
	nationX        = "FRANCE"
	nationY        = "GERMANY"
)

// Attributes follow TPC-H Q7: lineitem 0-3 (l_orderkey, l_suppkey,
// l_shipdate, l_revenue), supplier 4-5, orders 6-8 (o_key, o_custkey,
// o_year), customer 9-10, nation1 11-12, nation2 13-14, volume 15. The
// shipdate filter carries a per-document constant (%d) on l_revenue that no
// row reaches, so every script differs while the result does not depend on
// it.
const stormScript = `
map filterShipdate(ir) {
	d := ir[2]
	if d >= %d && d <= %d && ir[3] > -%d {
		emit ir
	}
}
binary concatJoin(l, r) {
	out := concat(l, r)
	emit out
}
map filterNationPair(ir) {
	a := ir[12]
	b := ir[14]
	if a == %q && b == %q || a == %q && b == %q {
		emit ir
	}
}
reduce sumVolume(g) {
	first := g.at(0)
	out := new()
	out[8] = first[8]
	out[12] = first[12]
	out[14] = first[14]
	out[15] = sum(g, 3)
	emit out
}
`

var stormFlow = flowDef{
	Attrs: []string{"volume"},
	Sources: []sourceDef{
		{Name: "lineitem", Attrs: []string{"l_orderkey", "l_suppkey", "l_shipdate", "l_revenue"}},
		{Name: "supplier", Attrs: []string{"s_key", "s_nationkey"}},
		{Name: "orders", Attrs: []string{"o_key", "o_custkey", "o_year"}},
		{Name: "customer", Attrs: []string{"c_key", "c_nationkey"}},
		{Name: "nation1", Attrs: []string{"n1_key", "n1_name"}},
		{Name: "nation2", Attrs: []string{"n2_key", "n2_name"}},
	},
	Ops: []opDef{
		{Kind: "map", Name: "filter_shipdate", UDF: "filterShipdate", Inputs: []string{"lineitem"}, Selectivity: 0.33},
		{Kind: "match", Name: "join_l_s", UDF: "concatJoin", Inputs: []string{"filter_shipdate", "supplier"},
			Keys: [][]string{{"l_suppkey"}, {"s_key"}}, KeyCardinality: stormSuppliers},
		{Kind: "match", Name: "join_l_o", UDF: "concatJoin", Inputs: []string{"join_l_s", "orders"},
			Keys: [][]string{{"l_orderkey"}, {"o_key"}}, KeyCardinality: stormOrders},
		{Kind: "match", Name: "join_o_c", UDF: "concatJoin", Inputs: []string{"join_l_o", "customer"},
			Keys: [][]string{{"o_custkey"}, {"c_key"}}, KeyCardinality: stormCustomers},
		{Kind: "match", Name: "join_c_n1", UDF: "concatJoin", Inputs: []string{"join_o_c", "nation1"},
			Keys: [][]string{{"c_nationkey"}, {"n1_key"}}, KeyCardinality: stormNations},
		{Kind: "match", Name: "join_s_n2", UDF: "concatJoin", Inputs: []string{"join_c_n1", "nation2"},
			Keys: [][]string{{"s_nationkey"}, {"n2_key"}}, KeyCardinality: stormNations},
		{Kind: "map", Name: "filter_nation_pair", UDF: "filterNationPair", Inputs: []string{"join_s_n2"}, Selectivity: 0.08},
		{Kind: "reduce", Name: "agg_volume", UDF: "sumVolume", Inputs: []string{"filter_nation_pair"},
			Keys: [][]string{{"n1_name", "n2_name", "o_year"}}, KeyCardinality: 4},
	},
	Sink: "agg_volume",
}

// planStorm: a TPC-H Q7-shaped document over ~800 rows. Customer and
// supplier nations favour the two filtered nations so the nation-pair
// filter keeps some rows.
func planStorm(rng *rand.Rand, nonce int) Job {
	nationName := func(k int) string {
		switch k {
		case 6:
			return nationX
		case 7:
			return nationY
		}
		return fmt.Sprintf("NATION%02d", k)
	}
	nation := func() int {
		if rng.Intn(10) < 4 {
			return 6 + rng.Intn(2)
		}
		return rng.Intn(stormNations)
	}
	var d data
	d.source("nation1")
	for k := 0; k < stormNations; k++ {
		d.row().int(int64(k)).str(nationName(k))
	}
	d.source("nation2")
	for k := 0; k < stormNations; k++ {
		d.row().int(int64(k)).str(nationName(k))
	}
	suppNation := make([]int, stormSuppliers)
	d.source("supplier")
	for k := range suppNation {
		suppNation[k] = nation()
		d.row().int(int64(k)).int(int64(suppNation[k]))
	}
	custNation := make([]int, stormCustomers)
	d.source("customer")
	for k := range custNation {
		custNation[k] = nation()
		d.row().int(int64(k)).int(int64(custNation[k]))
	}
	orderCust := make([]int, stormOrders)
	orderYear := make([]int, stormOrders)
	d.source("orders")
	for k := range orderCust {
		orderCust[k] = rng.Intn(stormCustomers)
		orderYear[k] = 1995 + rng.Intn(2)
		d.row().int(int64(k)).int(int64(orderCust[k])).int(int64(orderYear[k]))
	}
	type group struct {
		n1, n2 string
		year   int
	}
	volume := map[group]int64{}
	d.source("lineitem")
	for i := 0; i < stormLineitems; i++ {
		ok, sk := rng.Intn(stormOrders), rng.Intn(stormSuppliers)
		date := stormDateLo - 400 + rng.Intn(stormDateHi-stormDateLo+800)
		revenue := int64(1 + rng.Intn(100_000))
		d.row().int(int64(ok)).int(int64(sk)).int(int64(date)).int(revenue)
		if date < stormDateLo || date > stormDateHi {
			continue
		}
		n1, n2 := nationName(custNation[orderCust[ok]]), nationName(suppNation[sk])
		if (n1 == nationX && n2 == nationY) || (n1 == nationY && n2 == nationX) {
			volume[group{n1, n2, orderYear[ok]}] += revenue
		}
	}
	want := make([]string, 0, len(volume))
	for g, v := range volume {
		want = append(want, fmt.Sprintf(`[null,null,null,null,null,null,null,null,%d,null,null,null,%q,null,%q,%d]`,
			g.year, g.n1, g.n2, v))
	}
	script := fmt.Sprintf(stormScript, stormDateLo, stormDateHi, nonce+1, nationX, nationY, nationY, nationX)
	return Job{Doc: document("plan-storm", script, stormFlow, 0, &d), Expected: sorted(want)}
}

// ---------------------------------------------------------------- spill-agg

const (
	spillRows   = 200_000
	spillKeys   = 40_000
	spillBudget = 256 << 10
	// spillWidth is the declared average record width. Declaring the
	// hints keeps the plan-cache digest the same for every document.
	spillWidth = 24
)

// Attributes: word=0, n=1.
const spillScript = `
reduce count(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
`

var spillFlow = flowDef{
	Sources: []sourceDef{{Name: "words", Attrs: []string{"word", "n"}, Records: spillRows, AvgWidthBytes: spillWidth}},
	Ops: []opDef{{Kind: "reduce", UDF: "count", Inputs: []string{"words"},
		Keys: [][]string{{"word"}}, KeyCardinality: spillKeys}},
	Sink: "count",
}

// spillAgg: a word count over 200k rows and 40k keys with no combiner,
// under a 256 KiB memory budget, so every partition spills sorted runs.
func spillAgg(rng *rand.Rand, nonce int) Job {
	words := make([]string, spillKeys)
	for k := range words {
		words[k] = fmt.Sprintf("word-%07d", k)
	}
	var d data
	d.source("words")
	counts := make([]int64, spillKeys)
	for i := 0; i < spillRows; i++ {
		k, n := rng.Intn(spillKeys), int64(1+rng.Intn(9))
		d.row().str(words[k]).int(n)
		counts[k] += n
	}
	want := make([]string, 0, spillKeys)
	for k, n := range counts {
		if n > 0 {
			want = append(want, fmt.Sprintf(`[%q,%d]`, words[k], n))
		}
	}
	return Job{Doc: document("spill-agg", spillScript, spillFlow, spillBudget, &d), Expected: sorted(want)}
}

// ----------------------------------------------------------------- document

// flowDef, sourceDef and opDef mirror the job document's flow section.
type flowDef struct {
	Attrs   []string    `json:"attrs,omitempty"`
	Sources []sourceDef `json:"sources"`
	Ops     []opDef     `json:"ops"`
	Sink    string      `json:"sink"`
}

type sourceDef struct {
	Name          string   `json:"name"`
	Attrs         []string `json:"attrs"`
	Records       int      `json:"records,omitempty"`
	AvgWidthBytes int      `json:"avg_width_bytes,omitempty"`
}

type opDef struct {
	Kind           string     `json:"kind"`
	Name           string     `json:"name,omitempty"`
	UDF            string     `json:"udf"`
	Inputs         []string   `json:"inputs"`
	Keys           [][]string `json:"keys,omitempty"`
	Selectivity    float64    `json:"selectivity,omitempty"`
	KeyCardinality float64    `json:"key_cardinality,omitempty"`
}

// data writes the document's inline rows directly as JSON text: the
// documents are megabytes, and the benchmark generates them all before it
// starts timing.
type data struct {
	b      []byte
	inRow  bool
	sawRow bool
}

func (d *data) source(name string) {
	d.endRow()
	if len(d.b) > 0 {
		d.b = append(d.b, "],"...)
	}
	d.b = strconv.AppendQuote(d.b, name)
	d.b = append(d.b, ":["...)
	d.sawRow = false
}

func (d *data) row() *data {
	d.endRow()
	if d.sawRow {
		d.b = append(d.b, ',')
	}
	d.b = append(d.b, '[')
	d.inRow, d.sawRow = true, true
	return d
}

func (d *data) endRow() {
	if d.inRow {
		d.b = append(d.b, ']')
		d.inRow = false
	}
}

func (d *data) sep() {
	if c := d.b[len(d.b)-1]; c != '[' {
		d.b = append(d.b, ',')
	}
}

func (d *data) int(v int64) *data {
	d.sep()
	d.b = strconv.AppendInt(d.b, v, 10)
	return d
}

func (d *data) str(s string) *data {
	d.sep()
	d.b = strconv.AppendQuote(d.b, s)
	return d
}

// document assembles a job document from its parts.
func document(name, script string, flow flowDef, budget int, d *data) []byte {
	d.endRow()
	head := struct {
		Name   string  `json:"name"`
		Script string  `json:"script"`
		Flow   flowDef `json:"flow"`
		Budget int     `json:"memory_budget_bytes,omitempty"`
	}{name, script, flow, budget}
	b, err := json.Marshal(head)
	if err != nil {
		panic(err) // static types; cannot fail
	}
	b = append(b[:len(b)-1], `,"data":{`...)
	b = append(b, d.b...)
	return append(b, "]}}"...)
}

func word(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func sorted(rows []string) []string {
	sort.Strings(rows)
	return rows
}

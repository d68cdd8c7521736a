package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/exec"
	"prestocs/internal/plan"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// joinConnector serves two fixed tables so engine join tests run
// without storage servers: l(orderkey, qty) and o(orderkey, prio),
// where o holds the even orderkeys only.
type joinConnector struct {
	name   string
	tables map[string]*joinTestTable
	failOn string // "table/objN" whose page source errors
}

type joinTestTable struct {
	schema *types.Schema
	splits [][]*column.Page
}

type joinTestHandle struct {
	conn       *joinConnector
	table      string
	projection []int
}

func (h *joinTestHandle) ConnectorName() string { return h.conn.name }
func (h *joinTestHandle) String() string        { return "join:" + h.table }
func (h *joinTestHandle) ScanSchema() *types.Schema {
	s := h.conn.tables[h.table].schema
	if h.projection == nil {
		return s
	}
	return s.Project(h.projection)
}
func (h *joinTestHandle) WithProjection(cols []int) plan.TableHandle {
	return &joinTestHandle{conn: h.conn, table: h.table, projection: cols}
}

func (c *joinConnector) Name() string { return c.name }
func (c *joinConnector) TableHandle(schema, table string) (plan.TableHandle, error) {
	if _, ok := c.tables[table]; !ok {
		return nil, fmt.Errorf("join: no table %q", table)
	}
	return &joinTestHandle{conn: c, table: table}, nil
}
func (c *joinConnector) Splits(handle plan.TableHandle) ([]Split, error) {
	h := handle.(*joinTestHandle)
	t := c.tables[h.table]
	out := make([]Split, len(t.splits))
	for i := range t.splits {
		out[i] = Split{Object: fmt.Sprintf("%s/obj%d", h.table, i), Index: i}
	}
	return out, nil
}
func (c *joinConnector) PlanOptimizer() ConnectorPlanOptimizer { return nil }
func (c *joinConnector) CreatePageSource(_ context.Context, handle plan.TableHandle, split Split, stats *ScanStats) (exec.Operator, error) {
	h := handle.(*joinTestHandle)
	if split.Object == c.failOn {
		return nil, errors.New("join: injected connection kill")
	}
	pages := c.tables[h.table].splits[split.Index]
	out := make([]*column.Page, len(pages))
	for i, p := range pages {
		if h.projection != nil {
			out[i] = p.Project(h.projection)
		} else {
			out[i] = p
		}
		stats.AddBytesMoved(out[i].ByteSize())
	}
	return exec.NewPageSource(h.ScanSchema(), out), nil
}

// newJoinEngine builds l with orderkeys 0..3*rows-1 over three splits
// (qty = orderkey as a double) and o with the even orderkeys in one
// split (prio cycles hi/lo).
func newJoinEngine(rows int) (*Engine, *joinConnector) {
	lSchema := types.NewSchema(
		types.Column{Name: "orderkey", Type: types.Int64},
		types.Column{Name: "qty", Type: types.Float64},
	)
	oSchema := types.NewSchema(
		types.Column{Name: "orderkey", Type: types.Int64},
		types.Column{Name: "prio", Type: types.String},
	)
	l := &joinTestTable{schema: lSchema}
	n := 0
	for s := 0; s < 3; s++ {
		p := column.NewPage(lSchema)
		for r := 0; r < rows; r++ {
			p.AppendRow(types.IntValue(int64(n)), types.FloatValue(float64(n)))
			n++
		}
		l.splits = append(l.splits, []*column.Page{p})
	}
	o := &joinTestTable{schema: oSchema}
	op := column.NewPage(oSchema)
	for k := 0; k < n; k += 2 {
		prio := "hi"
		if k%4 == 0 {
			prio = "lo"
		}
		op.AppendRow(types.IntValue(int64(k)), types.StringValue(prio))
	}
	o.splits = [][]*column.Page{{op}}

	conn := &joinConnector{name: "mem", tables: map[string]*joinTestTable{"l": l, "o": o}}
	e := New()
	e.DefaultCatalog = "mem"
	e.Workers = 4
	e.AddConnector(conn)
	return e, conn
}

// joinRows collects (orderkey, prio) pairs sorted by key so assertions
// are independent of worker scheduling order.
func joinRows(page *column.Page) []string {
	var out []string
	for i := 0; i < page.NumRows(); i++ {
		row := page.Row(i)
		out = append(out, fmt.Sprintf("%d/%s", row[0].I, row[1].S))
	}
	sort.Strings(out)
	return out
}

func expectedJoinRows(total, min int) []string {
	var out []string
	for k := min + 1; k < total; k++ {
		if k%2 != 0 {
			continue
		}
		prio := "hi"
		if k%4 == 0 {
			prio = "lo"
		}
		out = append(out, fmt.Sprintf("%d/%s", k, prio))
	}
	sort.Strings(out)
	return out
}

func TestJoinBroadcastEndToEnd(t *testing.T) {
	e, _ := newJoinEngine(20) // 60 probe rows, 30 build rows
	e.Metrics = telemetry.NewRegistry()
	res, err := e.Execute(context.Background(),
		"SELECT l.orderkey, o.prio FROM l JOIN o ON l.orderkey = o.orderkey WHERE l.orderkey > 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Metrics.CounterValue(telemetry.MetricQueryJoins); n != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricQueryJoins, n)
	}
	if res.Stats.JoinBuildRows != 30 {
		t.Errorf("build rows = %d, want 30", res.Stats.JoinBuildRows)
	}
	if res.Stats.Splits != 4 { // 3 probe + 1 build
		t.Errorf("splits = %d, want 4", res.Stats.Splits)
	}
	got := joinRows(res.Page)
	want := expectedJoinRows(60, 10)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestJoinWithAggregationAbove(t *testing.T) {
	e, _ := newJoinEngine(20)
	res, err := e.Execute(context.Background(),
		"SELECT o.prio AS p, count(*) AS c, sum(l.qty) AS s FROM l JOIN o ON l.orderkey = o.orderkey GROUP BY o.prio ORDER BY p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", res.Page.NumRows())
	}
	// Even keys 0..58: multiples of 4 are "lo" (15 keys), the rest "hi".
	var wantHiSum, wantLoSum float64
	var wantHi, wantLo int64
	for k := 0; k < 60; k += 2 {
		if k%4 == 0 {
			wantLo++
			wantLoSum += float64(k)
		} else {
			wantHi++
			wantHiSum += float64(k)
		}
	}
	hi, lo := res.Page.Row(0), res.Page.Row(1)
	if hi[0].S != "hi" || lo[0].S != "lo" {
		t.Fatalf("group order = %v, %v", hi[0], lo[0])
	}
	if hi[1].I != wantHi || lo[1].I != wantLo {
		t.Errorf("counts = %d/%d, want %d/%d", hi[1].I, lo[1].I, wantHi, wantLo)
	}
	if hi[2].F != wantHiSum || lo[2].F != wantLoSum {
		t.Errorf("sums = %v/%v, want %v/%v", hi[2].F, lo[2].F, wantHiSum, wantLoSum)
	}
}

func TestJoinCrossTableResidualFilter(t *testing.T) {
	e, _ := newJoinEngine(10) // 30 probe rows, build 0..28 even
	// qty > orderkey is false on every matched row (qty == orderkey), so
	// the mixed conjunct must filter above the join and yield nothing.
	res, err := e.Execute(context.Background(),
		"SELECT l.orderkey, o.prio FROM l JOIN o ON l.orderkey = o.orderkey WHERE l.qty > o.orderkey", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", res.Page.NumRows())
	}
}

// TestJoinBuildSideKillFailsQuery injects a dead connection under the
// build-side scan: the query must fail with the injected error rather
// than silently joining against a truncated build table.
func TestJoinBuildSideKillFailsQuery(t *testing.T) {
	e, conn := newJoinEngine(10)
	conn.failOn = "o/obj0"
	_, err := e.Execute(context.Background(),
		"SELECT l.orderkey, o.prio FROM l JOIN o ON l.orderkey = o.orderkey", nil)
	if err == nil || !strings.Contains(err.Error(), "injected connection kill") {
		t.Fatalf("err = %v, want injected build-side failure", err)
	}
}

// TestJoinProbeSideKillFailsQuery kills a probe split instead; the
// already-built hash table must not mask the scan failure.
func TestJoinProbeSideKillFailsQuery(t *testing.T) {
	e, conn := newJoinEngine(10)
	conn.failOn = "l/obj1"
	_, err := e.Execute(context.Background(),
		"SELECT l.orderkey, o.prio FROM l JOIN o ON l.orderkey = o.orderkey", nil)
	if err == nil || !strings.Contains(err.Error(), "injected connection kill") {
		t.Fatalf("err = %v, want injected probe-side failure", err)
	}
}

func TestJoinSessionBloomOffStillCorrect(t *testing.T) {
	e, _ := newJoinEngine(10)
	session := NewSession().Set(SessionJoinBloom, "off")
	res, err := e.Execute(context.Background(),
		"SELECT l.orderkey, o.prio FROM l JOIN o ON l.orderkey = o.orderkey WHERE l.orderkey > 4", session)
	if err != nil {
		t.Fatal(err)
	}
	got := joinRows(res.Page)
	want := expectedJoinRows(30, 4)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
}

package main

import (
	"math"
	"testing"
	"time"

	"prestocs/internal/column"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

func TestTailRuleLeavesTenSamplesBeyondP95(t *testing.T) {
	n := samplesFor(tailPercentile, minBeyond)
	if n != 200 {
		t.Fatalf("samplesFor(0.95, 10) = %d, want 200", n)
	}
	if beyond(n, tailPercentile) < minBeyond || beyond(n-1, tailPercentile) >= minBeyond {
		t.Fatalf("beyond(%d)=%d, beyond(%d)=%d", n, beyond(n, tailPercentile), n-1, beyond(n-1, tailPercentile))
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // 1..200, reversed
	}
	if p := percentile(xs, tailPercentile); p != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190 (nearest rank)", p)
	}
	over := 0
	for _, x := range xs {
		if x > percentile(xs, tailPercentile) {
			over++
		}
	}
	if over != minBeyond {
		t.Fatalf("%d samples beyond p95, want %d", over, minBeyond)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "query", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a.x", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b.y", Start: at(30), End: at(50)},  // overlaps a.x
		{ID: 4, Parent: 1, Name: "c.z", Start: at(90), End: at(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d.w", Start: at(15), End: at(20)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * time.Millisecond, 2: 25 * time.Millisecond, 3: 20 * time.Millisecond, 4: 30 * time.Millisecond, 5: 5 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	m := ledger(spans, &replayAcc{queries: 1})
	if got := m["ledger.unattributed_pct"].Value; got != 50 {
		t.Errorf("unattributed = %v%%, want 50%%", got)
	}
}

func TestFloatMatch(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name      string
		got, want float64
		ok, exact bool
	}{
		{"identical", 1.5, 1.5, true, true},
		{"NaN vs NaN", math.NaN(), math.NaN(), true, true},
		{"NaN payloads differ", math.Float64frombits(0x7ff8000000000002), math.NaN(), true, false},
		{"NaN vs number", math.NaN(), 1, false, false},
		{"-0 vs +0", negZero, 0, true, false},
		{"inf vs inf", math.Inf(1), math.Inf(1), true, true},
		{"inf vs -inf", math.Inf(1), math.Inf(-1), false, false},
		{"last digit", 56.65081967213114, 56.650819672131150, true, false},
		{"just inside tolerance", 1e6 * (1 + 0.999e-9), 1e6, true, false},
		{"just outside tolerance", 1e6 * (1 + 1.001e-9), 1e6, false, false},
	}
	for _, c := range cases {
		ok, exact := floatMatch(c.got, c.want)
		if ok != c.ok || exact != c.exact {
			t.Errorf("%s: floatMatch(%v, %v) = %v, %v; want %v, %v", c.name, c.got, c.want, ok, exact, c.ok, c.exact)
		}
	}
}

func page(rows ...[]types.Value) *column.Page {
	cols := make([]types.Column, len(rows[0]))
	for i, v := range rows[0] {
		cols[i] = types.Column{Name: string(rune('a' + i)), Type: v.Kind}
	}
	p := column.NewPage(types.NewSchema(cols...))
	for _, r := range rows {
		p.AppendRow(r...)
	}
	return p
}

func row(k int64, f float64) []types.Value {
	return []types.Value{types.IntValue(k), types.FloatValue(f)}
}

func irow(k, v int64) []types.Value { return []types.Value{types.IntValue(k), types.IntValue(v)} }

func TestAnswerCheck(t *testing.T) {
	ref := newAnswer([][]types.Value{row(1, 3), row(2, 1), row(3, 2), row(4, 2+1e-12), row(5, 9)},
		[]int{0}, []orderKey{{col: 1}}, 3)
	cases := []struct {
		name      string
		got       *column.Page
		ok, exact bool
	}{
		{"exact", page(row(2, 1), row(3, 2), row(4, 2+1e-12)), true, true},
		{"tie at the limit goes either way", page(row(2, 1), row(4, 2+1e-12), row(3, 2)), true, true},
		{"float within tolerance", page(row(2, 1+1e-12), row(3, 2), row(4, 2)), true, false},
		{"wrong key", page(row(2, 1), row(3, 2), row(1, 3)), false, false},
		{"too few rows", page(row(2, 1), row(3, 2)), false, false},
		{"repeated row", page(row(2, 1), row(2, 1), row(3, 2)), false, false},
		{"out of order", page(row(3, 2), row(2, 1), row(4, 2)), false, false},
		{"wrong kind", page(irow(2, 1), irow(3, 2), irow(4, 2)), false, false},
	}
	for _, c := range cases {
		v := ref.check(c.got)
		if v.ok != c.ok || (v.ok && v.exact != c.exact) {
			t.Errorf("%s: check = %+v, want ok=%v exact=%v", c.name, v, c.ok, c.exact)
		}
	}
	set := newAnswer([][]types.Value{row(1, 0), row(2, math.NaN())}, []int{0}, nil, 0)
	if v := set.check(page(row(2, math.NaN()), row(1, math.Copysign(0, -1)))); !v.ok || v.exact {
		t.Errorf("unordered set with NaN and -0: %+v, want ok and not exact", v)
	}
}

func TestOpStreamsAreSeedDeterministic(t *testing.T) {
	a, err := newPointHot(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPointHot(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newPointHot(8)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.ops {
		if a.ops[i].sql != b.ops[i].sql || a.ops[i].ref.n != b.ops[i].ref.n {
			t.Fatalf("seed 7 op %d differs: %q vs %q", i, a.ops[i].sql, b.ops[i].sql)
		}
		if a.ops[i].sql == c.ops[i].sql {
			same++
		}
	}
	if same == len(a.ops) {
		t.Fatal("seeds 7 and 8 produced the same lookups")
	}
	x, y := insertBatches(7, 1000), insertBatches(7, 1000)
	for i := range x {
		if valuesSQL(x[i]) != valuesSQL(y[i]) {
			t.Fatalf("seed 7 insert batch %d differs", i)
		}
	}
	if valuesSQL(insertBatches(8, 1000)[0]) == valuesSQL(x[0]) {
		t.Fatal("seeds 7 and 8 produced the same insert batch")
	}
}

// TestMovedBytesMatchFig5 checks that the benchmark's data-movement
// figure is the one BenchmarkFig5* reports as moved-KB/op (harness
// Cell.BytesMoved) for the same query, mode and data size.
func TestMovedBytesMatchFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a cluster")
	}
	c, err := harness.StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sets := []func() (*workload.Dataset, error){
		func() (*workload.Dataset, error) {
			return workload.Laghos(workload.Config{Files: 8, RowsPerFile: 8192, Seed: 42})
		},
		func() (*workload.Dataset, error) {
			return workload.DeepWater(workload.Config{Files: 8, RowsPerFile: 16384, Seed: 42})
		},
		func() (*workload.Dataset, error) {
			return workload.TPCH(workload.Config{Files: 8, RowsPerFile: 16384, Seed: 42})
		},
	}
	rec := &recorder{}
	for _, gen := range sets {
		d, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
		for _, mode := range paperScanModes {
			cell, err := c.Run(mode, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, mode))
			if err != nil {
				t.Fatal(err)
			}
			s := rec.query(c, op{label: d.Name, sql: d.Query, mode: mode}, func(*column.Page) verdict { return verdict{ok: true} })
			if s.failed || s.moved != cell.BytesMoved {
				t.Errorf("%s/%s: benchmark moved %d bytes (%s), Fig5 cell %d", d.Name, mode, s.moved, s.why, cell.BytesMoved)
			}
		}
	}
}

func TestWriteAmpUsesTracedRunsUserBytes(t *testing.T) {
	// The untraced run did 3 cycles of 1 MiB user bytes, the traced run
	// 2; the traced run put 3 MiB.
	base := &measured{values: map[string]metric{"ingest.user_mib": {3, "MiB"}}}
	traced := &measured{values: map[string]metric{"ingest.user_mib": {2, "MiB"}}}
	d := func(k string) float64 {
		switch k {
		case telemetry.MetricIngestBytes:
			return 2 << 20
		case telemetry.MetricCompactBytes:
			return 1 << 20
		}
		return 0
	}
	if got := writeAmp(traced, d).Value; got != 1.5 {
		t.Fatalf("write amp = %v, want 1.5 (3 MiB put / 2 MiB inserted by the traced run)", got)
	}
	if got := writeAmp(base, d).Value; got == 1.5 {
		t.Fatalf("write amp does not depend on the run's own user bytes")
	}
}

func TestEveryWorkloadHasItsReasonInBenchmarkJSON(t *testing.T) {
	for _, w := range workloads {
		if why := workloadWhy("../BENCHMARK.json", w.name); why == "unknown" || why == "" {
			t.Errorf("workload %s has no why in BENCHMARK.json", w.name)
		}
	}
}

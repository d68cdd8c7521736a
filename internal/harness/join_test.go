package harness

import (
	"context"
	"sort"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// q3Config is the shared scale for the two TPC-H Q3 tables. Lineitem and
// orders must be generated at the same Files × RowsPerFile so orderkeys
// align 1:1 (one lineitem row per order).
var q3Config = workload.Config{Files: 3, RowsPerFile: 512, Seed: 41, Codec: compress.None}

func q3Datasets(t *testing.T) (*workload.Dataset, *workload.Dataset) {
	t.Helper()
	line, err := workload.TPCH(q3Config)
	if err != nil {
		t.Fatal(err)
	}
	ords, err := workload.TPCHOrders(q3Config)
	if err != nil {
		t.Fatal(err)
	}
	return line, ords
}

// q3Reference computes the Q3 answer row-at-a-time from the raw parquet
// objects — a hash join the slow, obvious way — and renders it in
// rowMultisetPage form. Because orderkeys are unique on both sides, each
// output group is a single lineitem row and the revenue arithmetic
// (extendedprice × (1 − discount), summed from zero) is bitwise identical
// to the engine's, so the comparison is exact, not approximate.
func q3Reference(t *testing.T, line, ords *workload.Dataset) []string {
	t.Helper()
	cutoff, err := types.DateFromString("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}

	// Build side: orderkey → orderdate for orders before the cutoff.
	dates := make(map[int64]int64)
	for _, key := range ords.Table.Objects {
		r, err := parquetlite.NewReader(ords.Objects[key])
		if err != nil {
			t.Fatal(err)
		}
		pages, err := r.ReadAll([]int{0, 1}) // orderkey, orderdate
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			for i := 0; i < p.NumRows(); i++ {
				row := p.Row(i)
				if row[1].I < cutoff.I {
					dates[row[0].I] = row[1].I
				}
			}
		}
	}

	// Probe side: revenue per matched orderkey.
	type group struct {
		orderkey  int64
		orderdate int64
		revenue   float64
	}
	var groups []group
	for _, key := range line.Table.Objects {
		r, err := parquetlite.NewReader(line.Objects[key])
		if err != nil {
			t.Fatal(err)
		}
		pages, err := r.ReadAll([]int{0, 2, 3}) // orderkey, extendedprice, discount
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			for i := 0; i < p.NumRows(); i++ {
				row := p.Row(i)
				date, ok := dates[row[0].I]
				if !ok {
					continue
				}
				groups = append(groups, group{row[0].I, date, row[1].F * (1 - row[2].F)})
			}
		}
	}

	sort.Slice(groups, func(i, j int) bool { return groups[i].revenue > groups[j].revenue })
	if len(groups) > 10 {
		groups = groups[:10]
	}
	out := make([]string, len(groups))
	for i, g := range groups {
		out[i] = types.IntValue(g.orderkey).String() + "|" +
			types.DateValue(g.orderdate).String() + "|" +
			types.FloatValue(g.revenue).String() + "|"
	}
	sort.Strings(out)
	return out
}

func assertRowsEqual(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows = %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestJoinQ3DifferentialAcrossModes is the PR's differential property
// test: the Q3-shaped lineitem ⋈ orders query must return exactly the
// row-at-a-time reference join's answer under bloom pushdown, with bloom
// disabled, and on the fully raw path — and the bloom arm must visibly
// cut the probe rows crossing the compute/storage boundary.
func TestJoinQ3DifferentialAcrossModes(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	want := q3Reference(t, line, ords)

	run := func(label string, session *engine.Session) *engine.Result {
		t.Helper()
		c.FlushNodeCaches()
		res, err := c.Engine.Execute(context.Background(), workload.TPCHQ3Query, session)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertRowsEqual(t, label, rowMultisetPage(res.Page), want)
		return res
	}

	bloomOn := run("bloom-on", engine.NewSession())
	bloomOff := run("bloom-off", engine.NewSession().Set(engine.SessionJoinBloom, "off"))
	run("raw", engine.NewSession().Set(engine.SessionJoinBloom, "off").Set(ocsconn.SessionPushdown, "never"))

	// The bloom arm pushed a filter into every probe split and moved
	// strictly fewer rows and bytes off storage: the date cutoff keeps
	// ≈29% of orders, so ≈71% of probe rows vanish inside the scan.
	onScan := bloomOn.Stats.Scan.Snapshot()
	offScan := bloomOff.Stats.Scan.Snapshot()
	if int(onScan.JoinBloomSplits) != q3Config.Files {
		t.Errorf("bloom splits = %d, want %d", onScan.JoinBloomSplits, q3Config.Files)
	}
	if onScan.JoinBloomRejected != 0 {
		t.Errorf("bloom rejected = %d, want 0", onScan.JoinBloomRejected)
	}
	if onScan.ResultRows >= offScan.ResultRows {
		t.Errorf("bloom-on storage rows = %d, not below bloom-off %d",
			onScan.ResultRows, offScan.ResultRows)
	}
	if onScan.BytesMoved >= offScan.BytesMoved {
		t.Errorf("bloom-on moved %d bytes, not below bloom-off %d",
			onScan.BytesMoved, offScan.BytesMoved)
	}
	if !bloomOn.Stats.Join || bloomOn.Stats.JoinBuildRows == 0 {
		t.Errorf("join = %v, build rows = %d, want a join with a non-empty build side",
			bloomOn.Stats.Join, bloomOn.Stats.JoinBuildRows)
	}

	// Decisions and storage-side work are on /metrics.
	if n := c.Metrics.CounterValue(telemetry.MetricJoinBloomPushdown); int(n) != q3Config.Files {
		t.Errorf("%s = %d, want %d", telemetry.MetricJoinBloomPushdown, n, q3Config.Files)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricQueryJoins); n < 3 {
		t.Errorf("%s = %d, want ≥ 3", telemetry.MetricQueryJoins, n)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricJoinBuildRows); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricJoinBuildRows)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricStorageBloomRowsTested); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricStorageBloomRowsTested)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricStorageBloomRowsFiltered); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricStorageBloomRowsFiltered)
	}
}

// TestJoinBloomRejectedFallbackEngineSide caps the storage nodes' bloom
// budget below any real filter: every probe split's pushdown is rejected
// with CodeInvalid, the connector retries the split without the bloom and
// applies it engine-side, and the answer is still exactly the reference.
func TestJoinBloomRejectedFallbackEngineSide(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true, MaxBloomBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}

	res, err := c.Engine.Execute(context.Background(), workload.TPCHQ3Query, engine.NewSession())
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, "bloom-capped", rowMultisetPage(res.Page), q3Reference(t, line, ords))

	scan := res.Stats.Scan.Snapshot()
	if int(scan.JoinBloomRejected) != q3Config.Files {
		t.Errorf("bloom rejected = %d, want %d (every probe split)",
			scan.JoinBloomRejected, q3Config.Files)
	}
	if scan.JoinBloomSplits != 0 {
		t.Errorf("bloom splits = %d, want 0 under an 8-byte cap", scan.JoinBloomSplits)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricJoinBloomRejected); int(n) != q3Config.Files {
		t.Errorf("%s = %d, want %d", telemetry.MetricJoinBloomRejected, n, q3Config.Files)
	}
}

// TestJoinBloomProbeFlipMidStream rides a bloom-carrying probe pushdown
// stream into a mid-query adaptive flip: the storage-load spike lands
// after the first page, the connector abandons the remote stream and
// replays locally, and the replayed plan must evaluate the same
// BloomFilterRel — so the delivered sequence equals the raw decision
// path's, row for row, with the delivered prefix skipped exactly once.
func TestJoinBloomProbeFlipMidStream(t *testing.T) {
	c, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Many small row groups: the stream yields multiple chunks, so the
	// spike can land strictly mid-stream.
	d, err := workload.TPCH(workload.Config{Files: 2, RowsPerFile: 4096, RowGroupSize: 512, Seed: 43, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}

	// A keep-everything filter plus a bloom over every orderkey: worst
	// case for pushdown, so the saturated policy is certain to flip.
	bloomHandle := func() *ocsconn.Handle {
		th, err := c.OCSConn.TableHandle(CatalogOCS, "lineitem")
		if err != nil {
			t.Fatal(err)
		}
		h := th.(*ocsconn.Handle)
		cmp, err := expr.NewCompare(expr.Lt, expr.Col(1, "quantity", types.Float64),
			expr.Lit(types.FloatValue(1e9)))
		if err != nil {
			t.Fatal(err)
		}
		h.Push = &ocsconn.Pushdown{Filter: cmp}
		h.Adaptive = &ocsconn.AdaptiveParams{
			LoadCutoff: ocsconn.DefaultLoadCutoff,
			FlipMargin: ocsconn.DefaultFlipMargin,
		}
		keys := int64(2 * 4096)
		f := bloom.New(int(keys), bloom.DefaultBitsPerKey)
		for k := int64(0); k < keys; k++ {
			f.AddHash(bloom.HashInt64(k))
		}
		nh, ok := h.WithJoinBloom(0, f, keys)
		if !ok {
			t.Fatal("WithJoinBloom declined a filter-only handle")
		}
		return nh.(*ocsconn.Handle)
	}

	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	var stats engine.ScanStats
	src, err := c.OCSConn.CreatePageSourceDecided(context.Background(), bloomHandle(), split,
		engine.SplitDecision{Pushdown: true}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.Next()
	if err != nil || first == nil {
		t.Fatalf("first page: %v", err)
	}
	got := collectColumn(t, first, nil)
	saturate(c.OCSConn.Policy())
	for {
		page, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if page == nil {
			break
		}
		got = collectColumn(t, page, got)
	}
	if flips := stats.Snapshot().AdaptiveFlips; flips != 1 {
		t.Fatalf("adaptive flips = %d, want 1", flips)
	}

	// Raw decision over the same handle shape evaluates the identical
	// plan — bloom included — locally, and is the reference order.
	var rawStats engine.ScanStats
	raw, err := c.OCSConn.CreatePageSourceDecided(context.Background(), bloomHandle(), split,
		engine.SplitDecision{Pushdown: false}, &rawStats)
	if err != nil {
		t.Fatal(err)
	}
	var ref []string
	for {
		page, err := raw.Next()
		if err != nil {
			t.Fatal(err)
		}
		if page == nil {
			break
		}
		ref = collectColumn(t, page, ref)
	}
	if len(got) != len(ref) {
		t.Fatalf("flipped stream delivered %d rows, raw path %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("row %d: flipped stream = %s, raw path = %s", i, got[i], ref[i])
		}
	}
}

func q3Arms() []struct{ Name, Bloom string } {
	return []struct{ Name, Bloom string }{
		{"bloom-on", ""},
		{"bloom-off", "off"},
	}
}

// BenchmarkJoinBloomSweep is the PR's evaluation sweep: the Q3-shaped
// join with bloom pushdown on and off. bytes-moved and storage-rows are
// the measures that matter — the bloom arm must move strictly fewer probe
// rows off storage. `make bench` archives the numbers in BENCH_PR9.json.
func BenchmarkJoinBloomSweep(b *testing.B) {
	cfg := workload.Config{Files: 2, RowsPerFile: 8192, Seed: 31, Codec: compress.Snappy}
	line, err := workload.TPCH(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ords, err := workload.TPCHOrders(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := benchCluster(b, line, ords)

	for _, arm := range q3Arms() {
		b.Run(arm.Name, func(b *testing.B) {
			var bytesMoved, storageRows, buildRows float64
			for i := 0; i < b.N; i++ {
				session := engine.NewSession()
				if arm.Bloom != "" {
					session.Set(engine.SessionJoinBloom, arm.Bloom)
				}
				cell, err := c.Run(arm.Name, workload.TPCHQ3Query, session)
				if err != nil {
					b.Fatal(err)
				}
				if cell.Rows == 0 {
					b.Fatal("empty result")
				}
				scan := cell.Stats.Scan.Snapshot()
				bytesMoved += float64(cell.BytesMoved)
				storageRows += float64(scan.ResultRows)
				buildRows += float64(cell.Stats.JoinBuildRows)
			}
			n := float64(b.N)
			b.ReportMetric(bytesMoved/n, "bytes-moved/op")
			b.ReportMetric(storageRows/n, "storage-rows/op")
			b.ReportMetric(buildRows/n, "build-rows/op")
		})
	}
}

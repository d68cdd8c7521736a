package harness

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/faultnet"
	"prestocs/internal/ocsserver"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// adaptiveSession is the sweep configuration: auto mode with the
// planner's own reduction threshold disabled, so the filter is always
// planned for pushdown and the per-split policy alone decides where it
// runs.
func adaptiveSession() *engine.Session {
	return engine.NewSession().
		Set(ocsconn.SessionPushdown, "auto").
		Set(ocsconn.SessionSelectivityThreshold, "0")
}

// saturate pins the policy's storage-load estimate well past the flip
// cutoff, scaled by the modeled scan parallelism so the per-worker
// queueing depth is host-independent.
func saturate(p *ocsconn.Policy) {
	load := uint32(200 * costmodel.StorageScanParallelism())
	for i := 0; i < 6; i++ {
		p.ObserveLoad(load)
	}
}

// drain walks the load estimate back to idle.
func drain(p *ocsconn.Policy) {
	for i := 0; i < 40; i++ {
		p.ObserveLoad(0)
	}
}

// TestAdaptiveSweepDecisions drives the selectivity × storage-load grid
// end-to-end: on idle storage a selective filter is pushed for every
// split; with the storage-load signal saturated the policy prices every
// split onto the raw path instead, and both regimes return exactly the
// static modes' rows. The decision counters must be visible in the
// shared metrics registry (the /metrics series).
func TestAdaptiveSweepDecisions(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	selective := `SELECT vertex_id, e FROM laghos WHERE x < 0.4`
	wide := `SELECT vertex_id, e FROM laghos WHERE x < 3.99`
	splits := len(d.Table.Objects)

	// Idle storage, selective predicate: every split pushes down.
	want, err := c.Run("always", selective, engine.NewSession().Set(ocsconn.SessionPushdown, "always"))
	if err != nil {
		t.Fatal(err)
	}
	cell, err := c.Run("adaptive-idle", selective, adaptiveSession())
	if err != nil {
		t.Fatal(err)
	}
	scan := cell.Stats.Scan.Snapshot()
	if int(scan.PushdownSplits) != splits || scan.RawSplits != 0 {
		t.Errorf("idle: decisions pushdown=%d raw=%d, want %d/0",
			scan.PushdownSplits, scan.RawSplits, splits)
	}
	if cell.Rows != want.Rows {
		t.Errorf("idle: adaptive rows = %d, always rows = %d", cell.Rows, want.Rows)
	}

	// Saturated storage, non-selective predicate: every split goes raw.
	want, err = c.Run("never", wide, engine.NewSession().Set(ocsconn.SessionPushdown, "never"))
	if err != nil {
		t.Fatal(err)
	}
	saturate(c.OCSConn.Policy())
	cell, err = c.Run("adaptive-loaded", wide, adaptiveSession())
	if err != nil {
		t.Fatal(err)
	}
	scan = cell.Stats.Scan.Snapshot()
	if int(scan.RawSplits) != splits || scan.PushdownSplits != 0 {
		t.Errorf("loaded: decisions pushdown=%d raw=%d, want 0/%d",
			scan.PushdownSplits, scan.RawSplits, splits)
	}
	if cell.Rows != want.Rows {
		t.Errorf("loaded: adaptive rows = %d, never rows = %d", cell.Rows, want.Rows)
	}

	// Decision counters and the load gauge are in the registry.
	if n := c.Metrics.CounterValue(telemetry.MetricPushdownDecisions, "choice", "pushdown"); int(n) != splits {
		t.Errorf("pushdown decision counter = %d, want %d", n, splits)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricPushdownDecisions, "choice", "raw"); int(n) != splits {
		t.Errorf("raw decision counter = %d, want %d", n, splits)
	}
	if g := c.Metrics.GaugeValue(telemetry.MetricStorageLoad); g <= 0 {
		t.Errorf("storage-load gauge = %d, want > 0 after saturation", g)
	}
}

// TestAdaptiveLoadSignalPropagates proves the live feedback path with no
// injection: heavy pushdown traffic through a one-worker scan pool backs
// the node scheduler up, the backlog rides the stream frames, and the
// connector policy's load estimate rises above idle. Many small row
// groups per object keep the scan's submission window refilling past the
// scheduler lookahead, so the backlog is nonzero while chunks stream.
func TestAdaptiveLoadSignalPropagates(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true, ScanPool: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	d, err := workload.Laghos(workload.Config{Files: 2, RowsPerFile: 8192, RowGroupSize: 512, Seed: 11, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	heavy := `SELECT vertex_id, x, e FROM laghos WHERE x < 4.5`
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			session := engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
			for i := 0; i < 3; i++ {
				if _, err := runSQL(context.Background(), c.Engine, heavy, session); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ewma := c.OCSConn.Policy().LoadEWMA(); ewma <= 0 {
		t.Errorf("load EWMA = %v after concurrent pushdown traffic, want > 0", ewma)
	}
}

// adaptiveHandle builds a filter-pushdown handle over the loaded laghos
// table with adaptive repricing armed: `x < cut` over the full schema.
func adaptiveHandle(t *testing.T, c *Cluster, cut float64) *ocsconn.Handle {
	t.Helper()
	th, err := c.OCSConn.TableHandle(CatalogOCS, "laghos")
	if err != nil {
		t.Fatal(err)
	}
	h := th.(*ocsconn.Handle)
	cmp, err := expr.NewCompare(expr.Lt, expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(cut)))
	if err != nil {
		t.Fatal(err)
	}
	h.Push = &ocsconn.Pushdown{Filter: cmp}
	h.Adaptive = &ocsconn.AdaptiveParams{
		LoadCutoff: ocsconn.DefaultLoadCutoff,
		FlipMargin: ocsconn.DefaultFlipMargin,
	}
	return h
}

// TestAdaptiveFlipKilledConnectionReplay exercises the two resume paths
// of the order-deterministic machinery in one cluster: a pushdown stream
// abandoned mid-query by the adaptive policy (storage-load spike), and a
// pushdown stream severed by a killed connection — both must replay
// locally, skip the delivered prefix, and produce the exact raw-path
// row sequence.
func TestAdaptiveFlipKilledConnectionReplay(t *testing.T) {
	c, proxy := proxiedCluster(t, 1)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}

	// --- Mid-query flip ---
	h := adaptiveHandle(t, c, 9) // keeps every row: worst case for pushdown
	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	var stats engine.ScanStats
	src, err := c.OCSConn.CreatePageSourceDecided(context.Background(), h, split,
		engine.SplitDecision{Pushdown: true}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.Next()
	if err != nil || first == nil {
		t.Fatalf("first page: %v", err)
	}
	got := collectColumn(t, first, nil)
	// The load spike arrives mid-stream; the next read must reprice and
	// flip to the local replay.
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

	// The raw decision path over the same split is the reference order.
	var rawStats engine.ScanStats
	raw, err := c.OCSConn.CreatePageSourceDecided(context.Background(), adaptiveHandle(t, c, 9), split,
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

	// --- Killed-connection replay under auto mode ---
	// A fresh cluster with small stream chunks and a one-chunk credit
	// window: each chunk costs a full credit round trip, so the proxy
	// forwards the schema and the first chunks individually and the
	// byte-threshold kill deterministically severs the connection only
	// after the client has consumed a prefix — the mid-stream fallback
	// path, not the open-retry path a kill-at-open would take. The kill
	// is armed before any query so no pooled connection is already past
	// the threshold (the proxy counts response bytes from birth).
	ocsCluster, err := ocsserver.StartClusterWith(1, ocsserver.ClusterConfig{StreamWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err = faultnet.New(ocsCluster.Addr)
	if err != nil {
		ocsCluster.Shutdown()
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	c = clusterAround(t, ocsCluster, proxy.Addr(), ocsserver.WithChunkRows(512))
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	selective := `SELECT vertex_id, e FROM laghos WHERE x < 1.5`
	proxy.KillOnce(16384)
	cell, err := c.Run("killed", selective, adaptiveSession())
	if err != nil {
		t.Fatalf("auto query with killed connection = %v", err)
	}
	baseline, err := c.Run("baseline", selective, engine.NewSession().Set(ocsconn.SessionPushdown, "never"))
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed connections = %d, want 1", proxy.Killed())
	}
	if cell.Rows != baseline.Rows {
		t.Errorf("rows with fault = %d, baseline = %d", cell.Rows, baseline.Rows)
	}
	scan := cell.Stats.Scan.Snapshot()
	if scan.PushdownSplits == 0 {
		t.Errorf("auto query scheduled no pushdown splits on idle storage")
	}
	if scan.FallbackSplits == 0 {
		t.Errorf("killed connection produced no fallback replay")
	}
}

// collectColumn appends page column 0 (vertex_id) to dst, rendered as
// strings for simple order-sensitive comparison.
func collectColumn(t *testing.T, page *column.Page, dst []string) []string {
	t.Helper()
	vec := page.Vectors[0]
	for i := 0; i < vec.Len(); i++ {
		dst = append(dst, fmt.Sprint(vec.Value(i)))
	}
	return dst
}

// BenchmarkAdaptiveSweep is the PR's evaluation sweep: the same filter
// query at two (selectivity, storage-load) extremes where the optimal
// static pushdown choice flips. At each extreme the three modes run
// interleaved and the reported figure is the best-of-N wall time; the
// adaptive mode must track the better static choice at both ends
// (adaptive-vs-best-pct ≈ 0, and far below the worse static's gap).
func BenchmarkAdaptiveSweep(b *testing.B) {
	// Many small row groups per object: scan work arrives at the storage
	// scheduler as a long task stream, so background traffic sustains real
	// queue depth against the measured query (and feeds the load signal).
	d, err := workload.Laghos(workload.Config{Files: 4, RowsPerFile: 16384, RowGroupSize: 512, Seed: 31, Codec: compress.None})
	if err != nil {
		b.Fatal(err)
	}

	runRegime := func(b *testing.B, c *Cluster, query string, stop func()) {
		if stop != nil {
			defer stop()
		}
		sessions := map[string]func() *engine.Session{
			"always":   func() *engine.Session { return engine.NewSession().Set(ocsconn.SessionPushdown, "always") },
			"never":    func() *engine.Session { return engine.NewSession().Set(ocsconn.SessionPushdown, "never") },
			"adaptive": adaptiveSession,
		}
		order := []string{"always", "never", "adaptive"}
		samples := map[string][]time.Duration{}
		// Warm connection pools and code paths before timing.
		for _, mode := range order {
			if _, err := c.Run("warmup", query, sessions[mode]()); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		// Floor of 24 interleaved rounds even when the framework picks a
		// small b.N (the loaded regime is slow): the best-of-N statistic
		// below needs enough draws per mode to reach each mode's floor.
		// ns/op consequently overstates per-iteration time on short runs;
		// the *-ms metrics are the figures of record for this benchmark.
		rounds := b.N
		if rounds < 24 {
			rounds = 24
		}
		for i := 0; i < rounds; i++ {
			for _, mode := range order {
				start := time.Now()
				if _, err := c.Run(mode, query, sessions[mode]()); err != nil {
					b.Fatal(err)
				}
				samples[mode] = append(samples[mode], time.Since(start))
			}
		}
		b.StopTimer()
		med := map[string]float64{}
		for mode, s := range samples {
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			// Best-of-N: the floor isolates each mode's deterministic cost
			// from scheduler jitter (the samples are bimodal on a busy
			// host, so a median can land on either side of the gap).
			med[mode] = float64(s[0].Nanoseconds()) / 1e6
		}
		best := med["always"]
		if med["never"] < best {
			best = med["never"]
		}
		b.ReportMetric(med["always"], "always-ms")
		b.ReportMetric(med["never"], "never-ms")
		b.ReportMetric(med["adaptive"], "adaptive-ms")
		b.ReportMetric((med["adaptive"]-best)/best*100, "adaptive-vs-best-pct")
	}

	b.Run("idle-selective", func(b *testing.B) {
		c, err := StartClusterWith(1, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(c.Close)
		if err := c.Load(d); err != nil {
			b.Fatal(err)
		}
		runRegime(b, c, `SELECT vertex_id, e FROM laghos WHERE x < 0.4`, nil)
	})

	b.Run("loaded-nonselective", func(b *testing.B) {
		c, err := StartClusterWith(1, Config{ScanPool: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(c.Close)
		if err := c.Load(d); err != nil {
			b.Fatal(err)
		}
		// Background pushdown traffic keeps the one-worker scan pool
		// saturated, so in-storage execution queues while raw GETs do not.
		stopCh := make(chan struct{})
		var wg sync.WaitGroup
		heavy := `SELECT vertex_id, x, e FROM laghos WHERE x < 4.5`
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				session := engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					if _, err := runSQL(context.Background(), c.Engine, heavy, session); err != nil {
						return
					}
				}
			}()
		}
		stop := func() {
			close(stopCh)
			wg.Wait()
		}
		// Full-width, non-selective projection: pushdown ships every
		// column, so the modeled wire/ingest saving is nil and observed
		// queue depth alone decides — the regime where raw must win.
		runRegime(b, c, `SELECT vertex_id, x, y, z, e, rho, p, vx, vy, vz FROM laghos WHERE x < 3.99`, stop)
	})
}

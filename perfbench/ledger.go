package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"prestocs/internal/analyzer"
	"prestocs/internal/arrowlite"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/ocsserver"
	"prestocs/internal/optimizer"
	"prestocs/internal/parquetlite"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one query share query.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root
	Query  int       `json:"query"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory until the run ends. One goroutine
// records into it.
type spanLog struct {
	spans []span
	query int
}

func (l *spanLog) start(parent int, name string) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Query: l.query, Name: name, Start: time.Now()})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Now() }

// timed records fn as a span under parent.
func (l *spanLog) timed(parent int, name string, fn func() error) error {
	id := l.start(parent, name)
	err := fn()
	l.end(id)
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = x[0], x[1]
			continue
		}
		if x[1].After(curB) {
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// statsAgg sums the engine's per-query reports over a traced run.
type statsAgg struct {
	mu                                                       sync.Mutex
	n                                                        int
	parseAnalyze, optimize, residual, transfer, substraitGen time.Duration
	leafUnits, finalUnits, storageCPU, modeledMs             float64
	splits, pruned, pushSplits, rawSplits, flips, fallbacks  int64
	bytesRead                                                int64
}

func (a *statsAgg) add(c *harness.Cluster, st *engine.QueryStats) {
	scan := st.Scan.Snapshot()
	modeled := c.Params.Model(costmodel.Measured{
		StorageBytesRead: scan.StorageWork.BytesRead,
		StorageCPUUnits:  scan.StorageWork.CPUUnits,
		BytesMoved:       scan.BytesMoved,
		ComputeCPUUnits:  st.LeafMeter.Units + st.FinalMeter.Units,
		IngestUnits:      scan.DeserializeUnits,
		RoundTrips:       int64(st.Splits),
	})
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	a.parseAnalyze += st.ParseAnalyze
	a.optimize += st.GlobalOpt + st.ConnectorOpt
	a.residual += max(0, st.Execution-scan.Transfer-scan.SubstraitGen)
	a.transfer += scan.Transfer
	a.substraitGen += scan.SubstraitGen
	a.leafUnits += st.LeafMeter.Units
	a.finalUnits += st.FinalMeter.Units
	a.storageCPU += scan.StorageWork.CPUUnits
	a.bytesRead += scan.StorageWork.BytesRead
	a.modeledMs += float64(modeled.Total) / float64(time.Millisecond)
	a.splits += int64(st.Splits)
	a.pruned += scan.SplitsPruned
	a.pushSplits += scan.PushdownSplits
	a.rawSplits += scan.RawSplits
	a.flips += scan.AdaptiveFlips
	a.fallbacks += scan.FallbackSplits
}

// metricTotals sums a registry's series by metric name across label
// sets, from its text exposition; histograms contribute name_sum and
// name_count.
func metricTotals(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(reg.Render(), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(key, "_bucket") {
			continue
		}
		name, _, _ := strings.Cut(key, "{")
		var v float64
		if _, err := fmt.Sscan(val, &v); err == nil {
			out[name] += v
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replayAcc accumulates the isolated-replay measurements.
type replayAcc struct {
	queries                                 int
	bloomless                               int // replayed joins, probed without the bloom filter
	planBytes, plans                        int64
	decodedBytes, decompressedBytes, values int64
	streamDecode                            time.Duration
}

// tracedRun measures the workload again on a cluster with telemetry on,
// replays its operations layer by layer, prints the ledger and returns
// the per-layer metrics.
func tracedRun(w runner, name string, seed int64, seconds int, base *measured, out string) (map[string]metric, *measured, error) {
	c, err := startCluster(true)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	if err := w.load(c); err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	before := metricTotals(c.Metrics)
	agg := &statsAgg{}
	stop := make(chan struct{})
	var backlogMax, pinsMax int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for i := range c.OCS.Nodes {
					backlogMax = max(backlogMax, c.Metrics.GaugeValue(telemetry.MetricNodeSchedBacklog, "node", fmt.Sprintf("node%d", i)))
				}
				pinsMax = max(pinsMax, int64(c.Meta.PinnedCount()))
			}
		}
	}()
	m, err := measureRun(c, w, seconds, agg)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	after := metricTotals(c.Metrics)
	d := func(k string) float64 { return after[k] - before[k] }

	log := &spanLog{}
	acc := &replayAcc{}
	replayStart := time.Now()
	ops := w.replayOps()
	for rep := 0; rep < 20 && (rep < 3 || time.Since(replayStart) < time.Second); rep++ {
		for _, o := range ops {
			if err := replay(c, o, log, acc); err != nil {
				return nil, nil, fmt.Errorf("replaying %s: %w", o.label, err)
			}
		}
	}

	q := float64(agg.n)
	msPer := func(total time.Duration) float64 { return ratio(float64(total)/float64(time.Millisecond), q) }
	usPer := func(total time.Duration) float64 { return ratio(float64(total)/float64(time.Microsecond), q) }
	v := map[string]metric{
		"engine.parse_analyze_us":                {usPer(agg.parseAnalyze), "us"},
		"engine.optimize_us":                     {usPer(agg.optimize), "us"},
		"engine.admission_wait_us":               {ratio(d(telemetry.MetricAdmissionWait+"_sum"), d(telemetry.MetricAdmissionWait+"_count")), "us"},
		"engine.residual_ms":                     {msPer(agg.residual), "ms"},
		"exec.leaf_cpu_units":                    {ratio(agg.leafUnits, q), "units"},
		"exec.final_cpu_units":                   {ratio(agg.finalUnits, q), "units"},
		"exec.float_nonbitidentical":             base.values["float_nonbitidentical"],
		"ocs.substrait_gen_us":                   {usPer(agg.substraitGen), "us"},
		"ocs.splits_per_query":                   {ratio(float64(agg.splits), q), "count"},
		"ocs.splits_pruned_ratio":                {ratio(float64(agg.pruned), float64(agg.splits+agg.pruned)), "ratio"},
		"ocs.transfer_ms":                        {msPer(agg.transfer), "ms"},
		"ocs.pushdown_split_ratio":               {ratio(float64(agg.pushSplits), float64(agg.pushSplits+agg.rawSplits)), "ratio"},
		"ocs.adaptive_flips_per_query":           {ratio(float64(agg.flips), q), "count"},
		"ocs.fallback_splits":                    {float64(agg.fallbacks), "count"},
		"cache.meta_hit_ratio":                   {ratio(d(telemetry.MetricMetaCacheHits), d(telemetry.MetricMetaCacheHits)+d(telemetry.MetricMetaCacheMisses)), "ratio"},
		"metastore.snapshot_pins_max":            {float64(pinsMax), "count"},
		"rpc.stream_window_stalls_per_query":     {ratio(d(telemetry.MetricRPCStreamStalls), q), "count"},
		"rpc.client_recv_bytes_per_query":        {ratio(d(telemetry.MetricRPCClientRecvBytes), q), "bytes"},
		"rpc.pool_dials":                         {d(telemetry.MetricRPCPoolDials), "count"},
		"rpc.retry_attempts":                     {d(telemetry.MetricRetryAttempts), "count"},
		"ocsserver.rowgroups_scanned_per_query":  {ratio(d(telemetry.MetricScanPoolRowGroups), q), "count"},
		"ocsserver.rowgroups_pruned_ratio":       {ratio(d(telemetry.MetricScanRowGroupsPruned), d(telemetry.MetricScanPoolRowGroups)+d(telemetry.MetricScanRowGroupsPruned)), "ratio"},
		"ocsserver.bytes_skipped_per_query":      {ratio(d(telemetry.MetricScanBytesSkipped), q), "bytes"},
		"ocsserver.storage_bytes_read_per_query": {ratio(float64(agg.bytesRead), q), "bytes"},
		"ocsserver.storage_cpu_units_per_query":  {ratio(agg.storageCPU, q), "units"},
		"ocsserver.sched_backlog_max":            {float64(backlogMax), "count"},
		"ocsserver.bloom_filtered_ratio":         {ratio(d(telemetry.MetricStorageBloomRowsFiltered), d(telemetry.MetricStorageBloomRowsTested)), "ratio"},
		"cache.footer_hit_ratio":                 {ratio(d(telemetry.MetricFooterCacheHits), d(telemetry.MetricFooterCacheHits)+d(telemetry.MetricFooterCacheMisses)), "ratio"},
		"cache.page_hit_ratio":                   {ratio(d(telemetry.MetricPageCacheHits), d(telemetry.MetricPageCacheHits)+d(telemetry.MetricPageCacheMisses)), "ratio"},
		"cache.page_evictions_per_query":         {ratio(d(telemetry.MetricPageCacheEvictions), q), "count"},
		"cache.page_bytes":                       {after[telemetry.MetricPageCacheBytes] / (1 << 20), "MiB"},
		"ingest.flush_ms":                        {ratio(d(telemetry.MetricIngestFlushUs+"_sum"), d(telemetry.MetricIngestFlushUs+"_count")) / 1000, "ms"},
		"ingest.write_amp":                       writeAmp(m, d),
		"costmodel.modeled_ms":                   {ratio(agg.modeledMs, q), "ms"},
		"telemetry.trace_overhead_pct":           {100 * (1 - ratio(m.values["queries_per_s"].Value, base.values["queries_per_s"].Value)), "%"},
	}
	for _, k := range []string{"ingest.compact_ms", "ingest.compact_stall_ms"} {
		if x, ok := m.values[k]; ok {
			v[k] = x
		} else {
			v[k] = metric{0, "ms"}
		}
	}
	for _, k := range []string{"metastore.objects_live", "metastore.tombstones"} {
		if x, ok := m.values[k]; ok {
			v[k] = x
		} else {
			v[k] = metric{0, "count"}
		}
	}
	if _, ok := m.values["metastore.objects_live"]; !ok {
		var live int
		for _, t := range c.Meta.List() {
			schema, tname, _ := strings.Cut(t, ".")
			if tab, err := c.Meta.Get(schema, tname); err == nil {
				live += len(tab.Objects)
			}
		}
		v["metastore.objects_live"] = metric{float64(live), "count"}
	}
	// Workload-level end-to-end figures that do not apply to every
	// workload, from the untraced run (0 where they do not apply).
	for k, unit := range workloadOnly {
		x, ok := base.values[k]
		if !ok {
			x = metric{0, unit}
		}
		v[k] = x
	}
	for k, x := range ledger(log.spans, acc) {
		v[k] = x
	}
	var touched, stored int64
	for _, s := range w.sizes() {
		touched += s.touched
		stored += s.stored
	}
	v["sizing.decoded_touched_mib"] = metric{mib(touched), "MiB"}
	v["sizing.stored_mib"] = metric{mib(stored), "MiB"}

	printLedger(name, log.spans, acc)
	printMetrics("per-layer", v)
	if err := dumpSpans(filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.json", name, seed)), log.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return v, m, nil
}

// writeAmp is the bytes ingest and compaction put during the traced
// run over the user bytes the same run inserted; d is the run's
// registry delta. Runs end on the clock, so the untraced run's insert
// count differs and must not be the denominator.
func writeAmp(traced *measured, d func(string) float64) metric {
	put := d(telemetry.MetricIngestBytes) + d(telemetry.MetricCompactBytes)
	return metric{ratio(put, traced.values["ingest.user_mib"].Value*(1<<20)), "ratio"}
}

// workloadOnly are the end-to-end figures that apply to some workloads
// only, with their units.
var workloadOnly = map[string]string{
	"insert_p50_ms": "ms", "insert_p95_ms": "ms", "ingest_rows_per_s": "rows/s", "space_amp": "ratio",
	"error_rate": "ratio", "query_samples": "count", "query_beyond_p95": "count", "insert_samples": "count", "insert_beyond_p95": "count",
}

// compactionLatency returns the mean RunOnce time and how much longer
// reads took while a compaction ran than while none did.
func compactionLatency(rec *recorder) (compactMs, stallMs float64) {
	if len(rec.compactions) == 0 {
		return 0, 0
	}
	var runs []float64
	for _, iv := range rec.compactions {
		runs = append(runs, float64(iv[1].Sub(iv[0]))/float64(time.Millisecond))
	}
	var during, outside []float64
	for _, s := range rec.samples {
		if s.kind != kindQuery || s.failed {
			continue
		}
		end := s.start.Add(s.dur)
		overlaps := false
		for _, iv := range rec.compactions {
			if s.start.Before(iv[1]) && end.After(iv[0]) {
				overlaps = true
				break
			}
		}
		ms := float64(s.dur) / float64(time.Millisecond)
		if overlaps {
			during = append(during, ms)
		} else {
			outside = append(outside, ms)
		}
	}
	if len(during) > 0 && len(outside) > 0 {
		stallMs = mean(during) - mean(outside)
	}
	return mean(runs), stallMs
}

// replay re-executes one query stage by stage through each layer's
// public functions, under a "query" root span, then replays the
// metastore pin, the storage engine, the decoders and the Arrow codec
// on the same splits in isolation under a "replay" root. A join's probe
// scan is replayed without the bloom filter: the engine builds that
// filter from the build side while the query runs, and the replay does
// not run the join.
func replay(c *harness.Cluster, o op, log *spanLog, acc *replayAcc) error {
	ctx := context.Background()
	log.query++
	acc.queries++
	session := engine.NewSession().Set(ocsconn.SessionPushdown, o.mode)
	root := log.start(0, "query")
	var stmt *sqlparser.SelectStmt
	var logical, optimized plan.Node
	res := &replayResolver{eng: c.Engine, log: log}
	defer res.release()
	err := log.timed(root, "sqlparser.parse", func() (err error) {
		stmt, err = sqlparser.Parse(o.sql)
		return err
	})
	if err == nil {
		res.parent = log.start(root, "analyzer.analyze")
		logical, err = analyzer.Analyze(stmt, res, harness.CatalogOCS)
		log.end(res.parent)
	}
	if err != nil {
		return err
	}
	err = log.timed(root, "optimizer.optimize", func() (err error) {
		optimized, err = optimizer.Optimize(logical)
		return err
	})
	if err == nil {
		err = log.timed(root, "connector.plan_optimize", func() (err error) {
			optimized, err = c.OCSConn.PlanOptimizer().Optimize(optimized, session)
			return err
		})
	}
	if err != nil {
		return err
	}
	type pushed struct {
		plan  *substrait.Plan
		pages []*column.Page
	}
	if plan.FindJoin(optimized) != nil {
		acc.bloomless++
	}
	var pushes []pushed
	var objects []*ocsconn.Handle
	var objectKeys []string
	for _, scan := range plan.FindScans(optimized) {
		h, ok := scan.Handle.(*ocsconn.Handle)
		if !ok {
			return fmt.Errorf("scan of %s has handle %T", scan.Table, scan.Handle)
		}
		var splits []engine.Split
		err := log.timed(root, "connector.splits", func() (err error) {
			splits, err = c.OCSConn.SplitsWithStats(h, &engine.ScanStats{})
			return err
		})
		if err != nil {
			return err
		}
		for _, sp := range splits {
			objects, objectKeys = append(objects, h), append(objectKeys, sp.Object)
			// The engine asks the connector per split, so that under
			// pushdown auto a split may take the raw path.
			id := log.start(root, "connector.decide_split")
			dec := c.OCSConn.DecideSplit(h, sp, &engine.ScanStats{})
			log.end(id)
			if !dec.Pushdown {
				err := log.timed(root, "rpc.get", func() error {
					_, _, err := c.OCSCli.Get(ctx, h.Table.Bucket, sp.Object)
					return err
				})
				if err != nil {
					return err
				}
				continue
			}
			p := pushed{}
			err := log.timed(root, "ocs.build_substrait", func() (err error) {
				p.plan, err = ocsconn.BuildSubstrait(h, sp.Object)
				return err
			})
			if err == nil {
				err = log.timed(root, "substrait.marshal", func() error {
					b, err := substrait.Marshal(p.plan)
					acc.planBytes += int64(len(b))
					acc.plans++
					return err
				})
			}
			var rs *ocsserver.ResultStream
			if err == nil {
				err = log.timed(root, "rpc.execute_stream", func() (err error) {
					rs, err = c.OCSCli.ExecuteStream(ctx, p.plan)
					return err
				})
			}
			if err == nil {
				err = log.timed(root, "rpc.next", func() error {
					defer rs.Close()
					for {
						page, err := rs.Next()
						if err == io.EOF {
							acc.streamDecode += rs.DecodeTime()
							return nil
						}
						if err != nil {
							return err
						}
						p.pages = append(p.pages, page)
					}
				})
			}
			if err != nil {
				return err
			}
			pushes = append(pushes, p)
		}
	}
	log.end(root)

	iso := log.start(0, "replay")
	defer log.end(iso)
	// The engine pins each table while the analyzer resolves it (inside
	// connector.resolve); GetPinned is timed here on its own.
	for _, scan := range plan.FindScans(optimized) {
		err := log.timed(iso, "metastore.get_pinned", func() error {
			_, pin, err := c.Meta.GetPinned(harness.CatalogOCS, scan.Table)
			if err == nil {
				pin.Release()
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	store := c.OCS.Nodes[0].Store()
	for _, p := range pushes {
		err := log.timed(iso, "ocsserver.exec_local", func() error {
			ls, err := ocsserver.ExecuteLocalStream(store, p.plan, 0)
			if err != nil {
				return err
			}
			defer ls.Close()
			for {
				page, err := ls.Next()
				if err != nil || page == nil {
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		if err := replayArrow(log, iso, p.pages, acc); err != nil {
			return err
		}
	}
	for i, h := range objects {
		img, err := store.Get(h.Table.Bucket, objectKeys[i])
		if err != nil {
			return err
		}
		if err := replayDecode(log, iso, img, h.Projection, acc); err != nil {
			return err
		}
	}
	return nil
}

// replayDecode times parquetlite decoding (NewReader + ReadRowGroup) of
// the projected columns of one object, then the codec alone on the same
// column chunks.
func replayDecode(log *spanLog, parent int, img []byte, cols []int, acc *replayAcc) error {
	var r *parquetlite.Reader
	err := log.timed(parent, "parquetlite.decode", func() (err error) {
		r, err = parquetlite.NewReader(img)
		if err != nil {
			return err
		}
		if cols == nil {
			cols = make([]int, r.Schema().Len())
			for i := range cols {
				cols[i] = i
			}
		}
		for rg := range r.Meta().RowGroups {
			page, err := r.ReadRowGroup(rg, cols)
			if err != nil {
				return err
			}
			acc.decodedBytes += page.ByteSize()
		}
		return nil
	})
	if err != nil || r.Meta().Codec == compress.None {
		return err
	}
	return log.timed(parent, "compress.decompress", func() error {
		for _, rg := range r.Meta().RowGroups {
			for _, col := range cols {
				ch := rg.Chunks[col]
				raw, err := compress.Decode(r.Meta().Codec, img[ch.Offset:ch.Offset+ch.CompressedSize])
				if err != nil {
					return err
				}
				acc.decompressedBytes += int64(len(raw))
			}
		}
		return nil
	})
}

// replayArrow times Arrow encoding and decoding of a split's result
// pages, the work the storage node and the connector do per chunk.
func replayArrow(log *spanLog, parent int, pages []*column.Page, acc *replayAcc) error {
	msgs := make([][]byte, len(pages))
	err := log.timed(parent, "arrowlite.encode", func() error {
		for i, p := range pages {
			b, err := arrowlite.AppendBatch(nil, p)
			if err != nil {
				return err
			}
			msgs[i] = b
		}
		return nil
	})
	if err != nil {
		return err
	}
	return log.timed(parent, "arrowlite.decode", func() error {
		for i, p := range pages {
			if _, err := arrowlite.DecodeBatchMsg(msgs[i], p.Schema); err != nil {
				return err
			}
			acc.values += int64(p.NumRows() * p.NumCols())
		}
		return nil
	})
}

// replayResolver times table resolution inside analyzer.Analyze and
// releases the snapshot pins it took.
type replayResolver struct {
	eng     *engine.Engine
	log     *spanLog
	parent  int
	handles []plan.TableHandle
}

func (r *replayResolver) ResolveTable(catalog, table string) (plan.TableHandle, error) {
	id := r.log.start(r.parent, "connector.resolve")
	h, err := r.eng.ResolveTable(catalog, table)
	r.log.end(id)
	if err == nil {
		r.handles = append(r.handles, h)
	}
	return h, err
}

func (r *replayResolver) release() {
	for _, h := range r.handles {
		if s, ok := h.(engine.SnapshotHandle); ok {
			s.ReleaseSnapshot()
		}
	}
}

// ledger derives the replay metrics: per-query self time by layer, the
// unattributed share of each query root, and the isolated layer rates.
func ledger(spans []span, acc *replayAcc) map[string]metric {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	var rootTotal, rootSelf time.Duration
	for _, s := range spans {
		switch s.Name {
		case "query":
			rootTotal += s.dur()
			rootSelf += self[s.ID]
		case "replay":
		default:
			sum[s.Name] += self[s.ID]
		}
	}
	q := float64(acc.queries)
	ms := func(name string) float64 { return ratio(float64(sum[name])/float64(time.Millisecond), q) }
	decode, decompress := sum["parquetlite.decode"], sum["compress.decompress"]
	dec := sum["arrowlite.decode"]
	v := map[string]metric{
		"ledger.unattributed_pct":              {100 * ratio(float64(rootSelf), float64(rootTotal)), "%"},
		"metastore.get_pinned_us":              {ratio(float64(sum["metastore.get_pinned"])/float64(time.Microsecond), q), "us"},
		"substrait.marshal_us":                 {ratio(float64(sum["substrait.marshal"])/float64(time.Microsecond), float64(acc.plans)), "us"},
		"substrait.plan_bytes":                 {ratio(float64(acc.planBytes), float64(acc.plans)), "bytes"},
		"ocsserver.exec_local_ms":              {ms("ocsserver.exec_local"), "ms"},
		"parquetlite.decode_ms_per_query":      {ms("parquetlite.decode"), "ms"},
		"parquetlite.decode_mib_per_s":         {ratio(mib(acc.decodedBytes), decode.Seconds()), "MiB/s"},
		"compress.decompress_mib_per_s":        {ratio(mib(acc.decompressedBytes), decompress.Seconds()), "MiB/s"},
		"arrowlite.encode_ms_per_query":        {ms("arrowlite.encode"), "ms"},
		"arrowlite.decode_ms_per_query":        {ms("arrowlite.decode"), "ms"},
		"arrowlite.decode_ns_per_value":        {ratio(float64(dec), float64(acc.values)), "ns"},
		"arrowlite.stream_decode_ms_per_query": {ratio(float64(acc.streamDecode)/float64(time.Millisecond), q), "ms"},
	}
	for _, l := range queryLayers {
		var t time.Duration
		for name, d := range sum {
			if strings.HasPrefix(name, l+".") && !isolated[name] {
				t += d
			}
		}
		v["ledger.self_ms."+l] = metric{ratio(float64(t)/float64(time.Millisecond), q), "ms"}
	}
	return v
}

// queryLayers are the layers on a replayed query's path.
var queryLayers = []string{"sqlparser", "analyzer", "connector", "optimizer", "ocs", "substrait", "rpc"}

// isolated names the spans recorded under "replay" roots.
var isolated = map[string]bool{"metastore.get_pinned": true, "ocsserver.exec_local": true, "parquetlite.decode": true, "compress.decompress": true, "arrowlite.encode": true, "arrowlite.decode": true}

// printLedger prints self time per layer and span name per replayed
// query.
func printLedger(workload string, spans []span, acc *replayAcc) {
	self := selfTimes(spans)
	byName := map[string]time.Duration{}
	count := map[string]int{}
	queries := 0
	for _, s := range spans {
		if s.Name == "query" {
			queries++
		}
		byName[s.Name] += self[s.ID]
		count[s.Name]++
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	fmt.Printf("# ledger %s: self time per replayed query (%d queries); \"query\" is the unattributed remainder\n", workload, queries)
	if acc.bloomless > 0 {
		fmt.Printf("# note: %d of %d replayed queries are joins, replayed WITHOUT the bloom filter the measured run pushes into the probe scan\n", acc.bloomless, queries)
	}
	for _, n := range names {
		where := "query path"
		if isolated[n] || n == "replay" {
			where = "isolated replay"
		}
		fmt.Printf("%-28s %10.3f ms  calls %6d  %s\n", n, float64(byName[n])/float64(time.Millisecond)/float64(max(queries, 1)), count[n], where)
	}
}

// dumpSpans writes the spans out, times relative to the first start.
func dumpSpans(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	type rec struct {
		ID, Parent, Query int
		Name              string
		StartNs, EndNs    int64
	}
	out := make([]rec, len(spans))
	for i, s := range spans {
		out[i] = rec{s.ID, s.Parent, s.Query, s.Name, s.Start.Sub(t0).Nanoseconds(), s.End.Sub(t0).Nanoseconds()}
	}
	body, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

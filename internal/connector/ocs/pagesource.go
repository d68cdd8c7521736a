package ocs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/parquetlite"
	"prestocs/internal/plan"
	"prestocs/internal/retry"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// Connector is the Presto-OCS connector instance for one catalog.
type Connector struct {
	catalog string
	meta    *metastore.Metastore
	client  *ocsserver.Client
	policy  *Policy
	// ingester, when attached, enables the write path (engine.Ingest)
	// on this catalog.
	ingester *ingest.Ingester
}

// New creates a connector bound to a metastore and an OCS frontend.
func New(catalog string, meta *metastore.Metastore, client *ocsserver.Client) *Connector {
	return &Connector{
		catalog: catalog,
		meta:    meta,
		client:  client,
		policy:  NewPolicy(costmodel.Default()),
	}
}

// Name implements engine.Connector.
func (c *Connector) Name() string { return c.catalog }

// Policy returns the connector's adaptive pushdown policy; register it
// with the engine via AddEventListener so finished queries feed its
// plan-time advice.
func (c *Connector) Policy() *Policy { return c.policy }

// SetMetrics binds the adaptive policy's decision/flip/load series to a
// registry; call before serving queries.
func (c *Connector) SetMetrics(reg *telemetry.Registry) {
	c.policy.SetMetrics(reg)
}

// TableHandle implements engine.Connector. The handle pins the metastore
// snapshot it resolved, freezing the object set a racing ingest or
// compaction could otherwise mutate out from under the scan; the engine
// releases the pin when the query finishes (see Handle.ReleaseSnapshot).
func (c *Connector) TableHandle(schema, table string) (plan.TableHandle, error) {
	t, pin, err := c.meta.GetPinned(schema, table)
	if err != nil {
		return nil, err
	}
	return &Handle{Table: t, pin: pin}, nil
}

// Splits implements engine.Connector: one split per object.
func (c *Connector) Splits(handle plan.TableHandle) ([]engine.Split, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("ocs: foreign handle %T", handle)
	}
	splits := make([]engine.Split, len(h.Table.Objects))
	for i, obj := range h.Table.Objects {
		splits[i] = engine.Split{Object: obj, Index: i}
	}
	return splits, nil
}

// PlanOptimizer implements engine.Connector.
func (c *Connector) PlanOptimizer() engine.ConnectorPlanOptimizer {
	return &localOptimizer{conn: c}
}

// CreatePageSource implements engine.Connector: the paper's
// PageSourceProvider. With a pushdown spec it reconstructs the extracted
// operators as a Substrait plan, ships it to OCS over RPC and
// deserializes the Arrow result; without one it uses the raw-scan path
// (whole-object GET with local scanning). When pushdown execution fails
// transiently even after the client's retries, the source degrades to
// the raw-scan path too — the paper's no-pushdown configuration — and
// records the fallback in the scan stats.
func (c *Connector) CreatePageSource(ctx context.Context, handle plan.TableHandle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("ocs: foreign handle %T", handle)
	}
	if h.Push == nil || h.Push.Empty() {
		return c.rawSource(ctx, h, split, stats)
	}
	return c.pushdownSource(ctx, h, split, stats)
}

// CreatePageSourceDecided implements engine.AdaptiveConnector: it opens
// the split on the path DecideSplit selected. A raw decision on a
// pushdown handle runs the pushed operators locally over a whole-object
// GET (the replay path), so the residual plan sees the same schema
// either way.
func (c *Connector) CreatePageSourceDecided(ctx context.Context, handle plan.TableHandle, split engine.Split, dec engine.SplitDecision, stats *engine.ScanStats) (exec.Operator, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("ocs: foreign handle %T", handle)
	}
	if h.Push == nil || h.Push.Empty() {
		return c.rawSource(ctx, h, split, stats)
	}
	if !dec.Pushdown {
		return c.adaptiveRawSource(ctx, h, split, stats)
	}
	return c.pushdownSource(ctx, h, split, stats)
}

// pushdownSource opens the in-storage execution path for one split.
func (c *Connector) pushdownSource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	// The scan span covers this split's whole pushdown lifetime; its
	// children are the Table-3 stages (Substrait generation, stream open)
	// and its accumulated durations the per-chunk transfer waits and
	// Arrow deserialize time. It ends when the source is exhausted or
	// closed.
	ctx, scanSpan := telemetry.StartSpan(ctx, "connector.scan")
	scanSpan.SetAttr("object", split.Object)

	// Translate the extracted operators into Substrait IR (timed for
	// Table 3).
	start := time.Now()
	_, genSpan := telemetry.StartSpan(ctx, "connector.substrait_gen")
	irPlan, err := BuildSubstrait(h, split.Object)
	if err != nil {
		genSpan.End()
		scanSpan.End()
		return nil, err
	}
	if _, err := irPlan.Validate(); err != nil {
		genSpan.End()
		scanSpan.End()
		return nil, fmt.Errorf("ocs: generated invalid Substrait plan: %w", err)
	}
	genSpan.End()
	stats.AddSubstraitGen(time.Since(start))

	// Open the result stream: residual operators start consuming batch 1
	// while the storage node is still scanning later row groups. Transfer
	// time is charged only while blocked waiting on storage (stream open
	// plus per-batch waits), so the Table 3 breakdown keeps its meaning
	// under overlap.
	start = time.Now()
	openCtx, openSpan := telemetry.StartSpan(ctx, "connector.stream_open")
	rs, err := c.client.ExecuteStream(openCtx, irPlan)
	openSpan.End()
	if err != nil {
		if h.Push.Bloom != nil && bloomRejected(err) && ctx.Err() == nil {
			// The node refused the filter (size cap), not the plan: retry
			// the same split without the bloom and re-apply it engine-side,
			// so the join still probes a pre-filtered stream.
			scanSpan.Event("bloom-rejected", err.Error())
			scanSpan.End()
			stats.AddJoinBloomRejected()
			src, serr := c.pushdownSource(ctx, h.withoutBloom(), split, stats)
			if serr != nil {
				return nil, serr
			}
			return exec.NewBloomProbe(src, h.Push.Bloom.Column, h.Push.Bloom.Filter, nil, nil)
		}
		if retry.Transient(err) && ctx.Err() == nil {
			scanSpan.Event("pushdown-fallback", err.Error())
			src, ferr := c.fallbackSource(ctx, h, split, stats, 0)
			scanSpan.End()
			return src, ferr
		}
		scanSpan.End()
		return nil, fmt.Errorf("ocs: executing pushdown for %s: %w", split.Object, err)
	}
	if h.Push.Bloom != nil {
		stats.AddJoinBloomSplit()
	}
	stats.AddTransfer(time.Since(start))
	return &streamSource{
		ctx: ctx, conn: c, h: h, split: split, span: scanSpan,
		rs: rs, schema: h.ScanSchema(), stats: stats, object: split.Object,
	}, nil
}

// bloomRejected classifies a stream-open failure as the storage node
// refusing the attached bloom filter: a permanent invalid-plan code
// whose message names the filter. Plain invalid-plan errors (a
// connector bug) must not retry.
func bloomRejected(err error) bool {
	return errors.Is(err, rpc.ErrInvalid) && strings.Contains(err.Error(), "bloom")
}

// streamSource adapts an OCS result stream to an exec.Operator. It
// accounts bytes moved, transfer-blocked time, deserialize work and
// storage-side stats incrementally as chunks land, and implements Close
// so the engine can release the stream when a pipeline stops early.
// When the stream dies transiently mid-flight it degrades to the
// raw-scan fallback, replaying the pushed operators locally and skipping
// the rows already delivered (sound only while the pushed pipeline is
// order-deterministic).
type streamSource struct {
	ctx   context.Context
	conn  *Connector
	h     *Handle
	split engine.Split

	rs            *ocsserver.ResultStream
	schema        *types.Schema
	stats         *engine.ScanStats
	span          *telemetry.Span
	object        string
	prevBytes     int64
	prevDecode    time.Duration
	rowsDelivered int64
	fb            exec.Operator
	done          bool
}

func (s *streamSource) Schema() *types.Schema { return s.schema }

func (s *streamSource) Next() (*column.Page, error) {
	if s.fb != nil {
		page, err := s.fb.Next()
		if page == nil {
			s.span.End()
		}
		return page, err
	}
	if s.done {
		return nil, nil
	}
	// Adaptive mid-stream flip: with storage saturated and the delivered
	// rows already pricing the pushdown out, abandon the stream and resume
	// on the local replay path (order-deterministic pipelines only; the
	// replay skips the rows already delivered). The replay is built before
	// the stream is released so a replay failure just keeps streaming.
	if s.rowsDelivered > 0 && s.conn.policy.ShouldFlip(s.h, s.rowsDelivered) {
		if fb, err := s.conn.adaptiveReplaySource(s.ctx, s.h, s.split, s.stats, s.rowsDelivered); err == nil {
			s.rs.Close()
			s.done = true
			s.fb = fb
			s.stats.AddAdaptiveFlip()
			s.conn.policy.noteFlip()
			s.span.Event("adaptive-flip", fmt.Sprintf("after %d rows", s.rowsDelivered))
			return s.fb.Next()
		}
	}
	start := time.Now()
	page, err := s.rs.Next()
	stats := s.stats
	wall := time.Since(start)
	stats.AddTransfer(wall)
	// Split the wait between the wire and the decoder for the span: the
	// stats charge the whole wall as transfer (established Table-3
	// semantics), the span separates the deserialize share.
	decode := s.rs.DecodeTime() - s.prevDecode
	s.prevDecode = s.rs.DecodeTime()
	s.span.AddDuration("transfer_wait", wall-decode)
	s.span.AddDuration("arrow_deserialize", decode)
	s.accountBytes()
	// Every frame carries the node's scan backlog: feed the policy's
	// storage-load estimate.
	s.conn.policy.ObserveLoad(s.rs.Load())
	if err == io.EOF {
		s.done = true
		stats.AddStorageWork(s.rs.Stats())
		s.conn.policy.ObserveSplit(s.h, s.rowsDelivered)
		s.span.End()
		return nil, nil
	}
	if err != nil {
		if fb, ok := s.tryFallback(err); ok {
			s.fb = fb
			return s.fb.Next()
		}
		s.done = true
		s.span.Event("error", err.Error())
		s.span.End()
		return nil, fmt.Errorf("ocs: pushdown stream for %s: %w", s.object, err)
	}
	if page.NumCols() != s.schema.Len() {
		s.done = true
		s.rs.Close()
		return nil, fmt.Errorf("ocs: result has %d columns, scan schema %s", page.NumCols(), s.schema)
	}
	// Arrow deserialization into engine pages: columnar buffer adoption
	// plus validity expansion (1.5 ingest units/cell, half the CSV text
	// parse cost).
	rows := int64(page.NumRows())
	stats.AddDeserialize(float64(rows)*float64(s.schema.Len())*1.5, rows)
	s.rowsDelivered += rows
	// Present pages under the handle's scan schema (names may differ in
	// case only).
	return &column.Page{Schema: s.schema, Vectors: page.Vectors}, nil
}

// tryFallback decides whether a mid-stream failure can be absorbed by
// the raw-scan path. Requirements: the failure is transient (not a plan
// error, not our own cancellation) and either no rows have been
// delivered yet or the pushed pipeline is order-deterministic, so the
// local replay can skip exactly the rows the engine already consumed.
func (s *streamSource) tryFallback(cause error) (exec.Operator, bool) {
	if s.ctx != nil && s.ctx.Err() != nil {
		return nil, false
	}
	if !retry.Transient(cause) {
		return nil, false
	}
	if s.rowsDelivered > 0 && !s.h.Push.OrderDeterministic() {
		return nil, false
	}
	s.rs.Close()
	s.done = true
	s.span.Event("pushdown-fallback", cause.Error())
	fb, err := s.conn.fallbackSource(s.ctx, s.h, s.split, s.stats, s.rowsDelivered)
	if err != nil {
		s.span.End()
		return nil, false // surface the original stream error instead
	}
	s.conn.policy.ObserveFallback(s.h)
	return fb, true
}

func (s *streamSource) accountBytes() {
	b := s.rs.ArrowBytes()
	if b > s.prevBytes {
		s.stats.AddBytesMoved(b - s.prevBytes)
		s.prevBytes = b
	}
}

// Bounds for the early-stop drain in Close: enough to consume a few
// in-flight chunks plus the end frame when the node has already
// finished, small enough that an actively producing stream is abandoned
// quickly.
const (
	closeDrainChunks  = 32
	closeDrainTimeout = 50 * time.Millisecond
)

// Close releases the stream when a pipeline stops early (a satisfied
// LIMIT). An active fallback operator is closed in place of the — then
// already dead — remote stream. Otherwise Close first attempts a bounded
// drain so the trailer's storage-side stats are flushed into the scan
// stats instead of silently dropped, then accounts bytes received but
// not consumed, keeping the movement meters truthful.
func (s *streamSource) Close() error {
	defer s.span.End()
	if s.fb != nil {
		fb := s.fb
		s.fb = nil
		if c, ok := fb.(interface{ Close() error }); ok {
			return c.Close()
		}
		return nil
	}
	if !s.done {
		s.done = true
		if s.rs.TryDrain(closeDrainChunks, closeDrainTimeout) {
			s.stats.AddStorageWork(s.rs.Stats())
			s.span.Event("drained-on-close", "")
		}
		s.accountBytes()
		return s.rs.Close()
	}
	return nil
}

// rawSource is the no-pushdown path: full object transfer, local scan.
func (c *Connector) rawSource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	start := time.Now()
	getCtx, sp := telemetry.StartSpan(ctx, "connector.raw_get")
	sp.SetAttr("object", split.Object)
	data, work, err := c.client.Get(getCtx, h.Table.Bucket, split.Object)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("ocs: get %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	stats.AddTransfer(time.Since(start))
	stats.AddBytesMoved(int64(len(data)))
	stats.AddStorageWork(work)

	reader, err := parquetlite.NewReader(data) // vet-cache:allow raw path runs engine-side, no node footer cache in reach
	if err != nil {
		return nil, err
	}
	cols := h.Projection
	if cols == nil {
		cols = make([]int, h.Table.Columns.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	scanSchema := h.baseScanSchema()
	rg := 0
	return exec.NewFuncSource(scanSchema, func() (*column.Page, error) {
		if rg >= len(reader.Meta().RowGroups) {
			return nil, nil
		}
		page, err := reader.ReadRowGroup(rg, cols) // vet-pruning:allow raw path pushes no predicate to prune with
		rg++
		if err != nil {
			return nil, err
		}
		stats.AddDeserialize(float64(page.NumRows())*float64(len(cols))*1.5, int64(page.NumRows()))
		return page, nil
	}), nil
}

// fallbackSource is the graceful-degradation path: pushdown execution
// failed after retries, so the connector replays the pushed operators
// locally over a whole-object GET. The degradation is recorded in the
// scan stats so the overhead breakdown still adds up.
func (c *Connector) fallbackSource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats, skipRows int64) (exec.Operator, error) {
	return c.localReplaySource(ctx, h, split, stats, skipRows, "connector.fallback_scan", true)
}

// adaptiveRawSource serves a split the adaptive policy priced off the
// pushdown path at schedule time: same local replay, but not a failure —
// no fallback is recorded.
func (c *Connector) adaptiveRawSource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	return c.localReplaySource(ctx, h, split, stats, 0, "connector.adaptive_raw_scan", false)
}

// adaptiveReplaySource resumes a split mid-stream after an adaptive
// flip, skipping the rows the abandoned stream already delivered.
func (c *Connector) adaptiveReplaySource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats, skipRows int64) (exec.Operator, error) {
	return c.localReplaySource(ctx, h, split, stats, skipRows, "connector.adaptive_raw_scan", false)
}

// localReplaySource is the shared raw-with-pushdown path: the connector
// fetches the whole object (the GET path is served even when a node's
// computational unit is down) and replays the pushed operators locally
// with the storage node's own compiler (ocsserver.ExecuteLocalStream),
// producing bit-identical pages. The replay streams — the residual plan
// pulls pages as the local scan produces them, the same overlap the raw
// no-pushdown path gets, instead of materializing the whole split before
// the first page. skipRows drops rows a dead or abandoned stream already
// delivered; callers only pass a nonzero skip when the pushed pipeline
// is order-deterministic. The full object counts as bytes moved, and the
// local replay's CPU is charged as compute-side deserialize work;
// markFallback additionally records the split as a pushdown failure.
func (c *Connector) localReplaySource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats, skipRows int64, spanName string, markFallback bool) (exec.Operator, error) {
	start := time.Now()
	ctx, sp := telemetry.StartSpan(ctx, spanName)
	defer sp.End()
	sp.SetAttr("object", split.Object)
	data, work, err := c.client.Get(ctx, h.Table.Bucket, split.Object)
	if err != nil {
		return nil, fmt.Errorf("ocs: fallback get %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	stats.AddTransfer(time.Since(start))
	stats.AddBytesMoved(int64(len(data)))
	stats.AddStorageWork(work)
	if markFallback {
		stats.AddFallback()
	}

	irPlan, err := BuildSubstrait(h, split.Object)
	if err != nil {
		return nil, err
	}
	local := objstore.NewStore()
	local.Put(h.Table.Bucket, split.Object, data)
	ls, err := ocsserver.ExecuteLocalStream(local, irPlan, 0)
	if err != nil {
		return nil, fmt.Errorf("ocs: fallback scan %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	return &replayStream{
		schema: h.ScanSchema(), ls: ls, conn: c, h: h,
		stats: stats, skipRows: skipRows, object: split.Object,
	}, nil
}

// replayStream adapts a lazily-drained local execution to the page-source
// contract: per-page skip accounting for mid-stream resume, schema
// normalization, and the end-of-stream bookkeeping the eager path did up
// front — replay CPU charged as compute-side work and the split's full
// output fed to the policy as a selectivity observation (only on a
// complete drain; an abandoned replay has not seen the whole split).
type replayStream struct {
	schema   *types.Schema
	ls       *ocsserver.LocalStream
	conn     *Connector
	h        *Handle
	stats    *engine.ScanStats
	object   string
	skipRows int64
	rows     int64
	finished bool
}

func (r *replayStream) Schema() *types.Schema { return r.schema }

func (r *replayStream) Next() (*column.Page, error) {
	for {
		page, err := r.ls.Next()
		if err != nil {
			r.finish(false)
			return nil, fmt.Errorf("ocs: fallback scan %s: %w", r.object, err)
		}
		if page == nil {
			r.finish(true)
			return nil, nil
		}
		rows := int64(page.NumRows())
		r.rows += rows
		if r.skipRows >= rows {
			r.skipRows -= rows
			continue
		}
		if r.skipRows > 0 {
			page = page.Slice(int(r.skipRows), page.NumRows())
			r.skipRows = 0
		}
		if page.NumCols() != r.schema.Len() {
			r.finish(false)
			return nil, fmt.Errorf("ocs: fallback result has %d columns, scan schema %s", page.NumCols(), r.schema)
		}
		r.stats.AddDeserialize(0, int64(page.NumRows()))
		return &column.Page{Schema: r.schema, Vectors: page.Vectors}, nil
	}
}

// Close releases the local execution when the pipeline stops early.
func (r *replayStream) Close() error {
	r.finish(false)
	return nil
}

func (r *replayStream) finish(complete bool) {
	if r.finished {
		return
	}
	r.finished = true
	r.ls.Close()
	// The replay ran on engine cores, not in storage: charge its CPU as
	// compute-side work.
	r.stats.AddDeserialize(r.ls.Work().CPUUnits, 0)
	if complete {
		r.conn.policy.ObserveSplit(r.h, r.rows)
	}
}

// BuildSubstrait reconstructs the handle's pushdown spec as a Substrait
// plan over one object — the connector's SQL→Substrait translation
// (§3.4 step 3). Exported for the overhead breakdown benchmark.
func BuildSubstrait(h *Handle, object string) (*substrait.Plan, error) {
	var rel substrait.Rel = &substrait.ReadRel{
		Bucket:     h.Table.Bucket,
		Object:     object,
		BaseSchema: h.Table.Columns,
		Projection: h.Projection,
	}
	p := h.Push
	if p.Filter != nil {
		rel = &substrait.FilterRel{Input: rel, Condition: p.Filter}
	}
	if p.Bloom != nil {
		// Above the filter (preserving the filter-on-read pruning fusion)
		// and below any column narrowing, so the key ordinal is still in
		// projected-base-schema space.
		rel = &substrait.BloomFilterRel{
			Input:   rel,
			Column:  bloomBaseColumn(h),
			NumHash: p.Bloom.Filter.NumHash(),
			Bits:    p.Bloom.Filter.Bits(),
		}
	}
	if p.OutputCols != nil && p.Project == nil && p.Agg == nil {
		// Drop columns only the pushed filter needed: a plain column
		// projection executed in-storage after the filter.
		scanSchema := h.baseScanSchema()
		exprs := make([]expr.Expr, len(p.OutputCols))
		names := make([]string, len(p.OutputCols))
		for i, c := range p.OutputCols {
			col := scanSchema.Columns[c]
			exprs[i] = expr.Col(c, col.Name, col.Type)
			names[i] = col.Name
		}
		rel = &substrait.ProjectRel{Input: rel, Expressions: exprs, Names: names}
	}
	if p.Project != nil {
		rel = &substrait.ProjectRel{Input: rel, Expressions: p.Project.Expressions, Names: p.Project.Names}
	}
	if p.Agg != nil {
		rel = &substrait.AggregateRel{Input: rel, GroupKeys: p.Agg.Keys, Measures: p.Agg.Measures}
	}
	if p.FinalProject != nil {
		rel = &substrait.ProjectRel{Input: rel, Expressions: p.FinalProject.Expressions, Names: p.FinalProject.Names}
	}
	if p.TopN != nil {
		keys := make([]substrait.SortKey, len(p.TopN.Keys))
		for i, k := range p.TopN.Keys {
			keys[i] = substrait.SortKey{Column: k.Column, Descending: k.Descending}
		}
		rel = &substrait.FetchRel{
			Input: &substrait.SortRel{Input: rel, Keys: keys},
			Count: p.TopN.Count,
		}
	}
	if p.Limit > 0 {
		rel = &substrait.FetchRel{Input: rel, Count: p.Limit}
	}
	return substrait.NewPlan(rel), nil
}

// bloomBaseColumn maps the bloom key ordinal (scan output schema) down
// to the pipeline position the BloomFilterRel occupies, below any
// OutputCols narrowing. WithJoinBloom declines schema-rebuilding
// pushdowns, so OutputCols is the only mapping in play.
func bloomBaseColumn(h *Handle) int {
	col := h.Push.Bloom.Column
	if h.Push.OutputCols != nil && h.Push.Project == nil && h.Push.Agg == nil {
		return h.Push.OutputCols[col]
	}
	return col
}

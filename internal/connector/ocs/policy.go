package ocs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/plan"
	"prestocs/internal/telemetry"
)

// This file is the connector's single pushdown decision point. The
// vet-adaptive gate bans constructing engine.SplitDecision anywhere else
// in the connector, so plan-time advice (AdvisePlanPushdown), per-split
// pricing (DecideSplit) and mid-stream flips (ShouldFlip) cannot drift
// apart across files.

// Policy defaults.
const (
	// defaultMaxShapes bounds the per-(table, predicate-shape) history;
	// least-recently-touched shapes are evicted past it.
	defaultMaxShapes = 128
	// selEWMAAlpha weights a new per-split selectivity observation into
	// the shape's running estimate.
	selEWMAAlpha = 0.3
	// loadEWMAAlpha weights a new storage-backlog observation (one per
	// stream chunk) into the running load estimate. Load moves faster
	// than selectivity, so it gets the heavier weight.
	loadEWMAAlpha = 0.4
	// DefaultLoadCutoff is the storage-backlog EWMA below which mid-query
	// flips are not considered: repricing an already-flowing stream is
	// only worth it when storage is visibly saturated.
	DefaultLoadCutoff = 4
	// DefaultFlipMargin is how many times cheaper the raw path must price
	// before an in-flight pushdown stream is abandoned mid-query; the
	// flip repeats the object GET, so it needs clear headroom.
	DefaultFlipMargin = 1.5
)

// shapeHistory is the observed runtime behavior of one (table,
// predicate-shape) pair.
type shapeHistory struct {
	selectivity float64 // EWMA of output rows / input rows per split
	samples     int64
	fallbacks   int64
}

// Policy prices pushdown vs raw scan per split from three inputs: the
// cost model's hardware profile (Table 1), the observed per-shape
// selectivity history, and the live storage-load signal piggybacked on
// stream RPC frames. It is also the connector's engine.EventListener:
// finished queries feed the plan-time advice (AdvisePlanPushdown).
type Policy struct {
	params costmodel.Params

	mu        sync.Mutex
	shapes    map[string]*shapeHistory
	order     []string // LRU, least recently touched first
	maxShapes int
	queries   int64
	successes int64
	loadEWMA  float64
	metrics   *telemetry.Registry
}

// NewPolicy creates a policy pricing with the given hardware profile.
func NewPolicy(params costmodel.Params) *Policy {
	return &Policy{
		params:    params,
		shapes:    make(map[string]*shapeHistory),
		maxShapes: defaultMaxShapes,
	}
}

// SetMetrics mirrors decisions, flips, load and per-shape selectivity
// into reg as the ocs_pushdown_* / ocs_storage_load series.
func (p *Policy) SetMetrics(reg *telemetry.Registry) {
	p.mu.Lock()
	p.metrics = reg
	p.mu.Unlock()
}

func (p *Policy) metricsReg() *telemetry.Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// AdvisePlanPushdown is the plan-time feedback loop: once enough queries
// have run, a low success rate (e.g. a flaky storage node failing
// pushdown executions) advises auto mode to plan plain scans until
// reliability recovers.
func (p *Policy) AdvisePlanPushdown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.queries < 4 {
		return true
	}
	return 2*p.successes >= p.queries
}

// QueryCompleted implements engine.EventListener, feeding one finished
// query's outcome into AdvisePlanPushdown. A query its caller cancelled
// (Query.Kill, a cancelled context) says nothing about storage health and
// is not counted; a deadline error is, since a black-holed node causes
// one.
func (p *Policy) QueryCompleted(ev engine.QueryEvent) {
	if errors.Is(ev.Err, context.Canceled) {
		return
	}
	p.mu.Lock()
	p.queries++
	if ev.Err == nil {
		p.successes++
	}
	p.mu.Unlock()
}

// ObserveLoad folds one storage-backlog word (read off a stream frame)
// into the load estimate.
func (p *Policy) ObserveLoad(load uint32) {
	p.mu.Lock()
	p.loadEWMA = (1-loadEWMAAlpha)*p.loadEWMA + loadEWMAAlpha*float64(load)
	ewma := p.loadEWMA
	reg := p.metrics
	p.mu.Unlock()
	reg.Gauge(telemetry.MetricStorageLoad).Set(int64(ewma + 0.5))
}

// LoadEWMA returns the current storage-backlog estimate.
func (p *Policy) LoadEWMA() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loadEWMA
}

// ObserveSplit records one finished split's actual selectivity: rows the
// pushed pipeline produced over rows the split holds. Static modes
// observe too, so history is warm when a session switches to auto.
func (p *Policy) ObserveSplit(h *Handle, rowsDelivered int64) {
	rowsIn := rowsPerSplit(h)
	if rowsIn <= 0 || h.Push == nil || h.Push.Empty() {
		return
	}
	sel := float64(rowsDelivered) / rowsIn
	if sel > 1 {
		sel = 1
	}
	key := predicateShape(h)
	p.mu.Lock()
	sh := p.touchLocked(key)
	if sh.samples == 0 {
		sh.selectivity = sel
	} else {
		sh.selectivity = (1-selEWMAAlpha)*sh.selectivity + selEWMAAlpha*sel
	}
	sh.samples++
	reg := p.metrics
	p.mu.Unlock()
	reg.Histogram(telemetry.MetricPushdownShapeSelectivity, "shape", key).Observe(int64(sel * 100))
}

// ObserveFallback records that a split of this shape degraded from
// pushdown to the raw path.
func (p *Policy) ObserveFallback(h *Handle) {
	key := predicateShape(h)
	p.mu.Lock()
	p.touchLocked(key).fallbacks++
	p.mu.Unlock()
}

// ShapeSelectivity returns the observed selectivity EWMA for the
// handle's shape and whether any samples exist.
func (p *Policy) ShapeSelectivity(h *Handle) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sh, ok := p.shapes[predicateShape(h)]; ok && sh.samples > 0 {
		return sh.selectivity, true
	}
	return 0, false
}

// Shapes returns the number of retained shape histories.
func (p *Policy) Shapes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.shapes)
}

// touchLocked returns the history for key, creating it (and evicting the
// least-recently-touched shape past maxShapes) as needed. Caller holds
// p.mu.
func (p *Policy) touchLocked(key string) *shapeHistory {
	if sh, ok := p.shapes[key]; ok {
		for i, k := range p.order {
			if k == key {
				p.order = append(p.order[:i], p.order[i+1:]...)
				break
			}
		}
		p.order = append(p.order, key)
		return sh
	}
	if len(p.shapes) >= p.maxShapes && len(p.order) > 0 {
		evict := p.order[0]
		p.order = p.order[1:]
		delete(p.shapes, evict)
	}
	sh := &shapeHistory{}
	p.shapes[key] = sh
	p.order = append(p.order, key)
	return sh
}

// decide prices one split both ways and picks the cheaper path.
func (p *Policy) decide(h *Handle) engine.SplitDecision {
	sel, source := p.selectivity(h)
	pushCost, rawCost := p.price(h, sel, p.loadPerWorker())
	dec := engine.SplitDecision{Pushdown: pushCost <= rawCost, Reason: source}
	choice := "raw"
	if dec.Pushdown {
		choice = "pushdown"
	}
	p.metricsReg().Counter(telemetry.MetricPushdownDecisions, "choice", choice).Inc()
	return dec
}

// ShouldFlip reprices an in-flight pushdown stream against what it has
// actually delivered so far. A flip abandons the stream and replays the
// pushed operators locally, skipping delivered rows — sound only for
// order-deterministic pipelines (the PR 2 resume invariant) — so it
// needs saturated storage (load cutoff) and clear pricing headroom
// (flip margin) before triggering.
func (p *Policy) ShouldFlip(h *Handle, rowsDelivered int64) bool {
	if h.Adaptive == nil || h.Push == nil || h.Push.Empty() {
		return false
	}
	if !h.Push.OrderDeterministic() || rowsDelivered <= 0 {
		return false
	}
	rowsIn := rowsPerSplit(h)
	if rowsIn <= 0 {
		return false
	}
	p.mu.Lock()
	load := p.loadEWMA
	p.mu.Unlock()
	if load < h.Adaptive.LoadCutoff {
		return false
	}
	// Rows delivered so far is a lower bound on the split's selectivity;
	// with storage saturated and even the lower bound pricing pushdown
	// out, the stream is not worth finishing.
	sel := float64(rowsDelivered) / rowsIn
	if sel > 1 {
		sel = 1
	}
	pushCost, rawCost := p.price(h, sel, p.loadPerWorkerAt(load))
	return rawCost.Seconds()*h.Adaptive.FlipMargin < pushCost.Seconds()
}

// noteFlip counts one executed mid-stream flip.
func (p *Policy) noteFlip() {
	p.metricsReg().Counter(telemetry.MetricPushdownFlips).Inc()
}

// selectivity resolves the expected fraction of rows the pushed pipeline
// keeps: observed shape history first, the planner's estimate second, an
// agnostic 0.5 otherwise. A join bloom filter scales the plan-time
// priors by its own estimate (build keys over probe NDV); history needs
// no scaling because the shape key already includes the bloom marker,
// so bloom-filtered splits accumulate their own observations.
func (p *Policy) selectivity(h *Handle) (float64, string) {
	p.mu.Lock()
	sh, ok := p.shapes[predicateShape(h)]
	if ok && sh.samples > 0 {
		sel := sh.selectivity
		p.mu.Unlock()
		return sel, "history"
	}
	p.mu.Unlock()
	sel, source := 0.5, "default"
	if h.Push != nil && h.Push.EstSelectivity > 0 {
		sel, source = h.Push.EstSelectivity, "prior"
	}
	if h.Push != nil && h.Push.Bloom != nil && h.Push.Bloom.EstSelectivity > 0 {
		sel *= h.Push.Bloom.EstSelectivity
		source += "+bloom"
	}
	return sel, source
}

// loadPerWorker converts the backlog EWMA into queueing depth per
// storage scan worker: 0 = idle, 1 = every worker has one task waiting
// behind its current one, and so on.
func (p *Policy) loadPerWorker() float64 {
	p.mu.Lock()
	load := p.loadEWMA
	p.mu.Unlock()
	return p.loadPerWorkerAt(load)
}

func (p *Policy) loadPerWorkerAt(load float64) float64 {
	workers := costmodel.StorageScanParallelism()
	if workers < 1 {
		workers = 1
	}
	return load / float64(workers)
}

// price models one split both ways with the cost-model hardware profile
// (Table 1). The pushdown side charges the storage scan at the slow
// storage cores inflated by the observed queueing depth, then moves and
// ingests only the surviving rows; the raw side moves the whole object
// and charges the scan (and full-width ingest) to the fast compute
// cores. This is PushdownDB's pricing argument with live inputs.
func (p *Policy) price(h *Handle, sel, loadPerWorker float64) (pushCost, rawCost time.Duration) {
	rowsIn := rowsPerSplit(h)
	objBytes := bytesPerSplit(h)
	widthIn := float64(h.baseScanSchema().Len())
	widthOut := float64(h.ScanSchema().Len())
	scanUnits := rowsIn * widthIn * 2.0 // decode + predicate per cell
	if h.Push != nil && h.Push.Bloom != nil {
		// Bloom evaluation runs on the storage cores: one hash chain plus
		// NumHash membership probes per scanned row.
		scanUnits += rowsIn * float64(1+h.Push.Bloom.Filter.NumHash())
	}

	pushM := costmodel.Measured{
		StorageBytesRead: int64(objBytes),
		StorageCPUUnits:  scanUnits * (1 + loadPerWorker),
		BytesMoved:       int64(sel * rowsIn * widthOut * 8),
		IngestUnits:      sel * rowsIn * widthOut * 1.5,
		RoundTrips:       1,
	}
	rawM := costmodel.Measured{
		StorageBytesRead: int64(objBytes),
		BytesMoved:       int64(objBytes),
		ComputeCPUUnits:  scanUnits,
		IngestUnits:      rowsIn * widthIn * 1.5,
		RoundTrips:       1,
	}
	return p.params.Model(pushM).Total, p.params.Model(rawM).Total
}

// rowsPerSplit estimates the rows one split (object) holds.
func rowsPerSplit(h *Handle) float64 {
	n := len(h.Table.Objects)
	if n == 0 {
		n = 1
	}
	return float64(h.Table.RowCount) / float64(n)
}

// bytesPerSplit estimates the stored bytes one split holds.
func bytesPerSplit(h *Handle) float64 {
	n := len(h.Table.Objects)
	if n == 0 {
		n = 1
	}
	return float64(h.Table.TotalBytes) / float64(n)
}

// predicateShape keys the history: table identity, pushed operator set
// and the structural rendering of the pushed filter (operators and
// column ordinals, literals erased — `x < 10` and `x < 90` share a
// shape, so one sweep warms the other's history).
func predicateShape(h *Handle) string {
	var b strings.Builder
	b.WriteString(h.Table.QualifiedName())
	if h.Push != nil {
		b.WriteString("|")
		b.WriteString(strings.Join(h.Push.Operators(), "+"))
		if h.Push.Filter != nil {
			b.WriteString("|")
			b.WriteString(exprShape(h.Push.Filter))
		}
	}
	return b.String()
}

// exprShape renders an expression's structure with literals erased.
func exprShape(e expr.Expr) string {
	switch t := e.(type) {
	case *expr.Logic:
		op := "or"
		if t.Op == expr.And {
			op = "and"
		}
		return "(" + exprShape(t.L) + " " + op + " " + exprShape(t.R) + ")"
	case *expr.Not:
		return "not(" + exprShape(t.E) + ")"
	case *expr.Between:
		return "between(" + exprShape(t.E) + ")"
	case *expr.Compare:
		return fmt.Sprintf("cmp%v(%s,%s)", t.Op, exprShape(t.L), exprShape(t.R))
	case *expr.ColumnRef:
		return fmt.Sprintf("c%d", t.Index)
	case *expr.Literal:
		return "?"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// DecideSplit implements engine.AdaptiveConnector: the one per-split
// decision point. Static pushdown modes (and pushdown-free plans) pass
// through unchanged so the paper's fixed configurations stay exactly
// reproducible; auto-mode handles carry AdaptiveParams and are priced
// against history and live load.
func (c *Connector) DecideSplit(handle plan.TableHandle, split engine.Split, stats *engine.ScanStats) engine.SplitDecision {
	h, ok := handle.(*Handle)
	if !ok || h.Push == nil || h.Push.Empty() {
		return engine.SplitDecision{Pushdown: false, Reason: "no-pushdown"}
	}
	if h.Adaptive == nil {
		return engine.SplitDecision{Pushdown: true, Reason: "static"}
	}
	dec := c.policy.decide(h)
	stats.AddSplitDecision(dec.Pushdown)
	return dec
}

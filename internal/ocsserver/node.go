package ocsserver

import (
	"context"
	"fmt"
	"sync"

	"prestocs/internal/arrowlite"
	"prestocs/internal/cache"
	"prestocs/internal/column"
	"prestocs/internal/objstore"
	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// RPC methods exposed by a storage node (frontend-facing).
const (
	NodeMethodExecute = "ocsnode.Execute"
	NodeMethodPut     = "ocsnode.Put"
	NodeMethodGet     = "ocsnode.Get"
	NodeMethodDelete  = "ocsnode.Delete"
)

// StorageNode holds objects and executes Substrait plans with the
// embedded SQL engine. In the paper this is the resource-constrained
// 16-core node; the cost model prices the WorkStats it reports with that
// profile.
type StorageNode struct {
	ID    int
	store *objstore.Store
	rpc   *rpc.Server

	// ScanPool sizes the row-group scan worker pool; 0 selects the
	// cost-model storage-node core count, 1 forces sequential scans.
	// Set before the first query.
	ScanPool int
	// ChunkRows coalesces result pages until a stream chunk carries at
	// least this many rows; 0 streams one Arrow batch per row group.
	// Clients may override per query via the execute-request envelope.
	// Set before the first query.
	ChunkRows int
	// StreamWindow bounds unacknowledged stream chunks per query (the
	// credit window): a slow reader stalls the producer after this many
	// chunks instead of buffering the scan in node memory. 0 selects
	// rpc.DefaultStreamWindow, negative disables backpressure. Set
	// before Listen.
	StreamWindow int

	// Metrics receives transport, chunk-throughput and scan-pool metrics;
	// Tracer continues traces arriving in request headers, covering the
	// node's execute handler and per-row-group scans. Both are optional
	// and must be set before Listen.
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer

	// Caches holds the node's footer and hot-page caches (DESIGN.md §6).
	// NewStorageNode installs defaults; replace (or nil out) before the
	// first query to resize or disable. Listen binds its counters to
	// Metrics under this node's label.
	Caches *cache.Storage

	// MaxBloomBytes caps the bloom-filter bit arrays a pushed plan may
	// attach (per BloomFilterRel). Oversize filters are refused with an
	// invalid-plan error — the engine strips the filter and retries rather
	// than shipping megabytes of bits to every split. 0 selects
	// DefaultMaxBloomBytes; negative disables the cap. Set before Listen.
	MaxBloomBytes int

	// sched is the node-wide fair-share scan scheduler: one worker pool
	// (sized by the first query's resolved ScanPool) round-robining
	// row-group tasks across all active queries, so a heavy scan cannot
	// starve small selective ones.
	sched *scanScheduler

	faultMu   sync.Mutex
	execFault error
}

// SetExecuteFault injects err as the outcome of every subsequent Execute
// call until cleared with nil. It simulates the computational unit of an
// OCS node being down while the object path (Put/Get/Delete) stays healthy
// — the degradation scenario where the engine must fall back to the
// paper's no-pushdown configuration.
func (n *StorageNode) SetExecuteFault(err error) {
	n.faultMu.Lock()
	n.execFault = err
	n.faultMu.Unlock()
}

func (n *StorageNode) executeFault() error {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	return n.execFault
}

// NewStorageNode creates a node with an empty store and default-sized
// footer and hot-page caches.
func NewStorageNode(id int) *StorageNode {
	n := &StorageNode{
		ID:     id,
		store:  objstore.NewStore(),
		rpc:    rpc.NewServer(),
		Caches: cache.NewStorage(cache.DefaultFooterCacheBytes, cache.DefaultPageCacheBytes),
		sched:  newScanScheduler(), // vet-concurrency:allow the node-wide scheduler, shared by every query
	}
	n.rpc.RegisterStream(NodeMethodExecute, n.handleExecute)
	n.rpc.Register(NodeMethodPut, n.handlePut)
	n.rpc.Register(NodeMethodGet, n.handleGet)
	n.rpc.Register(NodeMethodDelete, n.handleDelete)
	return n
}

// Store exposes the node's local store (for in-process setup in tests).
func (n *StorageNode) Store() *objstore.Store { return n.store }

// Listen binds the node's RPC server.
func (n *StorageNode) Listen(addr string) (string, error) {
	n.rpc.Metrics = n.Metrics
	n.rpc.Tracer = n.Tracer
	n.rpc.StreamWindow = n.StreamWindow
	n.Caches.Instrument(n.Metrics, "node", n.nodeLabel())
	return n.rpc.Listen(addr)
}

// nodeLabel is the metric label value identifying this node.
func (n *StorageNode) nodeLabel() string { return fmt.Sprintf("node%d", n.ID) }

// loadSignal samples the node-wide scan backlog for stamping onto
// outgoing stream frames and mirrors it on the /metrics gauge.
func (n *StorageNode) loadSignal(gauge *telemetry.Gauge) uint32 {
	backlog := n.sched.backlog()
	gauge.Set(int64(backlog))
	return uint32(backlog)
}

// Close shuts the node down: the RPC server first (draining in-flight
// handlers, whose scan queues empty through the scheduler), then the
// scan workers.
func (n *StorageNode) Close() error {
	err := n.rpc.Close()
	n.sched.close()
	return err
}

// DefaultMaxBloomBytes is the bloom bit-array cap applied when
// MaxBloomBytes is zero: 256 KiB holds ~200k build keys at the default
// 10 bits/key, while keeping a degenerate plan from shipping an
// arbitrarily large array per split.
const DefaultMaxBloomBytes = 256 << 10

// checkBloomSize enforces MaxBloomBytes on every BloomFilterRel in the
// plan. The error is CodeInvalid — not transient — so the connector
// retries without the filter instead of falling back off pushdown
// entirely. Only the RPC path enforces the cap: local replay
// (ExecuteLocalStream) runs whatever the engine already committed to.
func (n *StorageNode) checkBloomSize(plan *substrait.Plan) error {
	limit := n.MaxBloomBytes
	if limit == 0 {
		limit = DefaultMaxBloomBytes
	}
	if limit < 0 {
		return nil
	}
	var reject error
	substrait.WalkRels(plan.Root, func(r substrait.Rel) {
		if b, ok := r.(*substrait.BloomFilterRel); ok && len(b.Bits) > limit && reject == nil {
			reject = rpc.WithCode(fmt.Errorf("node %d: bloom filter %d bytes exceeds cap %d", n.ID, len(b.Bits), limit), rpc.CodeInvalid)
		}
	})
	return reject
}

// handleExecute parses a Substrait plan, runs it locally and streams the
// result: chunk 0 is an arrowlite schema message, every further chunk is
// one arrowlite record-batch message, and the end-frame trailer carries
// the work stats. Batches leave the node as the executor produces them,
// so the engine consumes row group 1 while row group N is still being
// scanned. Errors after the first chunk surface as mid-stream error
// frames, which the client turns into query errors.
func (n *StorageNode) handleExecute(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
	if fault := n.executeFault(); fault != nil {
		return nil, rpc.WithCode(fmt.Errorf("node %d: %w", n.ID, fault), rpc.CodeUnavailable)
	}
	ctx, span := telemetry.StartSpan(ctx, "node.execute")
	defer span.End()
	span.SetAttr("node", n.nodeLabel())
	chunksSent := n.Metrics.Counter(telemetry.MetricNodeChunksSent, "node", n.nodeLabel())
	chunkBytes := n.Metrics.Counter(telemetry.MetricNodeChunkBytes, "node", n.nodeLabel())
	backlog := n.Metrics.Gauge(telemetry.MetricNodeSchedBacklog, "node", n.nodeLabel())
	planBytes, chunkRows := decodeExecuteRequest(payload)
	if chunkRows <= 0 {
		chunkRows = n.ChunkRows
	}
	plan, err := substrait.Unmarshal(planBytes)
	if err != nil {
		return nil, rpc.WithCode(fmt.Errorf("node %d: invalid plan: %w", n.ID, err), rpc.CodeInvalid)
	}
	if err := n.checkBloomSize(plan); err != nil {
		return nil, err
	}
	env := newExecEnv(n.ScanPool)
	env.ctx = ctx
	env.caches = n.Caches
	env.sched = n.sched
	ls, err := newLocalStream(n.store, plan, env)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", n.ID, err)
	}
	defer ls.Close()

	buf := arrowlite.GetBuf()
	defer arrowlite.PutBuf(buf)
	sentSchema := false
	sendSchema := func(schema *types.Schema) error {
		msg, err := arrowlite.AppendSchema((*buf)[:0], schema)
		if err != nil {
			return err
		}
		*buf = msg
		sentSchema = true
		chunksSent.Inc()
		chunkBytes.Add(int64(len(msg)))
		rpc.SetStreamLoad(ctx, n.loadSignal(backlog))
		return send(msg)
	}
	sendBatch := func(page *column.Page) error {
		msg, err := arrowlite.AppendBatch((*buf)[:0], page)
		if err != nil {
			return err
		}
		*buf = msg
		chunksSent.Inc()
		chunkBytes.Add(int64(len(msg)))
		rpc.SetStreamLoad(ctx, n.loadSignal(backlog))
		return send(msg)
	}

	var staged *column.Page // coalescing buffer when chunkRows > 0
	for {
		// A cancelled caller stops the scan between pages; the stream
		// error frame carries the context verdict back.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("node %d: %w", n.ID, err)
		}
		page, err := ls.Next()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", n.ID, err)
		}
		if page == nil {
			break
		}
		if !sentSchema {
			if err := sendSchema(page.Schema); err != nil {
				return nil, err
			}
		}
		if chunkRows > 0 {
			if staged == nil {
				staged = column.NewPage(page.Schema)
				// Pages after a selective filter are small; reserve the
				// chunk up front so coalescing appends never regrow.
				staged.Reserve(chunkRows)
			}
			staged.AppendPage(page)
			if staged.NumRows() < chunkRows {
				continue
			}
			page, staged = staged, nil
		}
		if err := sendBatch(page); err != nil {
			return nil, err
		}
	}
	if staged != nil && staged.NumRows() > 0 {
		if err := sendBatch(staged); err != nil {
			return nil, err
		}
	}
	if !sentSchema {
		// The compiled schema is the validated plan schema; without a
		// page it is the only schema the client gets.
		if err := sendSchema(ls.Schema()); err != nil {
			return nil, err
		}
	}
	// Refresh the load word once more so the end frame carries the
	// post-scan backlog (the drained stream has released its queue).
	rpc.SetStreamLoad(ctx, n.loadSignal(backlog))
	st := ls.Work()
	span.SetAttr("bytes_read", fmt.Sprint(st.BytesRead))
	span.SetAttr("rows_processed", fmt.Sprint(st.RowsProcessed))
	e := protowire.NewEncoder()
	encodeWorkStats(e, 1, *st)
	return e.Encoded(), nil
}

func encodeWorkStats(e *protowire.Encoder, field int, st objstore.WorkStats) {
	e.Message(field, func(m *protowire.Encoder) {
		m.Int64(1, st.BytesRead)
		m.Int64(2, st.BytesDecompressed)
		m.Double(3, st.CPUUnits)
		m.Int64(4, st.RowsProcessed)
	})
}

func decodeWorkStats(d *protowire.Decoder) (objstore.WorkStats, error) {
	var st objstore.WorkStats
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return st, err
		}
		switch f {
		case 1:
			st.BytesRead, err = d.Int64()
		case 2:
			st.BytesDecompressed, err = d.Int64()
		case 3:
			st.CPUUnits, err = d.Double()
		case 4:
			st.RowsProcessed, err = d.Int64()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// handleDelete removes an object from the store and drops its cached
// footers and pages. Idempotent: deleting a missing key succeeds, so
// frontend retries after a killed connection are safe.
func (n *StorageNode) handleDelete(_ context.Context, payload []byte) ([]byte, error) {
	d := protowire.NewDecoder(payload)
	var bucket, key string
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			bucket, err = d.String()
		case 2:
			key, err = d.String()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, err
		}
	}
	if bucket == "" || key == "" {
		return nil, fmt.Errorf("node %d: delete requires bucket and key", n.ID)
	}
	n.store.Delete(bucket, key)
	n.Caches.InvalidateObject(bucket, key)
	return nil, nil
}

func (n *StorageNode) handlePut(_ context.Context, payload []byte) ([]byte, error) {
	d := protowire.NewDecoder(payload)
	var bucket, key string
	var data []byte
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			bucket, err = d.String()
		case 2:
			key, err = d.String()
		case 3:
			data, err = d.Bytes()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, err
		}
	}
	if bucket == "" || key == "" {
		return nil, fmt.Errorf("node %d: put requires bucket and key", n.ID)
	}
	n.store.Put(bucket, key, data)
	// Release cached footers/pages of the overwritten object early. The
	// store generation in every cache key already makes stale hits
	// impossible; this just frees the budget immediately.
	n.Caches.InvalidateObject(bucket, key)
	return nil, nil
}

func (n *StorageNode) handleGet(_ context.Context, payload []byte) ([]byte, error) {
	d := protowire.NewDecoder(payload)
	var bucket, key string
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			bucket, err = d.String()
		case 2:
			key, err = d.String()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, err
		}
	}
	data, err := n.store.Get(bucket, key)
	if err != nil {
		return nil, rpc.WithCode(err, rpc.CodeNotFound)
	}
	e := protowire.NewEncoder()
	e.Bytes(1, data)
	encodeWorkStats(e, 2, objstore.WorkStats{BytesRead: int64(len(data))})
	return e.Encoded(), nil
}

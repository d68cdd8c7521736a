package ocsserver

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"prestocs/internal/protowire"
	"prestocs/internal/retry"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
)

// RPC methods exposed by the frontend (application-facing).
const (
	MethodExecute = "ocs.Execute"
	MethodPut     = "ocs.Put"
	MethodGet     = "ocs.Get"
	MethodDelete  = "ocs.Delete"
)

// Frontend is the OCS entry point: it accepts Substrait plans, resolves
// which storage node holds the target object and forwards the plan for
// in-storage execution; results stream back in Arrow format. It also
// routes object management (PUT/GET/DELETE) so applications see one
// endpoint, as in the paper's hierarchical design. Node calls inherit
// the caller's context deadline and are retried on transient failure —
// for Execute only until the first chunk has been forwarded, since the
// client cannot be handed a restarted stream mid-flight.
type Frontend struct {
	rpc   *rpc.Server
	nodes []*rpc.Client

	// Retry governs node fan-out retries; set before Listen.
	Retry retry.Policy

	// StreamWindow bounds unacknowledged chunks per proxied stream toward
	// the application (0 = rpc.DefaultStreamWindow, negative disables).
	// With the node-side window this chains backpressure end-to-end: a
	// slow application reader stalls the frontend, which stops crediting
	// the node, which pauses the scan. Set before Listen.
	StreamWindow int

	// Metrics receives transport metrics for both the application-facing
	// server and the node-facing clients; Tracer continues traces arriving
	// in request headers. Both are optional and must be set before Listen.
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer

	mu        sync.RWMutex
	placement map[string]int // "bucket/key" -> node index
}

// NewFrontend connects to the given storage-node addresses. A frontend
// with no storage nodes cannot place or route anything, so zero addresses
// is a configuration error rather than a latent panic in nodeFor.
func NewFrontend(nodeAddrs []string) (*Frontend, error) {
	if len(nodeAddrs) == 0 {
		return nil, fmt.Errorf("ocs: frontend requires at least one storage node")
	}
	f := &Frontend{rpc: rpc.NewServer(), placement: make(map[string]int), Retry: retry.Default()}
	for _, addr := range nodeAddrs {
		f.nodes = append(f.nodes, rpc.Dial(addr))
	}
	f.rpc.RegisterStream(MethodExecute, f.handleExecute)
	f.rpc.Register(MethodPut, f.handlePut)
	f.rpc.Register(MethodGet, f.handleGet)
	f.rpc.Register(MethodDelete, f.handleDelete)
	return f, nil
}

// Listen binds the frontend's RPC server.
func (f *Frontend) Listen(addr string) (string, error) {
	f.rpc.Metrics = f.Metrics
	f.rpc.Tracer = f.Tracer
	f.rpc.StreamWindow = f.StreamWindow
	for _, n := range f.nodes {
		n.Metrics = f.Metrics
	}
	return f.rpc.Listen(addr)
}

// Close shuts down the frontend and its node connections.
func (f *Frontend) Close() error {
	for _, n := range f.nodes {
		n.Close()
	}
	return f.rpc.Close()
}

// NumNodes returns the number of attached storage nodes.
func (f *Frontend) NumNodes() int { return len(f.nodes) }

func (f *Frontend) nodeFor(bucket, key string) int {
	f.mu.RLock()
	idx, ok := f.placement[bucket+"/"+key]
	f.mu.RUnlock()
	if ok {
		return idx
	}
	h := fnv.New32a()
	h.Write([]byte(bucket + "/" + key))
	return int(h.Sum32()) % len(f.nodes)
}

func (f *Frontend) recordPlacement(bucket, key string, node int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.placement[bucket+"/"+key] = node
}

// handleExecute validates the plan, routes it to the node holding the
// object named by its ReadRel and proxies the node's result stream chunk
// by chunk — the frontend never buffers more than one chunk, so bytes
// reach the engine while the node is still scanning. Failures before the
// first chunk reaches the client are retried; after that the stream
// cannot be transparently restarted, so the error propagates and the
// client (or the connector's fallback) takes over.
func (f *Frontend) handleExecute(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
	planBytes, _ := decodeExecuteRequest(payload)
	plan, err := substrait.Unmarshal(planBytes)
	if err != nil {
		return nil, rpc.WithCode(fmt.Errorf("ocs: rejecting plan: %w", err), rpc.CodeInvalid)
	}
	var read *substrait.ReadRel
	substrait.WalkRels(plan.Root, func(r substrait.Rel) {
		if rd, ok := r.(*substrait.ReadRel); ok {
			read = rd
		}
	})
	if read == nil {
		return nil, rpc.WithCode(fmt.Errorf("ocs: plan has no read relation"), rpc.CodeInvalid)
	}
	node := f.nodeFor(read.Bucket, read.Object)
	ctx, span := telemetry.StartSpan(ctx, "frontend.forward")
	defer span.End()
	span.SetAttr("node", fmt.Sprintf("node%d", node))
	span.SetAttr("object", read.Bucket+"/"+read.Object)
	var trailer []byte
	err = f.Retry.Do(ctx, func() error {
		st, err := f.nodes[node].Stream(ctx, NodeMethodExecute, payload)
		if err != nil {
			return err
		}
		defer st.Close()
		forwarded := false
		for {
			chunk, err := st.Recv()
			if err == io.EOF {
				// Pass the node's final load word through so the end frame
				// toward the application carries it too.
				rpc.SetStreamLoad(ctx, st.Load())
				trailer = st.Trailer()
				return nil
			}
			if err != nil {
				if forwarded {
					// The client has already seen part of this stream;
					// restarting would duplicate chunks.
					return retry.Permanent(err)
				}
				return err
			}
			// Relay the node's load word onto the outgoing chunk: the
			// frontend is a pure proxy for the storage-load signal.
			rpc.SetStreamLoad(ctx, st.Load())
			if err := send(chunk); err != nil {
				// Our own downstream died; nothing to retry.
				return retry.Permanent(err)
			}
			forwarded = true
		}
	})
	if err != nil {
		return nil, err
	}
	return trailer, nil
}

func (f *Frontend) handlePut(ctx context.Context, payload []byte) ([]byte, error) {
	if len(f.nodes) == 0 {
		return nil, fmt.Errorf("ocs: frontend has no storage nodes")
	}
	bucket, key, err := peekBucketKey(payload)
	if err != nil {
		return nil, err
	}
	node := f.nodeFor(bucket, key)
	err = f.Retry.Do(ctx, func() error {
		_, err := f.nodes[node].Call(ctx, NodeMethodPut, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.recordPlacement(bucket, key, node)
	return nil, nil
}

func (f *Frontend) handleGet(ctx context.Context, payload []byte) ([]byte, error) {
	bucket, key, err := peekBucketKey(payload)
	if err != nil {
		return nil, err
	}
	node := f.nodeFor(bucket, key)
	var resp []byte
	err = f.Retry.Do(ctx, func() error {
		var err error
		resp, err = f.nodes[node].Call(ctx, NodeMethodGet, payload)
		return err
	})
	return resp, err
}

// handleDelete routes a physical object delete to the owning node and
// forgets its placement entry. Deletes are idempotent end to end (the
// store treats a missing key as success), so the retry policy is safe.
func (f *Frontend) handleDelete(ctx context.Context, payload []byte) ([]byte, error) {
	bucket, key, err := peekBucketKey(payload)
	if err != nil {
		return nil, err
	}
	node := f.nodeFor(bucket, key)
	err = f.Retry.Do(ctx, func() error {
		_, err := f.nodes[node].Call(ctx, NodeMethodDelete, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	delete(f.placement, bucket+"/"+key)
	f.mu.Unlock()
	return nil, nil
}

func peekBucketKey(payload []byte) (string, string, error) {
	d := protowire.NewDecoder(payload)
	var bucket, key string
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return "", "", err
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
			return "", "", rpc.WithCode(err, rpc.CodeInvalid)
		}
	}
	if bucket == "" || key == "" {
		return "", "", rpc.WithCode(fmt.Errorf("ocs: request requires bucket and key"), rpc.CodeInvalid)
	}
	return bucket, key, nil
}

package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// flipImage builds an object whose every x value is v, so a query result
// unambiguously identifies which table version produced it.
func flipImage(t *testing.T, v int64, rows int) []byte {
	t.Helper()
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	page := column.NewPage(schema)
	for i := 0; i < rows; i++ {
		page.AppendRow(types.IntValue(v))
	}
	img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{RowGroupSize: 256}, page)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func flipTable(objects []string, rows int64) *metastore.Table {
	return &metastore.Table{
		Schema:   CatalogOCS,
		Name:     "flip",
		Columns:  types.NewSchema(types.Column{Name: "x", Type: types.Int64}),
		Bucket:   "flipb",
		Objects:  objects,
		RowCount: rows,
	}
}

// TestCacheInvalidationConcurrentReregistration races table resolution
// against table re-registration: a writer flips the table between two
// layouts (v1: 4096 rows of all-1s, v2: 2048 rows of all-3s) while
// readers query it. Every result must come entirely from one version —
// (count, sum) is either (4096, 4096) or (2048, 6144), never a mix — and
// a resolved table must never outlive its registration version. Run under
// -race via `make faults`.
func TestCacheInvalidationConcurrentReregistration(t *testing.T) {
	c, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.OCSCli.Put(ctx, "flipb", "v1", flipImage(t, 1, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := c.OCSCli.Put(ctx, "flipb", "v2", flipImage(t, 3, 2048)); err != nil {
		t.Fatal(err)
	}
	if err := c.Meta.Register(flipTable([]string{"v1"}, 4096)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				c.Meta.Register(flipTable([]string{"v2"}, 2048))
			} else {
				c.Meta.Register(flipTable([]string{"v1"}, 4096))
			}
		}
	}()

	const readers, queries = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, readers*queries)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				session := engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
				res, err := c.Engine.Execute(ctx, "SELECT count(*) AS c, sum(x) AS s FROM flip WHERE x >= 0", session)
				if err != nil {
					errs <- err
					return
				}
				row := res.Page.Row(0)
				got := row[0].String() + "/" + row[1].String()
				if got != "4096/4096" && got != "2048/6144" {
					errs <- fmt.Errorf("mixed-version result count/sum = %s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// renderEngineResult flattens a query result for byte-identical
// comparison across runs.
func renderEngineResult(res *engine.Result) string {
	var b strings.Builder
	for i := 0; i < res.Page.NumRows(); i++ {
		for _, v := range res.Page.Row(i) {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCacheInvalidationKilledConnectionReplay checks the fault-matrix
// interaction with warm node caches: a query that loses its connection
// mid-stream is replayed through the engine-side fallback path, which
// runs fully uncached — the replay must neither read nor poison the
// node's footer/page caches, so both the replayed result and every later
// warm-cache query stay byte-identical to the baseline. Queries go
// through Engine.Execute directly (Cluster.Run would flush the caches).
func TestCacheInvalidationKilledConnectionReplay(t *testing.T) {
	c, proxy := proxiedCluster(t, 1)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(label string) string {
		t.Helper()
		session := engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
		res, err := c.Engine.Execute(ctx, d.Query, session)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return renderEngineResult(res)
	}

	baseline := run("cold baseline")
	if warm := run("warm"); warm != baseline {
		t.Fatal("warm-cache result differs from cold baseline")
	}

	// Sever the next Execute connection mid-stream; the engine retries or
	// falls back to raw GETs and re-executes locally, bypassing node caches.
	proxy.KillOnce(4096)
	if got := run("killed"); got != baseline {
		t.Fatal("result after killed connection differs from baseline")
	}
	if proxy.Killed() != 1 {
		t.Fatalf("killed = %d, want 1", proxy.Killed())
	}
	// The caches survived the fault untouched: another warm query still
	// matches.
	if got := run("warm after fault"); got != baseline {
		t.Fatal("warm-cache result after fault replay differs from baseline")
	}
}

// TestCacheCountersVisibleInMetrics asserts the caching tier's counters
// surface through the shared /metrics registry after real queries: the
// storage-node footer and page caches both report under their manifest
// names.
func TestCacheCountersVisibleInMetrics(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	session := engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
	for i := 0; i < 2; i++ {
		if _, err := c.Engine.Execute(context.Background(), d.Query, session); err != nil {
			t.Fatal(err)
		}
	}
	rendered := c.Metrics.Render()
	for _, name := range []string{
		telemetry.MetricFooterCacheHits,
		telemetry.MetricFooterCacheMisses,
		telemetry.MetricPageCacheHits,
		telemetry.MetricPageCacheMisses,
	} {
		if !strings.Contains(rendered, name) {
			t.Errorf("metric %q missing from /metrics output", name)
		}
	}
}

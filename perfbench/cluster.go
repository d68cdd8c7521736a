package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prestocs/internal/column"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/parquetlite"
	"prestocs/internal/workload"
)

// storageNodes is the OCS node count. One node keeps the page-cache
// arithmetic simple: the working set of paper-scan is compared against
// a single 64 MiB hot-page cache.
const storageNodes = 1

// startCluster brings up the in-process topology: engine → OCS frontend
// → storage node over loopback, with telemetry only on traced runs.
func startCluster(traced bool) (*harness.Cluster, error) {
	return harness.StartClusterWith(storageNodes, harness.Config{Telemetry: traced})
}

// loadOCS stores each dataset through the OCS frontend and registers it
// under the ocs catalog. The plain object store behind the hive catalog
// is not loaded: no workload reads it.
func loadOCS(c *harness.Cluster, sets ...*workload.Dataset) error {
	for _, d := range sets {
		if err := d.UploadOCS(context.Background(), c.OCSCli); err != nil {
			return fmt.Errorf("uploading %s: %w", d.Name, err)
		}
		if err := d.Register(c.Meta, harness.CatalogOCS); err != nil {
			return fmt.Errorf("registering %s: %w", d.Name, err)
		}
	}
	return nil
}

// generate runs the dataset generators on at most two goroutines (the
// machine's core count); each generator is deterministic in its seed,
// so the order they finish in does not matter.
func generate(gens ...func() (*workload.Dataset, error)) ([]*workload.Dataset, error) {
	out := make([]*workload.Dataset, len(gens))
	errs := make([]error, len(gens))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, g func() (*workload.Dataset, error)) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = g()
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeColumns reads the named columns of every object of d, in
// object order, for the reference computations and the sizing report.
func decodeColumns(d *workload.Dataset, names ...string) (map[string]*column.Vector, error) {
	idx := make([]int, len(names))
	out := make(map[string]*column.Vector, len(names))
	for i, n := range names {
		idx[i] = d.Table.Columns.IndexOf(n)
		if idx[i] < 0 {
			return nil, fmt.Errorf("%s has no column %s", d.Name, n)
		}
		out[n] = column.NewVector(d.Table.Columns.Columns[idx[i]].Type)
	}
	for _, key := range d.Table.Objects {
		r, err := parquetlite.NewReader(d.Objects[key])
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", key, err)
		}
		pages, err := r.ReadAll(idx)
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", key, err)
		}
		for _, p := range pages {
			for i, n := range names {
				out[n].AppendVector(p.Vectors[i])
			}
		}
	}
	return out, nil
}

// decodedBytes sums the in-memory size of decoded columns, the unit the
// node page cache budgets in.
func decodedBytes(cols map[string]*column.Vector) int64 {
	var n int64
	for _, v := range cols {
		n += v.ByteSize()
	}
	return n
}

func storedBytes(d *workload.Dataset) int64 {
	var n int64
	for _, img := range d.Objects {
		n += int64(len(img))
	}
	return n
}

// tableSize is one line of the sizing report.
type tableSize struct {
	name    string
	rows    int64
	stored  int64
	raw     int64
	touched int64 // decoded bytes of the columns the workload reads
}

func sizeOf(d *workload.Dataset, touched int64) tableSize {
	return tableSize{name: d.Name, rows: d.Table.RowCount, stored: storedBytes(d), raw: d.TotalRawBytes, touched: touched}
}

// submit runs one query under a pushdown mode and waits for it.
func submit(ctx context.Context, c *harness.Cluster, sql, mode string) (*engine.Result, time.Duration, error) {
	s := engine.NewSession().Set(ocsconn.SessionPushdown, mode)
	start := time.Now()
	q, err := c.Engine.Submit(ctx, sql, engine.WithSession(s))
	if err != nil {
		return nil, time.Since(start), err
	}
	res, err := q.Result()
	return res, time.Since(start), err
}

package main

import (
	"fmt"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/harness"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// paperScanModes are the pushdown configurations of the mix: the
// paper's two end points and filter-only, whose wall time the cost
// model and the wall clock disagree on.
var paperScanModes = []string{"none", "filter", "all"}

// paperScan is the paper's query mix (Laghos, Deep Water, TPC-H Q1),
// each under every mode in paperScanModes, one client, fixed
// round-robin over whole rounds.
type paperScan struct {
	sets  []*workload.Dataset
	size  []tableSize
	cells []op
}

// newPaperScan sizes the data so the decoded column chunks the pushed
// scans touch (≈78 MiB) exceed the node's 64 MiB hot-page cache, and
// stores lineitem Snappy-compressed so decompression is on the path.
func newPaperScan(seed int64) (*paperScan, error) {
	sets, err := generate(
		func() (*workload.Dataset, error) {
			return workload.Laghos(workload.Config{Files: 8, RowsPerFile: 16384, Seed: seed})
		},
		func() (*workload.Dataset, error) {
			return workload.DeepWater(workload.Config{Files: 32, RowsPerFile: 65536, Seed: seed + 1})
		},
		func() (*workload.Dataset, error) {
			return workload.TPCH(workload.Config{Files: 8, RowsPerFile: 65536, Seed: seed + 2, Codec: compress.Snappy})
		},
	)
	if err != nil {
		return nil, err
	}
	w := &paperScan{sets: sets}
	refs := make([]*answer, len(sets))
	for i, d := range sets {
		var cols map[string]*column.Vector
		switch d.Name {
		case "laghos":
			cols, err = decodeColumns(d, "vertex_id", "x", "y", "z", "e")
			if err == nil {
				refs[i] = laghosRef(cols)
			}
		case "deepwater":
			cols, err = decodeColumns(d, "rowid", "v02", "timestep")
			if err == nil {
				refs[i] = deepWaterRef(cols)
			}
		case "lineitem":
			cols, err = decodeColumns(d, "quantity", "extendedprice", "discount", "tax", "returnflag", "linestatus", "shipdate")
			if err == nil {
				refs[i], err = q1Ref(cols)
			}
		}
		if err != nil {
			return nil, err
		}
		w.size = append(w.size, sizeOf(d, decodedBytes(cols)))
	}
	// Mode-major order: two pushed scans of one table are separated by
	// the pushed scans of the other two, so a table's chunks have left
	// the LRU page cache before the table is read again.
	for _, mode := range paperScanModes {
		for i, d := range sets {
			w.cells = append(w.cells, op{label: d.Name + "/" + mode, sql: d.Query, mode: mode, ref: refs[i]})
		}
	}
	return w, nil
}

func (w *paperScan) sizes() []tableSize { return w.size }

func (w *paperScan) load(c *harness.Cluster) error {
	if err := loadOCS(c, w.sets...); err != nil {
		return err
	}
	// One round warms code paths, footers and the metadata cache.
	rec := &recorder{}
	for _, o := range w.cells {
		if s := rec.query(c, o, o.ref.check); s.failed {
			return fmt.Errorf("warm-up %s: %s", o.label, s.why)
		}
	}
	return nil
}

func (w *paperScan) measure(c *harness.Cluster, deadline, limit time.Time, rec *recorder) (time.Duration, map[string]metric, error) {
	start := time.Now()
	for !enough(rec, deadline, limit, kindQuery) {
		for _, o := range w.cells {
			rec.query(c, o, o.ref.check)
		}
	}
	return time.Since(start), nil, nil
}

func (w *paperScan) replayOps() []op { return w.cells }

// inRange is SQL BETWEEN lo AND hi.
func inRange(v, lo, hi float64) bool { return v >= lo && v <= hi }

// laghosRef evaluates workload.LaghosQuery.
func laghosRef(cols map[string]*column.Vector) *answer {
	vid := cols["vertex_id"].Ints
	x, y, z, e := cols["x"].Floats, cols["y"].Floats, cols["z"].Floats, cols["e"].Floats
	type acc struct {
		mx, my, mz, sum float64
		n               int64
	}
	groups := make(map[int64]*acc)
	var order []int64
	for i := range vid {
		if !inRange(x[i], 0.8, 3.2) || !inRange(y[i], 0.8, 3.2) || !inRange(z[i], 0.8, 3.2) {
			continue
		}
		a := groups[vid[i]]
		if a == nil {
			a = &acc{mx: x[i], my: y[i], mz: z[i]}
			groups[vid[i]] = a
			order = append(order, vid[i])
		}
		a.mx, a.my, a.mz = min(a.mx, x[i]), min(a.my, y[i]), min(a.mz, z[i])
		a.sum += e[i]
		a.n++
	}
	rows := make([][]types.Value, 0, len(order))
	for _, v := range order {
		a := groups[v]
		rows = append(rows, []types.Value{types.IntValue(v), types.FloatValue(a.mx), types.FloatValue(a.my),
			types.FloatValue(a.mz), types.FloatValue(a.sum / float64(a.n))})
	}
	return newAnswer(rows, []int{0}, []orderKey{{col: 4}}, 100)
}

// deepWaterRef evaluates workload.DeepWaterQuery.
func deepWaterRef(cols map[string]*column.Vector) *answer {
	rowid, v02, ts := cols["rowid"].Ints, cols["v02"].Floats, cols["timestep"].Ints
	m := make(map[int64]int64)
	var order []int64
	for i := range rowid {
		if !(v02[i] > 0.1) {
			continue
		}
		v := (rowid[i] % 250000) / 500
		cur, ok := m[ts[i]]
		if !ok {
			order = append(order, ts[i])
		}
		if !ok || v > cur {
			m[ts[i]] = v
		}
	}
	rows := make([][]types.Value, 0, len(order))
	for _, t := range order {
		rows = append(rows, []types.Value{types.IntValue(m[t]), types.IntValue(t)})
	}
	return newAnswer(rows, []int{1}, nil, 0)
}

// q1Ref evaluates workload.TPCHQuery (TPC-H Q1).
func q1Ref(cols map[string]*column.Vector) (*answer, error) {
	cutoff, err := types.DateFromString("1998-09-02") // DATE '1998-12-01' - INTERVAL '90' DAY
	if err != nil {
		return nil, err
	}
	qty, price, disc, tax := cols["quantity"].Floats, cols["extendedprice"].Floats, cols["discount"].Floats, cols["tax"].Floats
	rf, ls, ship := cols["returnflag"].Strings, cols["linestatus"].Strings, cols["shipdate"].Ints
	type acc struct {
		rf, ls                             string
		qty, base, discPrice, charge, disc float64
		n                                  int64
	}
	groups := make(map[string]*acc)
	for i := range qty {
		if ship[i] > cutoff.I {
			continue
		}
		k := rf[i] + "|" + ls[i]
		a := groups[k]
		if a == nil {
			a = &acc{rf: rf[i], ls: ls[i]}
			groups[k] = a
		}
		dp := price[i] * (1 - disc[i])
		a.qty += qty[i]
		a.base += price[i]
		a.discPrice += dp
		a.charge += dp * (1 + tax[i])
		a.disc += disc[i]
		a.n++
	}
	var rows [][]types.Value
	for _, a := range groups {
		n := float64(a.n)
		rows = append(rows, []types.Value{
			types.StringValue(a.rf), types.StringValue(a.ls),
			types.FloatValue(a.qty), types.FloatValue(a.base), types.FloatValue(a.discPrice), types.FloatValue(a.charge),
			types.FloatValue(a.qty / n), types.FloatValue(a.base / n), types.FloatValue(a.disc / n),
			types.IntValue(a.n),
		})
	}
	return newAnswer(rows, []int{0, 1}, []orderKey{{col: 0}, {col: 1}}, 0), nil
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/harness"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

const (
	// pointPool is the number of distinct lookups; the clients cycle
	// through them, so the touched row groups stay in the node caches.
	pointPool = 1024
	// pointClients is the closed-loop client count (the machine's cores).
	pointClients = 2
)

// pointHot is short, selective, zone-map-prunable lookups under
// pushdown auto from two clients.
type pointHot struct {
	sets []*workload.Dataset
	size []tableSize
	ops  []op
}

func newPointHot(seed int64) (*pointHot, error) {
	sets, err := generate(
		func() (*workload.Dataset, error) {
			return workload.Laghos(workload.Config{Files: 8, RowsPerFile: 16384, Seed: seed})
		},
		func() (*workload.Dataset, error) {
			return workload.DeepWater(workload.Config{Files: 8, RowsPerFile: 32768, Seed: seed + 1})
		},
		func() (*workload.Dataset, error) {
			return workload.TPCH(workload.Config{Files: 8, RowsPerFile: 32768, Seed: seed + 2, Codec: compress.Snappy})
		},
	)
	if err != nil {
		return nil, err
	}
	w := &pointHot{sets: sets}
	lag, err := decodeColumns(sets[0], "vertex_id", "x", "e")
	if err != nil {
		return nil, err
	}
	dw, err := decodeColumns(sets[1], "rowid", "v02", "timestep")
	if err != nil {
		return nil, err
	}
	li, err := decodeColumns(sets[2], "orderkey", "returnflag", "extendedprice")
	if err != nil {
		return nil, err
	}
	w.size = []tableSize{sizeOf(sets[0], decodedBytes(lag)), sizeOf(sets[1], decodedBytes(dw)), sizeOf(sets[2], decodedBytes(li))}
	w.ops = pointOps(seed, lag, dw, li)
	return w, nil
}

// pointOps draws the lookup pool from the seed, round-robin over the
// three templates, with each reference answer.
func pointOps(seed int64, lag, dw, li map[string]*column.Vector) []op {
	rnd := rand.New(rand.NewSource(seed))
	lagIdx := sortedBy(lag["vertex_id"].Ints)
	dwIdx := sortedBy(dw["timestep"].Ints, dw["rowid"].Ints)
	liIdx := sortedBy(li["orderkey"].Ints)
	vid, ts, rowid, ok := lag["vertex_id"].Ints, dw["timestep"].Ints, dw["rowid"].Ints, li["orderkey"].Ints
	maxVid, maxTs, maxRow, maxOk := vid[lagIdx[len(lagIdx)-1]], ts[dwIdx[len(dwIdx)-1]], int64(0), ok[liIdx[len(liIdx)-1]]
	for _, r := range rowid {
		maxRow = max(maxRow, r)
	}
	ops := make([]op, pointPool)
	for i := range ops {
		switch i % 3 {
		case 0:
			k := rnd.Int63n(maxVid - 50)
			sel := between(lagIdx, func(j int) []int64 { return []int64{vid[j]} }, []int64{k}, []int64{k + 50})
			ops[i] = op{label: "laghos/vertex_range", mode: "auto",
				sql: fmt.Sprintf("SELECT count(*) AS n, min(x) AS mx, max(e) AS me FROM laghos WHERE vertex_id BETWEEN %d AND %d", k, k+50),
				ref: pointGlobalRef(sel, lag["x"].Floats, lag["e"].Floats, nil)}
		case 1:
			t, a := rnd.Int63n(maxTs+1), rnd.Int63n(maxRow-200)
			sel := between(dwIdx, func(j int) []int64 { return []int64{ts[j], rowid[j]} }, []int64{t, a}, []int64{t, a + 200})
			ops[i] = op{label: "deepwater/timestep", mode: "auto",
				sql: fmt.Sprintf("SELECT count(*) AS n, sum(rowid) AS s, max(v02) AS mv FROM deepwater WHERE timestep = %d AND rowid BETWEEN %d AND %d", t, a, a+200),
				ref: pointGlobalRef(sel, nil, dw["v02"].Floats, rowid)}
		default:
			k := rnd.Int63n(maxOk - 100)
			sel := between(liIdx, func(j int) []int64 { return []int64{ok[j]} }, []int64{k}, []int64{k + 100})
			ops[i] = op{label: "lineitem/orderkey_range", mode: "auto",
				sql: fmt.Sprintf("SELECT returnflag, count(*) AS n, sum(extendedprice) AS rev FROM lineitem WHERE orderkey BETWEEN %d AND %d GROUP BY returnflag ORDER BY returnflag", k, k+100),
				ref: pointGroupRef(sel, li["returnflag"].Strings, li["extendedprice"].Floats)}
		}
	}
	return ops
}

// sortedBy returns row indices ordered by the given key columns.
func sortedBy(keys ...[]int64) []int {
	idx := make([]int, len(keys[0]))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range keys {
			if k[idx[a]] != k[idx[b]] {
				return k[idx[a]] < k[idx[b]]
			}
		}
		return false
	})
	return idx
}

// between returns the rows (in index order) whose key lies in [lo, hi].
func between(idx []int, key func(int) []int64, lo, hi []int64) []int {
	less := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	from := sort.Search(len(idx), func(i int) bool { return !less(key(idx[i]), lo) })
	to := sort.Search(len(idx), func(i int) bool { return less(hi, key(idx[i])) })
	return idx[from:to]
}

// pointGlobalRef is a one-row global aggregate over sel: count(*), then
// min over minF (when set) or sum over sumI, then max over maxF.
func pointGlobalRef(sel []int, minF, maxF []float64, sumI []int64) *answer {
	row := []types.Value{types.IntValue(int64(len(sel)))}
	if len(sel) == 0 {
		if minF != nil {
			row = append(row, types.NullValue(types.Float64))
		} else {
			row = append(row, types.NullValue(types.Int64))
		}
		row = append(row, types.NullValue(types.Float64))
		return newAnswer([][]types.Value{row}, []int{0}, nil, 0)
	}
	sel = append([]int(nil), sel...)
	sort.Ints(sel) // storage order, the order the engine sums in
	if minF != nil {
		m := minF[sel[0]]
		for _, j := range sel {
			m = min(m, minF[j])
		}
		row = append(row, types.FloatValue(m))
	} else {
		var s int64
		for _, j := range sel {
			s += sumI[j]
		}
		row = append(row, types.IntValue(s))
	}
	m := maxF[sel[0]]
	for _, j := range sel {
		m = max(m, maxF[j])
	}
	row = append(row, types.FloatValue(m))
	return newAnswer([][]types.Value{row}, []int{0}, nil, 0)
}

// pointGroupRef is returnflag, count(*), sum(extendedprice) grouped by
// returnflag and ordered by it.
func pointGroupRef(sel []int, flag []string, price []float64) *answer {
	sel = append([]int(nil), sel...)
	sort.Ints(sel)
	n := map[string]int64{}
	s := map[string]float64{}
	for _, j := range sel {
		n[flag[j]]++
		s[flag[j]] += price[j]
	}
	var rows [][]types.Value
	for f := range n {
		rows = append(rows, []types.Value{types.StringValue(f), types.IntValue(n[f]), types.FloatValue(s[f])})
	}
	return newAnswer(rows, []int{0}, []orderKey{{col: 0}}, 0)
}

func (w *pointHot) sizes() []tableSize { return w.size }

func (w *pointHot) load(c *harness.Cluster) error {
	if err := loadOCS(c, w.sets...); err != nil {
		return err
	}
	// One pass over the pool fills the footer and page caches with the
	// working set.
	return w.drive(c, &recorder{}, func(i int) bool { return i >= len(w.ops) }, true)
}

func (w *pointHot) measure(c *harness.Cluster, deadline, limit time.Time, rec *recorder) (time.Duration, map[string]metric, error) {
	start := time.Now()
	stop := func(i int) bool { return i%128 < pointClients && enough(rec, deadline, limit, kindQuery) }
	err := w.drive(c, rec, stop, false)
	return time.Since(start), nil, err
}

// drive runs the closed-loop clients: client k issues ops k, k+2, ...
// of the pool, cyclically, until stop holds for the next op index. With
// failFast a failed op stops its client and is returned.
func (w *pointHot) drive(c *harness.Cluster, rec *recorder, stop func(i int) bool, failFast bool) error {
	var wg sync.WaitGroup
	errs := make([]error, pointClients)
	for cl := 0; cl < pointClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl; !stop(i); i += pointClients {
				o := w.ops[i%len(w.ops)]
				if s := rec.query(c, o, o.ref.check); s.failed && failFast {
					errs[cl] = fmt.Errorf("warm-up %s: %s", o.sql, s.why)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *pointHot) replayOps() []op { return w.ops[:3] }

package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/harness"
	"prestocs/internal/ingest"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

const (
	// cycleInserts INSERT statements of batchRows rows each make one
	// cycle; Compactor.RunOnce follows every compactEvery of them.
	cycleInserts = 32
	batchRows    = 512
	compactEvery = 8
	// baseRowsPerFile sizes the base lineitem and orders objects. The
	// base lineitem objects come out above the compactor's default
	// small-object cutoff (1 MiB, checked at set-up) and a cycle's
	// ingested rows stay below it, so compaction only ever merges
	// ingested objects and the base objects can be shared by every
	// cycle's table.
	baseRowsPerFile   = 49152
	defaultSmallBytes = 1 << 20
)

// ingestJoin runs one writer (INSERT batches through engine.Ingest plus
// RunOnce every compactEvery inserts) beside one reader (TPC-H Q3,
// lineitem ⋈ orders with bloom pushdown). Writer and reader move in
// lockstep: each step starts one INSERT (and, every compactEvery steps,
// the RunOnce after it) together with one Q3, and the next step starts
// when both are done. Each cycle starts from a fresh copy of the base
// lineitem table and replays the same insert stream, so the table grows
// the same way, and the same operations overlap, in every cycle and run.
type ingestJoin struct {
	lineitem, orders *workload.Dataset
	size             []tableSize
	inserts          []string  // " VALUES ..." tail of each INSERT
	refs             []*answer // refs[j]: the Q3 answer after j inserts
	insertRaw        int64     // decoded bytes of one cycle's inserted rows
	cycle            int
}

func newIngestJoin(seed int64) (*ingestJoin, error) {
	sets, err := generate(
		func() (*workload.Dataset, error) {
			return workload.TPCH(workload.Config{Files: 2, RowsPerFile: baseRowsPerFile, Seed: seed, Codec: compress.Snappy})
		},
		func() (*workload.Dataset, error) {
			return workload.TPCHOrders(workload.Config{Files: 2, RowsPerFile: baseRowsPerFile, Seed: seed + 1})
		},
	)
	if err != nil {
		return nil, err
	}
	w := &ingestJoin{lineitem: sets[0], orders: sets[1]}
	for _, key := range w.lineitem.Table.Objects {
		if w.lineitem.Table.ObjectBytes[key] < defaultSmallBytes {
			return nil, fmt.Errorf("base object %s is %d bytes, below the compactor's default cutoff", key, w.lineitem.Table.ObjectBytes[key])
		}
	}
	li, err := decodeColumns(w.lineitem, "orderkey", "extendedprice", "discount")
	if err != nil {
		return nil, err
	}
	ord, err := decodeColumns(w.orders, "orderkey", "orderdate")
	if err != nil {
		return nil, err
	}
	w.size = []tableSize{sizeOf(w.lineitem, decodedBytes(li)), sizeOf(w.orders, decodedBytes(ord))}
	batches := insertBatches(seed, w.orders.Table.RowCount)
	for _, b := range batches {
		w.inserts = append(w.inserts, valuesSQL(b))
		w.insertRaw += b.ByteSize()
	}
	w.refs, err = q3Refs(li, ord, batches)
	return w, err
}

// insertBatches draws the cycle's insert stream from the seed. Order
// keys hit existing orders, so inserted rows join and move Q3's answer.
func insertBatches(seed, orders int64) []*column.Page {
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	start, _ := types.DateFromString("1992-01-02")
	schema := types.NewSchema(
		types.Column{Name: "orderkey", Type: types.Int64},
		types.Column{Name: "quantity", Type: types.Float64},
		types.Column{Name: "extendedprice", Type: types.Float64},
		types.Column{Name: "discount", Type: types.Float64},
		types.Column{Name: "tax", Type: types.Float64},
		types.Column{Name: "returnflag", Type: types.String},
		types.Column{Name: "linestatus", Type: types.String},
		types.Column{Name: "shipdate", Type: types.Date},
	)
	out := make([]*column.Page, cycleInserts)
	for b := range out {
		p := column.NewPage(schema)
		for r := 0; r < batchRows; r++ {
			qty := float64(1 + rnd.Intn(50))
			p.AppendRow(
				types.IntValue(rnd.Int63n(orders)),
				types.FloatValue(qty),
				types.FloatValue(qty*float64(90000+rnd.Intn(20000))/100),
				types.FloatValue(float64(rnd.Intn(11))/100),
				types.FloatValue(float64(rnd.Intn(9))/100),
				types.StringValue([]string{"A", "N", "R"}[rnd.Intn(3)]),
				types.StringValue([]string{"F", "O"}[rnd.Intn(2)]),
				types.DateValue(start.I+rnd.Int63n(2500)),
			)
		}
		out[b] = p
	}
	return out
}

// valuesSQL renders a page as the VALUES clause of an INSERT.
func valuesSQL(p *column.Page) string {
	var b strings.Builder
	b.WriteString(" VALUES ")
	for i := 0; i < p.NumRows(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range p.Row(i) {
			if j > 0 {
				b.WriteString(", ")
			}
			switch v.Kind {
			case types.String:
				b.WriteString("'" + v.S + "'")
			case types.Date:
				b.WriteString("DATE '" + v.String() + "'")
			case types.Float64:
				b.WriteString(strconv.FormatFloat(v.F, 'f', -1, 64))
			default:
				b.WriteString(v.String())
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

// q3Refs evaluates workload.TPCHQ3Query after each prefix of the insert
// stream.
func q3Refs(li, ord map[string]*column.Vector, batches []*column.Page) ([]*answer, error) {
	cutoff, err := types.DateFromString("1994-01-01")
	if err != nil {
		return nil, err
	}
	date := make(map[int64]int64)
	for i, k := range ord["orderkey"].Ints {
		if d := ord["orderdate"].Ints[i]; d < cutoff.I {
			date[k] = d
		}
	}
	rev := make(map[int64]float64)
	add := func(k int64, price, disc float64) {
		if _, ok := date[k]; ok {
			rev[k] += price * (1 - disc)
		}
	}
	for i, k := range li["orderkey"].Ints {
		add(k, li["extendedprice"].Floats[i], li["discount"].Floats[i])
	}
	// Only the top rows can be in the answer: the ten largest revenues
	// plus any within tolerance of the tenth.
	snapshot := func() *answer {
		keys := make([]int64, 0, len(rev))
		for k := range rev {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if rev[keys[i]] != rev[keys[j]] {
				return rev[keys[i]] > rev[keys[j]]
			}
			return keys[i] < keys[j]
		})
		n := min(10, len(keys))
		for n < len(keys) && valueCmp(types.FloatValue(rev[keys[9]]), types.FloatValue(rev[keys[n]])) == 0 {
			n++
		}
		rows := make([][]types.Value, 0, n)
		for _, k := range keys[:n] {
			rows = append(rows, []types.Value{types.IntValue(k), types.DateValue(date[k]), types.FloatValue(rev[k])})
		}
		return newAnswer(rows, []int{0, 1}, []orderKey{{col: 2, desc: true}}, 10)
	}
	refs := []*answer{snapshot()}
	for _, b := range batches {
		ok, price, disc := b.Vectors[0].Ints, b.Vectors[2].Floats, b.Vectors[3].Floats
		for i := range ok {
			add(ok[i], price[i], disc[i])
		}
		refs = append(refs, snapshot())
	}
	return refs, nil
}

func (w *ingestJoin) sizes() []tableSize { return w.size }

func (w *ingestJoin) load(c *harness.Cluster) error {
	if err := loadOCS(c, w.lineitem, w.orders); err != nil {
		return err
	}
	c.NewIngester(ingest.Options{})
	// Warm the join path on the base table.
	rec := &recorder{}
	if s := rec.query(c, op{label: "q3", sql: workload.TPCHQ3Query, mode: "all"}, w.refs[0].check); s.failed {
		return fmt.Errorf("warm-up q3: %s", s.why)
	}
	return nil
}

func (w *ingestJoin) measure(c *harness.Cluster, deadline, limit time.Time, rec *recorder) (time.Duration, map[string]metric, error) {
	comp := c.NewCompactor(ingest.CompactorOptions{})
	var active time.Duration
	var amps, live, tombs []float64
	cycles := 0
	for !enough(rec, deadline, limit, kindQuery, kindInsert) {
		d, end, err := w.runCycle(c, comp, rec)
		if err != nil {
			return active, nil, err
		}
		active += d
		cycles++
		amps = append(amps, end.spaceAmp)
		live = append(live, float64(end.objects))
		tombs = append(tombs, float64(end.tombstones))
	}
	return active, map[string]metric{
		"space_amp":              {median(amps), "ratio"},
		"metastore.objects_live": {median(live), "count"},
		"metastore.tombstones":   {median(tombs), "count"},
		"ingest.user_mib":        {float64(cycles) * mib(w.insertRaw), "MiB"},
	}, nil
}

// cycleEnd is the table's state when a cycle's writer and reader are done.
type cycleEnd struct {
	spaceAmp            float64
	objects, tombstones int
}

// runCycle replays the insert stream into a fresh copy of the base
// table while the reader runs Q3 against it, and returns the cycle's
// wall time and its final space amplification.
func (w *ingestJoin) runCycle(c *harness.Cluster, comp *ingest.Compactor, rec *recorder) (time.Duration, cycleEnd, error) {
	ctx := context.Background()
	w.cycle++
	name := fmt.Sprintf("lineitem_c%d", w.cycle)
	t := *w.lineitem.Table
	t.Schema, t.Name = harness.CatalogOCS, name
	if err := ingest.RegisterTable(c.Meta, &t); err != nil {
		return 0, cycleEnd{}, err
	}
	q3 := op{label: "q3", mode: "all", sql: strings.Replace(workload.TPCHQ3Query, "FROM lineitem AS l", "FROM "+name+" AS l", 1)}

	start := time.Now()
	for j, tail := range w.inserts {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Inserts 0..j-1 were committed before the step began and
			// insert j commits while the query runs, so the answer is
			// the one after j or after j+1 inserts.
			rec.query(c, q3, func(p *column.Page) verdict {
				v := w.refs[j].check(p)
				if !v.ok {
					if v1 := w.refs[j+1].check(p); v1.ok {
						return v1
					}
				}
				return v
			})
		}()
		err := w.write(ctx, c, comp, rec, name, tail, (j+1)%compactEvery == 0)
		wg.Wait()
		if err != nil {
			return time.Since(start), cycleEnd{}, err
		}
	}
	elapsed := time.Since(start)
	final, err := c.Meta.Get(harness.CatalogOCS, name)
	if err != nil {
		return elapsed, cycleEnd{}, err
	}
	end := cycleEnd{
		spaceAmp:   float64(final.TotalBytes) / float64(w.lineitem.TotalRawBytes+w.insertRaw),
		objects:    len(final.Objects),
		tombstones: c.Meta.TombstoneCount(harness.CatalogOCS, name),
	}
	return elapsed, end, w.dropCycle(ctx, c, name)
}

// write issues one INSERT and, when compact is set, one RunOnce after it.
func (w *ingestJoin) write(ctx context.Context, c *harness.Cluster, comp *ingest.Compactor, rec *recorder, name, tail string, compact bool) error {
	s := sample{kind: kindInsert, label: "insert", start: time.Now(), rows: batchRows}
	_, err := c.Engine.Ingest(ctx, "INSERT INTO "+name+tail)
	s.dur = time.Since(s.start)
	if err != nil {
		s.failed, s.why = true, err.Error()
	}
	rec.add(s)
	if err != nil || !compact {
		return err
	}
	cs := time.Now()
	_, err = comp.RunOnce(ctx, harness.CatalogOCS, name)
	rec.mu.Lock()
	rec.compactions = append(rec.compactions, [2]time.Time{cs, time.Now()})
	rec.mu.Unlock()
	if err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	return nil
}

// dropCycle deletes the cycle's table and every object only it used:
// its live ingested and compacted objects and its reapable tombstones.
func (w *ingestJoin) dropCycle(ctx context.Context, c *harness.Cluster, name string) error {
	t, err := c.Meta.Get(harness.CatalogOCS, name)
	if err != nil {
		return err
	}
	base := make(map[string]bool, len(w.lineitem.Table.Objects))
	for _, k := range w.lineitem.Table.Objects {
		base[k] = true
	}
	var garbage []string
	for _, k := range t.Objects {
		if !base[k] {
			garbage = append(garbage, k)
		}
	}
	for _, ts := range c.Meta.ReapTombstones(harness.CatalogOCS, name) {
		garbage = append(garbage, ts.Key)
	}
	c.Meta.Drop(harness.CatalogOCS, name)
	for _, k := range garbage {
		if err := c.OCSCli.Delete(ctx, t.Bucket, k); err != nil {
			return fmt.Errorf("dropping %s: %w", k, err)
		}
	}
	return nil
}

func (w *ingestJoin) replayOps() []op {
	return []op{{label: "q3", sql: workload.TPCHQ3Query, mode: "all", ref: w.refs[0]}}
}

package ocsserver

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

func meshSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "vertex_id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "e", Type: types.Float64},
	)
}

// meshObject builds a deterministic object: 200 rows, vertex_id = i%10,
// x = i/100.0, e = i.
func meshObject(t *testing.T, codec compress.Codec) []byte {
	t.Helper()
	p := column.NewPage(meshSchema())
	for i := 0; i < 200; i++ {
		p.AppendRow(
			types.IntValue(int64(i%10)),
			types.FloatValue(float64(i)/100),
			types.FloatValue(float64(i)),
		)
	}
	data, err := parquetlite.WritePages(meshSchema(), parquetlite.WriterOptions{Codec: codec, RowGroupSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func filterPlan(t *testing.T, bucket, object string) *substrait.Plan {
	t.Helper()
	read := &substrait.ReadRel{Bucket: bucket, Object: object, BaseSchema: meshSchema()}
	cond, err := expr.NewBetween(expr.Col(1, "x", types.Float64),
		expr.Lit(types.FloatValue(0.5)), expr.Lit(types.FloatValue(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	return substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond})
}

func TestExecuteLocalFilter(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	pages, stats, err := runLocal(store, filterPlan(t, "b", "o"), newExecEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		total += p.NumRows()
	}
	// x in [0.5, 1.0] -> i in [50,100] -> 51 rows.
	if total != 51 {
		t.Errorf("filtered rows = %d, want 51", total)
	}
	if stats.BytesRead <= 0 || stats.RowsProcessed <= 0 || stats.CPUUnits <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestExecuteLocalRowGroupPruning(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	// x BETWEEN 0.5 AND 1.0 hits row groups 0 (rows 0-63) and 1 (64-127)
	// only; groups 2,3 must be pruned, reducing BytesRead.
	_, statsPruned, err := runLocal(store, filterPlan(t, "b", "o"), newExecEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	// An always-true filter reads everything.
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	cond, _ := expr.NewCompare(expr.Ge, expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(-1)))
	_, statsFull, err := runLocal(store, substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond}), newExecEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	if statsPruned.BytesRead >= statsFull.BytesRead {
		t.Errorf("pruning did not reduce reads: %d vs %d", statsPruned.BytesRead, statsFull.BytesRead)
	}
}

func TestExecuteLocalAggregatePartial(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.Snappy))
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	agg := &substrait.AggregateRel{
		Input:     read,
		GroupKeys: []int{0},
		Measures: []substrait.Measure{
			{Func: substrait.AggSum, Arg: 2, Name: "sum_e"},
			{Func: substrait.AggCountStar, Arg: -1, Name: "cnt"},
		},
	}
	pages, stats, err := runLocal(store, substrait.NewPlan(agg), newExecEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || pages[0].NumRows() != 10 {
		t.Fatalf("groups = %v", pages)
	}
	// Each vertex_id group has 20 rows; counts must say so.
	for i := 0; i < pages[0].NumRows(); i++ {
		if pages[0].Row(i)[2].I != 20 {
			t.Errorf("group %d count = %v", i, pages[0].Row(i)[2])
		}
	}
	if stats.BytesDecompressed <= stats.BytesRead {
		t.Errorf("snappy object should decompress larger: read=%d dec=%d", stats.BytesRead, stats.BytesDecompressed)
	}
}

func TestExecuteLocalTopNAndProject(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	mod, err := expr.NewArith(expr.Mod, expr.Col(0, "vertex_id", types.Int64), expr.Lit(types.IntValue(3)))
	if err != nil {
		t.Fatal(err)
	}
	proj := &substrait.ProjectRel{
		Input:       read,
		Expressions: []expr.Expr{mod, expr.Col(2, "e", types.Float64)},
		Names:       []string{"m", "e"},
	}
	topn := &substrait.FetchRel{
		Input: &substrait.SortRel{Input: proj, Keys: []substrait.SortKey{{Column: 1, Descending: true}}},
		Count: 5,
	}
	pages, _, err := runLocal(store, substrait.NewPlan(topn), newExecEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	out := column.NewPage(pages[0].Schema)
	for _, p := range pages {
		out.AppendPage(p)
	}
	if out.NumRows() != 5 {
		t.Fatalf("topN rows = %d", out.NumRows())
	}
	if out.Row(0)[1].F != 199 || out.Row(4)[1].F != 195 {
		t.Errorf("topN values: %v ... %v", out.Row(0)[1], out.Row(4)[1])
	}
}

func TestExecuteLocalBareFetch(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	pages, _, err := runLocal(store, substrait.NewPlan(&substrait.FetchRel{Input: read, Count: 7}), newExecEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		total += p.NumRows()
	}
	if total != 7 {
		t.Errorf("limit rows = %d", total)
	}
}

func TestExecuteLocalErrors(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "corrupt", []byte("nope"))
	if _, _, err := runLocal(store, filterPlan(t, "b", "missing"), newExecEnv(0)); err == nil {
		t.Error("missing object accepted")
	}
	if _, _, err := runLocal(store, filterPlan(t, "b", "corrupt"), newExecEnv(0)); err == nil {
		t.Error("corrupt object accepted")
	}
	// Schema mismatch between plan and object.
	store.Put("b", "o", meshObject(t, compress.None))
	wrongSchema := types.NewSchema(types.Column{Name: "other", Type: types.Int64})
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: wrongSchema}
	cond, _ := expr.NewCompare(expr.Gt, expr.Col(0, "other", types.Int64), expr.Lit(types.IntValue(0)))
	if _, _, err := runLocal(store, substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond}), newExecEnv(0)); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// runLocal drains plan's local execution under env.
func runLocal(store *objstore.Store, plan *substrait.Plan, env *execEnv) ([]*column.Page, *objstore.WorkStats, error) {
	ls, err := newLocalStream(store, plan, env)
	if err != nil {
		return nil, nil, err
	}
	pages, err := exec.Drain(ls)
	if err != nil {
		return nil, nil, err
	}
	return pages, ls.Work(), nil
}

// executeAll drains plan's result stream from cli; the returned stream
// still answers Schema, Stats and ArrowBytes.
func executeAll(ctx context.Context, cli *Client, plan *substrait.Plan) ([]*column.Page, *ResultStream, error) {
	rs, err := cli.ExecuteStream(ctx, plan)
	if err != nil {
		return nil, nil, err
	}
	defer rs.Close()
	var pages []*column.Page
	for {
		page, err := rs.Next()
		if err == io.EOF {
			return pages, rs, nil
		}
		if err != nil {
			return nil, nil, err
		}
		pages = append(pages, page)
	}
}

func startCluster(t *testing.T, n int) (*Cluster, *Client) {
	t.Helper()
	cluster, err := StartCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cluster.Addr)
	t.Cleanup(func() {
		cli.Close()
		cluster.Shutdown()
	})
	return cluster, cli
}

func TestClusterExecute(t *testing.T) {
	_, cli := startCluster(t, 1)
	if err := cli.Put(context.Background(), "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	pages, rs, err := executeAll(context.Background(), cli, filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		total += p.NumRows()
	}
	if total != 51 {
		t.Errorf("cluster filter rows = %d", total)
	}
	if rs.ArrowBytes() <= 0 || rs.Stats().RowsProcessed <= 0 {
		t.Errorf("result metadata missing: %+v, %d bytes", rs.Stats(), rs.ArrowBytes())
	}
	if rs.Schema().IndexOf("x") < 0 {
		t.Errorf("result schema = %v", rs.Schema())
	}
}

func TestClusterMultiNodePlacement(t *testing.T) {
	cluster, cli := startCluster(t, 3)
	// Spread 12 objects; every node should get some.
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("part-%03d.pql", i)
		if err := cli.Put(context.Background(), "lanl", key, meshObject(t, compress.None)); err != nil {
			t.Fatal(err)
		}
	}
	stored, nonEmpty := 0, 0
	for _, node := range cluster.Nodes {
		if ks, err := node.Store().List("lanl", "part-"); err == nil && len(ks) > 0 {
			stored += len(ks)
			nonEmpty++
		}
	}
	if stored != 12 {
		t.Fatalf("nodes hold %d objects, want 12", stored)
	}
	if nonEmpty < 2 {
		t.Errorf("placement not spread: %d/3 nodes hold objects", nonEmpty)
	}
	// Execute against an object on whichever node holds it.
	pages, _, err := executeAll(context.Background(), cli, filterPlan(t, "lanl", "part-007.pql"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Error("no pages returned")
	}
	// Get routes correctly too.
	data, st, err := cli.Get(context.Background(), "lanl", "part-003.pql")
	if err != nil || len(data) == 0 || st.BytesRead != int64(len(data)) {
		t.Errorf("routed Get failed: %d bytes, %v", len(data), err)
	}
}

func TestClusterExecuteErrors(t *testing.T) {
	_, cli := startCluster(t, 1)
	if _, _, err := executeAll(context.Background(), cli, filterPlan(t, "b", "missing")); err == nil {
		t.Error("execute against missing object succeeded")
	}
	// Plan with no read rel is rejected by the frontend... cannot build
	// one through the typed API; instead check invalid plan bytes via a
	// raw call: covered by substrait tests. Here: frontend rejects a Get
	// without bucket/key.
	if _, _, err := cli.Get(context.Background(), "", ""); err == nil {
		t.Error("empty get accepted")
	}
}

// The load-bearing invariant: OCS in-storage execution returns the same
// rows as reading the whole object and executing the same operators
// compute-side.
func TestInStorageEqualsLocalExecution(t *testing.T) {
	_, cli := startCluster(t, 1)
	obj := meshObject(t, compress.Gzip)
	if err := cli.Put(context.Background(), "b", "o", obj); err != nil {
		t.Fatal(err)
	}

	plan := filterPlan(t, "b", "o")
	pages, rs, err := executeAll(context.Background(), cli, plan)
	if err != nil {
		t.Fatal(err)
	}
	got := column.NewPage(rs.Schema())
	for _, p := range pages {
		got.AppendPage(p)
	}

	// Compute-side: full GET + local scan + same filter.
	data, _, err := cli.Get(context.Background(), "b", "o")
	if err != nil {
		t.Fatal(err)
	}
	r, err := parquetlite.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.ReadAll([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cond := plan.Root.(*substrait.FilterRel).Condition
	f, err := exec.NewFilter(exec.NewPageSource(meshSchema(), raw), cond, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.DrainToPage(f)
	if err != nil {
		t.Fatal(err)
	}

	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: %d vs %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < got.NumRows(); i++ {
		for c := range got.Row(i) {
			if !types.Equal(got.Row(i)[c], want.Row(i)[c]) {
				t.Errorf("row %d col %d: %v vs %v", i, c, got.Row(i)[c], want.Row(i)[c])
			}
		}
	}
}

func TestFrontendRejectsGarbagePlan(t *testing.T) {
	cluster, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	raw := NewClient(cluster.Addr)
	defer raw.Close()
	// Call Execute with garbage payload through the raw rpc client.
	_, err = raw.rpc.Call(context.Background(), MethodExecute, []byte{0xde, 0xad})
	if err == nil || !strings.Contains(err.Error(), "rejecting plan") {
		t.Errorf("garbage plan error = %v", err)
	}
}

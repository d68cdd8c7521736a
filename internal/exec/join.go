// Hash inner equi-join: a fully-drained columnar build side indexed by
// the same collision-proof length-prefixed key encoding the hash
// aggregate uses, probed vectorized page-at-a-time. Rows whose key
// contains NULL never join (SQL semantics): they are dropped from the
// build index at build time, and a NULL probe key encodes to a value no
// indexed key can equal, so lookups miss without a special case.
//
// The probe path is guarded by `make vet-join`: no per-row value
// accessors, no scalar expression evaluation — matching is gather-list
// construction over the key index followed by columnar Gather of both
// sides.
package exec

import (
	"fmt"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/types"
)

// JoinTable is the immutable result of draining a join's build side:
// dense build rows (NULL-key rows removed) plus the key index. Safe for
// concurrent probing once built (every leaf worker probes the same
// table).
type JoinTable struct {
	schema *types.Schema
	keys   []int
	rows   *column.Page
	index  map[string][]int32
	// inputRows counts drained rows before NULL-key rejection.
	inputRows int64
}

// BuildJoinTable drains input and indexes it by the key columns.
func BuildJoinTable(input Operator, keys []int, meter *Meter) (*JoinTable, error) {
	schema := input.Schema()
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: join build with no keys")
	}
	for _, k := range keys {
		if k < 0 || k >= schema.Len() {
			return nil, fmt.Errorf("exec: join build key %d out of range", k)
		}
	}
	t := &JoinTable{
		schema: schema,
		keys:   keys,
		rows:   column.NewPage(schema),
		index:  make(map[string][]int32),
	}
	var keyBuf []byte
	var live []int
	for {
		page, err := input.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			break
		}
		n := page.NumRows()
		if n == 0 {
			continue
		}
		t.inputRows += int64(n)
		meter.charge(n, float64(len(keys))+1)

		// Columnar NULL-key rejection: a row with any NULL key cannot
		// match an inner join, so it never enters the dense table.
		dense := page
		anyNull := false
		for _, k := range keys {
			if page.Vectors[k].Nulls != nil {
				anyNull = true
				break
			}
		}
		if anyNull {
			live = live[:0]
		rows:
			for row := 0; row < n; row++ {
				for _, k := range keys {
					if nulls := page.Vectors[k].Nulls; nulls != nil && nulls[row] {
						continue rows
					}
				}
				live = append(live, row)
			}
			if len(live) == 0 {
				continue
			}
			dense = page.FilterSel(live)
		}

		base := t.rows.NumRows()
		t.rows.AppendPage(dense)
		m := dense.NumRows()
		for row := 0; row < m; row++ {
			keyBuf = encodeGroupKey(keyBuf[:0], dense, keys, row)
			t.index[string(keyBuf)] = append(t.index[string(keyBuf)], int32(base+row))
		}
	}
	return t, nil
}

// Schema returns the build-side schema.
func (t *JoinTable) Schema() *types.Schema { return t.schema }

// Rows returns the indexed (non-NULL-key) row count.
func (t *JoinTable) Rows() int { return t.rows.NumRows() }

// InputRows returns rows drained from the build side before NULL-key
// rejection.
func (t *JoinTable) InputRows() int64 { return t.inputRows }

// BuildBloom constructs a bloom filter over the first key column's
// values — the filter the engine pushes into the probe-side OCS scan.
// Exact key count is known here, so sizing needs no estimate. Returns an
// error for key kinds the storage-side kernels cannot hash.
func (t *JoinTable) BuildBloom(bitsPerKey int) (*bloom.Filter, error) {
	f := bloom.New(t.rows.NumRows(), bitsPerKey)
	if err := f.AddVector(t.rows.Vectors[t.keys[0]]); err != nil {
		return nil, err
	}
	return f, nil
}

// HashJoinProbe streams probe pages against a built JoinTable, emitting
// probe columns followed by build columns for every match. Probe rows
// with multiple build matches repeat once per match (inner-join
// multiplicity).
type HashJoinProbe struct {
	input  Operator
	table  *JoinTable
	keys   []int
	schema *types.Schema
	meter  *Meter

	probeIdx []int
	buildIdx []int
	keyBuf   []byte
}

// NewHashJoinProbe validates key arity/types and builds the combined
// output schema (probe columns then build columns).
func NewHashJoinProbe(input Operator, table *JoinTable, probeKeys []int, meter *Meter) (*HashJoinProbe, error) {
	in := input.Schema()
	if len(probeKeys) != len(table.keys) {
		return nil, fmt.Errorf("exec: join key arity mismatch: probe %d, build %d", len(probeKeys), len(table.keys))
	}
	for i, k := range probeKeys {
		if k < 0 || k >= in.Len() {
			return nil, fmt.Errorf("exec: join probe key %d out of range", k)
		}
		pk, bk := in.Columns[k].Type, table.schema.Columns[table.keys[i]].Type
		if pk != bk {
			return nil, fmt.Errorf("exec: join key type mismatch: probe %s, build %s", pk, bk)
		}
	}
	cols := make([]types.Column, 0, in.Len()+table.schema.Len())
	cols = append(cols, in.Columns...)
	cols = append(cols, table.schema.Columns...)
	return &HashJoinProbe{
		input:  input,
		table:  table,
		keys:   probeKeys,
		schema: types.NewSchema(cols...),
		meter:  meter,
	}, nil
}

// Schema implements Operator.
func (j *HashJoinProbe) Schema() *types.Schema { return j.schema }

// Next implements Operator: it pulls probe pages until one produces
// matches, then emits the gathered probe⊕build page.
func (j *HashJoinProbe) Next() (*column.Page, error) {
	for {
		page, err := j.input.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			return nil, nil
		}
		n := page.NumRows()
		if n == 0 || len(j.table.index) == 0 {
			if n > 0 {
				j.meter.charge(n, float64(len(j.keys)))
			}
			continue
		}
		j.meter.charge(n, float64(len(j.keys))+2)

		// Build the match gather lists: one (probe row, build row) pair
		// per join match.
		j.probeIdx = j.probeIdx[:0]
		j.buildIdx = j.buildIdx[:0]
		for row := 0; row < n; row++ {
			j.keyBuf = encodeGroupKey(j.keyBuf[:0], page, j.keys, row)
			matches, ok := j.table.index[string(j.keyBuf)]
			if !ok {
				continue
			}
			for _, b := range matches {
				j.probeIdx = append(j.probeIdx, row)
				j.buildIdx = append(j.buildIdx, int(b))
			}
		}
		if len(j.probeIdx) == 0 {
			continue
		}
		probeOut := page.Gather(j.probeIdx)
		buildOut := j.table.rows.Gather(j.buildIdx)
		vecs := make([]*column.Vector, 0, len(probeOut.Vectors)+len(buildOut.Vectors))
		vecs = append(vecs, probeOut.Vectors...)
		vecs = append(vecs, buildOut.Vectors...)
		return &column.Page{Schema: j.schema, Vectors: vecs}, nil
	}
}
